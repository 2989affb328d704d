package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// scheduleJSON is the on-disk form of a Schedule. The mapping is stored as
// its generating parameters so deserialization can rebuild the function
// fields; hand-built mappings round-trip through kind "straight" only when
// they match a known placement.
type scheduleJSON struct {
	Scheme  string      `json:"scheme"`
	P       int         `json:"p"`
	B       int         `json:"b"`
	S       int         `json:"s"`
	W       int         `json:"w"`
	Mapping string      `json:"mapping"` // straight|wave|chimera|interleaved
	Lists   [][]arrayOp `json:"lists"`
}

// arrayOp is a compact action encoding: [kind, micro, stage, chunk, peer].
type arrayOp [5]int

// action packs the op into an Action. A kind that names no OpKind, or a
// field outside the int32 range, is an error: a plain cast would wrap it
// silently onto some other, possibly valid, value.
func (op arrayOp) action() (Action, error) {
	if op[0] < 0 || op[0] > int(OpBackwardWeight) {
		return Action{}, fmt.Errorf("unknown op kind %d", op[0])
	}
	for _, v := range op[1:] {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return Action{}, fmt.Errorf("field %d of %v does not fit in int32", v, op)
		}
	}
	return Action{Kind: OpKind(op[0]), Micro: int32(op[1]), Stage: int32(op[2]),
		Chunk: int32(op[3]), Peer: int32(op[4])}, nil
}

// MarshalJSON serializes the schedule.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{
		Scheme: s.Scheme, P: s.P, B: s.B, S: s.S, W: s.W,
		Mapping: s.Mapping.Kind,
	}
	out.Lists = make([][]arrayOp, len(s.Lists))
	for d, list := range s.Lists {
		ops := make([]arrayOp, len(list))
		for i, a := range list {
			ops[i] = arrayOp{int(a.Kind), int(a.Micro), int(a.Stage), int(a.Chunk), int(a.Peer)}
		}
		out.Lists[d] = ops
	}
	return json.Marshal(out)
}

// UnmarshalJSON rebuilds a schedule, reconstructing the mapping from its
// kind and shape parameters. Before anything is sized by the header it
// checks what every valid schedule satisfies — one list per device, at
// least the 2·B·S compute ops, a mapping of exactly S stages — so a short
// document cannot make it build a large mapping.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.Scheme, s.P, s.B, s.S, s.W = in.Scheme, in.P, in.B, in.S, in.W
	n := 0
	for _, ops := range in.Lists {
		n += len(ops)
	}
	if in.P <= 0 || len(in.Lists) != in.P {
		return fmt.Errorf("sched: %d lists for P=%d", len(in.Lists), in.P)
	}
	if in.B <= 0 || in.S <= 0 || in.S > n/2 || in.B > n/(2*in.S) {
		return fmt.Errorf("sched: %d ops cannot hold the compute of B=%d, S=%d", n, in.B, in.S)
	}
	var sc Scheme
	switch in.Mapping {
	case "straight":
		sc = Scheme{fam: famDAPPLE}
	case "wave":
		w := in.W
		if w <= 0 {
			w = in.S / (2 * in.P)
		}
		sc = Scheme{fam: famHanayo, arg: w}
	case "chimera":
		sc = Scheme{fam: famChimera}
	case "interleaved":
		sc = Scheme{fam: famInterleaved, arg: in.S / in.P}
	default:
		return fmt.Errorf("sched: unknown mapping kind %q", in.Mapping)
	}
	if sc.arg < 0 || sc.arg > in.S || sc.Stages(in.P) != in.S {
		return fmt.Errorf("sched: a %s mapping on P=%d (W=%d) has not S=%d stages", in.Mapping, in.P, in.W, in.S)
	}
	s.Mapping = sc.mapping(in.P)
	s.Lists = make([][]Action, len(in.Lists))
	for d, ops := range in.Lists {
		list := make([]Action, len(ops))
		for i, op := range ops {
			a, err := op.action()
			if err != nil {
				return fmt.Errorf("sched: device %d op %d: %w", d, i, err)
			}
			list[i] = a
		}
		s.Lists[d] = list
	}
	return nil
}

// WriteJSON writes the schedule to w.
func WriteJSON(w io.Writer, s *Schedule) error {
	return json.NewEncoder(w).Encode(s)
}

// ReadJSON parses a schedule from r and checks its structure with
// Validate. Whether the lists run is left to whatever executes them:
// sim.Validate proves it, as the training runtime and hanayo-sched -load
// do.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if err := Validate(&s); err != nil {
		return nil, fmt.Errorf("sched: deserialized schedule invalid: %w", err)
	}
	return &s, nil
}
