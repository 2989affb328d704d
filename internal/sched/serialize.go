package sched

import (
	"encoding/json"
	"fmt"
	"io"
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
			ops[i] = arrayOp{int(a.Kind), a.Micro, a.Stage, a.Chunk, a.Peer}
		}
		out.Lists[d] = ops
	}
	return json.Marshal(out)
}

// UnmarshalJSON rebuilds a schedule, reconstructing the mapping from its
// kind and shape parameters.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.Scheme, s.P, s.B, s.S, s.W = in.Scheme, in.P, in.B, in.S, in.W
	switch in.Mapping {
	case "straight":
		s.Mapping = StraightMapping(in.P)
	case "wave":
		w := in.W
		if w <= 0 {
			w = in.S / (2 * in.P)
		}
		if w <= 0 {
			return fmt.Errorf("sched: cannot infer waves from S=%d P=%d", in.S, in.P)
		}
		s.Mapping = WaveMapping(in.P, w)
	case "chimera":
		s.Mapping = ChimeraMapping(in.P)
	case "interleaved":
		s.Mapping = InterleavedMapping(in.P, in.S/in.P)
	default:
		return fmt.Errorf("sched: unknown mapping kind %q", in.Mapping)
	}
	s.Lists = make([][]Action, len(in.Lists))
	for d, ops := range in.Lists {
		list := make([]Action, len(ops))
		for i, op := range ops {
			list[i] = Action{Kind: OpKind(op[0]), Micro: op[1], Stage: op[2], Chunk: op[3], Peer: op[4]}
		}
		s.Lists[d] = list
	}
	return nil
}

// WriteJSON writes the schedule to w.
func WriteJSON(w io.Writer, s *Schedule) error {
	return json.NewEncoder(w).Encode(s)
}

// ReadJSON parses a schedule from r and validates it.
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
