package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// encode is WriteJSON into a fresh buffer.
func encode(t testing.TB, s *Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadJSONRejectsWrappingOps: an op field that a plain cast into the
// packed Action would wrap onto the same valid value — a kind 256 above
// its own, a micro-batch 2³² above its own — is rejected by ReadJSON with
// the device and op index, not read back as the original schedule.
func TestReadJSONRejectsWrappingOps(t *testing.T) {
	s, err := DAPPLE(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const d, i = 1, 2
	for _, c := range []struct {
		name  string
		field int
		add   int
	}{{"kind+256", 0, 256}, {"micro+2^32", 1, 1 << 32}} {
		t.Run(c.name, func(t *testing.T) {
			var in scheduleJSON
			if err := json.Unmarshal(encode(t, s), &in); err != nil {
				t.Fatal(err)
			}
			in.Lists[d][i][c.field] += c.add
			data, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadJSON(bytes.NewReader(data))
			want := fmt.Sprintf("device %d op %d", d, i)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadJSON = %v, %v; want an error naming %q", got != nil, err, want)
			}
		})
	}
	// The untouched document still reads back.
	if _, err := ReadJSON(bytes.NewReader(encode(t, s))); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateRejectsInt32Overflow: a shape whose task ids or devices do
// not fit in int32 is refused up front, at the exact boundary.
func TestGenerateRejectsInt32Overflow(t *testing.T) {
	for _, c := range []struct {
		p, b, s int
		ok      bool
	}{
		{math.MaxInt32, 1, 1, true},
		{4, math.MaxInt32 / 12, 4, true},
		{4, math.MaxInt32/12 + 1, 4, false},
		{math.MaxInt32, 1, math.MaxInt32 / 3, true},
		{1, 1, math.MaxInt32/3 + 1, false},
		{math.MaxInt32 + 1, 1, 1, false},
	} {
		if err := checkIDs(c.p, c.b, c.s); (err == nil) != c.ok {
			t.Errorf("checkIDs(P=%d, B=%d, S=%d) = %v, want ok=%v", c.p, c.b, c.s, err, c.ok)
		}
	}
	for _, c := range []struct {
		scheme string
		p, b   int
	}{{"dapple", 4, math.MaxInt32}, {"gpipe", math.MaxInt32 + 1, 2}, {"hanayo-w1048576", 2048, 2}} {
		if _, err := NewGenerator().Generate(c.scheme, c.p, c.b); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("%s P=%d B=%d: got %v, want the int32 range error", c.scheme, c.p, c.b, err)
		}
	}
}

// FuzzReadJSON: ReadJSON either rejects a document or returns a schedule
// whose structure passes Validate and that survives WriteJSON → ReadJSON
// unchanged. Never a panic, and never a mapping sized by a header the lists
// do not back. (That the lists run is sim.Validate's to prove.)
func FuzzReadJSON(f *testing.F) {
	for _, c := range []struct {
		scheme string
		p, b   int
	}{{"dapple", 2, 2}, {"hanayo-w1", 2, 2}, {"chimera", 2, 2}, {"zbh1", 2, 2}, {"interleaved-v2", 2, 2}} {
		s, err := ByName(c.scheme, c.p, c.b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encode(f, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := Validate(s); err != nil {
			t.Fatalf("ReadJSON returned a schedule Validate rejects: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(encode(t, s)))
		if err != nil {
			t.Fatalf("re-read of an accepted schedule: %v", err)
		}
		if again.Scheme != s.Scheme || again.P != s.P || again.B != s.B || again.S != s.S || again.W != s.W ||
			again.Mapping.Kind != s.Mapping.Kind {
			t.Fatalf("header changed on re-read: %+v vs %+v", again, s)
		}
		for d := range s.Lists {
			if !slices.Equal(again.Lists[d], s.Lists[d]) {
				t.Fatalf("device %d list changed on re-read", d)
			}
		}
	})
}
