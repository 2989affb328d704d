package data

import (
	"testing"
	"testing/quick"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7, 16, 8).Next(4)
	b := NewGenerator(7, 16, 8).Next(4)
	for i := range a.Inputs.Data {
		if a.Inputs.Data[i] != b.Inputs.Data[i] {
			t.Fatal("same seed must give same inputs")
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("same seed must give same targets")
		}
	}
}

func TestGeneratorShapesAndRanges(t *testing.T) {
	g := NewGenerator(1, 10, 5)
	b := g.Next(3)
	if b.Inputs.Shape[0] != 3 || b.Inputs.Shape[1] != 5 {
		t.Fatalf("shape %v", b.Inputs.Shape)
	}
	if len(b.Targets) != 15 {
		t.Fatalf("targets %d", len(b.Targets))
	}
	for _, v := range b.Inputs.Data {
		if v < 0 || int(v) >= 10 {
			t.Fatalf("token %g out of range", v)
		}
	}
	for _, v := range b.Targets {
		if v < 0 || v >= 10 {
			t.Fatalf("target %d out of range", v)
		}
	}
}

func TestGeneratorHasLearnableStructure(t *testing.T) {
	g := NewGenerator(3, 8, 64)
	b := g.Next(16)
	// Targets should be (token+1)%V most of the time.
	hits, total := 0, 0
	for i := 0; i < 16; i++ {
		for s := 0; s < 64; s++ {
			tok := int(b.Inputs.Data[i*64+s])
			if b.Targets[i*64+s] == (tok+1)%8 {
				hits++
			}
			total++
		}
	}
	frac := float64(hits) / float64(total)
	if frac < 0.7 {
		t.Fatalf("transition structure too weak: %g", frac)
	}
}

func TestSplitMicroPartitions(t *testing.T) {
	g := NewGenerator(5, 12, 4)
	b := g.Next(8)
	micros := SplitMicro(b, 4)
	if len(micros) != 4 {
		t.Fatalf("got %d micros", len(micros))
	}
	// Concatenation of micros equals the original batch.
	idx := 0
	for _, m := range micros {
		if m.Inputs.Shape[0] != 2 {
			t.Fatalf("micro rows %d", m.Inputs.Shape[0])
		}
		for i := range m.Inputs.Data {
			if m.Inputs.Data[i] != b.Inputs.Data[idx] || m.Targets[i] != b.Targets[idx] {
				t.Fatal("micro split lost data")
			}
			idx++
		}
	}
}

func TestSplitMicroRejectsUneven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitMicro(NewGenerator(1, 4, 2).Next(3), 2)
}

func TestQuickSplitRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewGenerator(seed, 6, 3)
		n := 1 + int(seed%4)
		b := g.Next(2 * n)
		micros := SplitMicro(b, n)
		count := 0
		for _, m := range micros {
			count += m.Inputs.Shape[0]
		}
		return count == 2*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitMicroIntoReusesViews: the micro-batches are views of the batch
// they split, and re-splitting the next batch into the same views
// allocates nothing.
func TestSplitMicroIntoReusesViews(t *testing.T) {
	g := NewGenerator(5, 12, 4)
	a, b := g.Next(8), g.Next(8)
	views := SplitMicroInto(nil, a, 4)
	first := views[0]
	if &views[1].Inputs.Data[0] != &a.Inputs.Data[2*4] || &views[1].Targets[0] != &a.Targets[2*4] {
		t.Fatal("micro-batch 1 is not a view of rows 2-3 of its batch")
	}
	views = SplitMicroInto(views, b, 4)
	if views[0] != first || &views[3].Inputs.Data[0] != &b.Inputs.Data[6*4] {
		t.Fatal("re-splitting did not re-point the existing views at the new batch")
	}
	if n := testing.AllocsPerRun(10, func() { views = SplitMicroInto(views, a, 4) }); n != 0 {
		t.Fatalf("re-splitting allocates %.0f objects", n)
	}
}
