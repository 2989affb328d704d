package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Rank() != 3 || a.Dim(0) != 2 || a.Dim(-1) != 4 {
		t.Fatalf("bad dims: %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetOffset(t *testing.T) {
	a := New(2, 3)
	a.Data[5] = 7
	if a.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %g, want the row-major element 5", a.At(1, 2))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	fromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Data[0] = 9
	if a.At(0, 0) != 9 {
		t.Fatal("reshape must share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Ones(3)
	b := a.Clone()
	b.Data[0] = 5
	if a.Data[0] != 1 {
		t.Fatal("clone must copy")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := fromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulBatchedLeadingDims(t *testing.T) {
	a := Ones(2, 3, 4) // collapses to [6,4]
	b := Ones(4, 5)
	c := MatMul(a, b)
	if c.Shape[0] != 2 || c.Shape[1] != 3 || c.Shape[2] != 5 {
		t.Fatalf("shape %v", c.Shape)
	}
	for _, v := range c.Data {
		if v != 4 {
			t.Fatalf("got %g want 4", v)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// TestParallelKernelsBitIdentical checks the goroutine fan-out path of all
// three matrix kernels against their single-threaded row loops on a size
// above parallelThreshold: a row split must not change one bit.
func TestParallelKernelsBitIdentical(t *testing.T) {
	r := NewRNG(1)
	m, k, n := 128, 96, 112
	if m*k*n < parallelThreshold {
		t.Fatalf("%d multiply-adds no longer reach the parallel path (threshold %d)", m*k*n, parallelThreshold)
	}
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	bt := Randn(r, 1, n, k)
	dy := Randn(r, 1, m, n)
	same := func(name string, got, want *Tensor) {
		t.Helper()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: element %d is %g split across goroutines, %g serial", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	want := New(m, n)
	matmulRows(want.Data, a.Data, b.Data, 0, m, k, n)
	same("MatMul", MatMul(a, b), want)
	matmulTRows(want.Data, a.Data, bt.Data, 0, m, k, n)
	same("MatMulT", matMulT(a, bt), want)
	wantT := New(k, n)
	tmatmulRows(wantT.Data, a.Data, dy.Data, 0, k, m, k, n)
	same("TMatMul", tMatMul(a, dy), wantT)
}

// The three row kernels as the plain loops they were before they were
// tiled: the reference that fixes, per output element, which float32
// operations run and in which order.

func refMatmulRows(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j := range ci {
				ci[j] += av * bp[j]
			}
		}
	}
}

func refMatmulTRows(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var s float32
			for p := range ai {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	}
}

func refTmatmulRows(c, a, b []float32, lo, hi, m, k, n int) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		bi := b[i*n : (i+1)*n]
		for p := lo; p < hi; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			cp := c[p*n : (p+1)*n]
			for j := range bi {
				cp[j] += av * bi[j]
			}
		}
	}
}

// TestTiledKernelsMatchReference: on random shapes with every dimension in
// 1…19 — every remainder of the 2 × 3 tile and of the 4-step unroll, one
// row and fewer columns than a tile included — the tiled kernels produce the
// reference loops' results bit for bit. a carries +0 and −0 (the skipped
// products: skipping matters, because 0·Inf is NaN and −0 + 0 is +0), b
// carries ±Inf and NaN, the accumulating kernels start from a random c with
// −0 in it and the assigning one from NaN, and tmatmulRows works on random
// row ranges and must leave the other rows alone. The one freedom allowed
// is which NaN: when both operands of an add are NaN the hardware keeps the
// first one's sign and payload, and Go does not say which operand that is.
func TestTiledKernelsMatchReference(t *testing.T) {
	r := NewRNG(22)
	zeros := []float32{0, float32(math.Copysign(0, -1))}
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	sprinkle := func(x *Tensor, oneIn int, vals []float32) *Tensor {
		for i := range x.Data {
			if r.Intn(oneIn) == 0 {
				x.Data[i] = vals[r.Intn(len(vals))]
			}
		}
		return x
	}
	same := func(kernel string, m, k, n int, got, want []float32) {
		t.Helper()
		for i := range want {
			g, w := got[i], want[i]
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				t.Fatalf("%s %dx%dx%d: element %d is %g (%#08x) tiled, %g (%#08x) by the reference loop",
					kernel, m, k, n, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
	for round := 0; round < 500; round++ {
		m, k, n := 1+r.Intn(19), 1+r.Intn(19), 1+r.Intn(19)
		a := sprinkle(Randn(r, 1, m, k), 1+r.Intn(6), zeros)

		b := sprinkle(Randn(r, 1, k, n), 12, specials)
		got := sprinkle(Randn(r, 1, m, n), 8, zeros)
		want := got.Clone()
		matmulRows(got.Data, a.Data, b.Data, 0, m, k, n)
		refMatmulRows(want.Data, a.Data, b.Data, 0, m, k, n)
		same("matmulRows", m, k, n, got.Data, want.Data)

		bt := sprinkle(Randn(r, 1, n, k), 12, specials)
		got, want = Full(specials[2], m, n), Full(specials[2], m, n)
		matmulTRows(got.Data, a.Data, bt.Data, 0, m, k, n)
		refMatmulTRows(want.Data, a.Data, bt.Data, 0, m, k, n)
		same("matmulTRows", m, k, n, got.Data, want.Data)

		dy := sprinkle(Randn(r, 1, m, n), 12, specials)
		got = sprinkle(Randn(r, 1, k, n), 8, zeros)
		want = got.Clone()
		lo := r.Intn(k + 1)
		hi := lo + r.Intn(k+1-lo)
		tmatmulRows(got.Data, a.Data, dy.Data, lo, hi, m, k, n)
		refTmatmulRows(want.Data, a.Data, dy.Data, lo, hi, m, k, n)
		same("tmatmulRows", m, k, n, got.Data, want.Data)
	}
}

// TestIntoKernelsIgnoreDestinationContents: every destination-taking
// kernel yields exactly what it yields into a fresh zero tensor when
// handed a NaN-filled destination — a recycled buffer never has to be
// zero.
func TestIntoKernelsIgnoreDestinationContents(t *testing.T) {
	r := NewRNG(3)
	a := Randn(r, 1, 2, 5, 4)
	w := Randn(r, 1, 4, 6)
	wt := Randn(r, 1, 6, 4)
	dy := Randn(r, 1, 2, 5, 6)
	bias := Randn(r, 1, 4)
	nan := func(shape ...int) *Tensor { return Full(float32(math.NaN()), shape...) }
	cases := []struct {
		name      string
		got, want *Tensor
	}{
		{"MatMulInto", MatMulInto(nan(2, 5, 6), a, w), MatMul(a, w)},
		{"MatMulTInto", MatMulTInto(nan(2, 5, 6), a, wt), matMulT(a, wt)},
		{"TMatMulInto", TMatMulInto(nan(4, 6), a, dy), tMatMul(a, dy)},
		{"AddInto", AddInto(nan(2, 5, 4), a, bias), Add(a, bias)},
		{"SumLastDimGradInto", SumLastDimGradInto(nan(6), dy), sumLastDimGrad(dy)},
		{"SoftmaxLastDimInto", SoftmaxLastDimInto(nan(2, 5, 6), dy), softmax(dy)},
		{"SoftmaxBackwardLastDimInto", SoftmaxBackwardLastDimInto(nan(2, 5, 6), softmax(dy), dy),
			softmaxBackward(softmax(dy), dy)},
	}
	for _, c := range cases {
		if len(c.got.Data) != len(c.want.Data) {
			t.Fatalf("%s: %d elements, want %d", c.name, len(c.got.Data), len(c.want.Data))
		}
		for i := range c.want.Data {
			if c.got.Data[i] != c.want.Data[i] {
				t.Fatalf("%s: element %d is %g, a fresh destination gives %g", c.name, i, c.got.Data[i], c.want.Data[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a destination of the wrong size must panic")
		}
	}()
	MatMulInto(New(2, 5, 5), a, w)
}

// TestWorkspaceRecyclesBySize: Get reuses a returned buffer of the same
// element count under a new shape, allocates nothing once warm, and a nil
// workspace is the heap.
func TestWorkspaceRecyclesBySize(t *testing.T) {
	ws := &Workspace{}
	a := ws.Get(2, 6)
	a.Fill(7)
	ws.Put(a)
	b := ws.Get(3, 4)
	if b != a || b.Shape[0] != 3 || b.Shape[1] != 4 || b.Data[0] != 7 {
		t.Fatalf("Get(3,4) after Put of [2,6]: tensor %p shape %v, want the recycled %p as [3 4] with its old contents", b, b.Shape, a)
	}
	if z := ws.Zeros(12); z == b {
		t.Fatal("a tensor that is still out was handed out again")
	}
	ws.Put(b)
	if z := ws.Zeros(4, 3); z != b || sum(z) != 0 {
		t.Fatalf("Zeros returned %v", z)
	}
	if c := ws.GetCols(New(2, 5, 4), 6); c.Shape[0] != 2 || c.Shape[1] != 5 || c.Shape[2] != 6 {
		t.Fatalf("GetCols shape %v", c.Shape)
	}

	warm := &Workspace{}
	cycle := func() {
		x, y := warm.Get(4, 4), warm.Get(8)
		warm.Put(warm.GetCols(x, 2))
		warm.Put(x)
		warm.Put(y)
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a warm workspace allocates %.0f objects per cycle", n)
	}

	var heap *Workspace
	h := heap.Get(2, 2)
	heap.Put(h)
	heap.Put(h) // a nil workspace tracks nothing
	if heap.Zeros(3).Len() != 3 || heap.Sweep() != 0 {
		t.Fatal("nil workspace misbehaves")
	}
}

// TestWorkspaceOwnership: tensors no workspace handed out are left alone,
// a double Put panics, a tensor may be returned to another workspace, and
// Sweep reclaims exactly what is still out.
func TestWorkspaceOwnership(t *testing.T) {
	a, b := &Workspace{}, &Workspace{}
	a.Put(New(3)) // heap tensor: ignored
	if got := a.Get(3); got.Data == nil || a.Sweep() != 1 {
		t.Fatal("a heap tensor must not enter the free list")
	}

	x := a.Get(5)
	b.Put(x) // migrated: b now holds it
	if n := a.Sweep(); n != 0 {
		t.Fatalf("Sweep reclaimed %d tensors that sit in another workspace's free list", n)
	}
	if y := b.Get(5); y != x {
		t.Fatal("migrated tensor not reused by its new holder")
	}
	// x is out again and nobody returns it: its maker's sweep takes it back.
	if n := a.Sweep(); n != 1 {
		t.Fatalf("Sweep reclaimed %d tensors, want the 1 still out", n)
	}
	if n := a.Sweep(); n != 0 {
		t.Fatalf("second Sweep reclaimed %d", n)
	}

	a.Fill(float32(math.NaN()))
	if z := a.Get(5); !math.IsNaN(float64(z.Data[0])) {
		t.Fatal("Fill did not reach the pooled buffer")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("returning a tensor twice must panic")
		}
	}()
	d := a.Get(2)
	a.Put(d)
	a.Put(d)
}

// TestWorkspaceRefill: after an interrupted exchange each workspace takes
// back from its peers' surplus what it lacks against its mark, and no more.
func TestWorkspaceRefill(t *testing.T) {
	a, b := &Workspace{}, &Workspace{}
	x, y, z := a.Get(4), a.Get(4), b.Get(4)
	a.Put(x)
	a.Put(y)
	b.Put(z)
	a.Mark() // a starts steps with two, b with one
	b.Mark()
	// An aborted step: a's tensor travels to b, which pools it.
	b.Put(a.Get(4))
	a.Refill(b)
	b.Refill(a)
	if _, free := a.Count(); free != 2 {
		t.Fatalf("a holds %d free tensors after the refill, its mark is 2", free)
	}
	if _, free := b.Count(); free != 1 {
		t.Fatalf("b holds %d free tensors after the refill, its mark is 1", free)
	}
	a.Refill(b) // at its mark: takes nothing
	if _, free := b.Count(); free != 1 {
		t.Fatal("a refill beyond the mark")
	}
	if n := testing.AllocsPerRun(10, func() { b.Put(a.Get(4)); a.Refill(b) }); n != 0 {
		t.Fatalf("Refill allocates %.0f objects", n)
	}
}

// TestWorkspaceAbsorb: a workspace that goes away hands everything it
// answered for to a survivor — its free tensors, and the tensors it made
// that now sit in a third workspace's free list, so the survivor's Sweep
// reclaims one of those once it is handed out and never returned.
func TestWorkspaceAbsorb(t *testing.T) {
	keep, peer, gone := &Workspace{}, &Workspace{}, &Workspace{}
	pooled, migrated := gone.Get(4), gone.Get(6)
	gone.Put(pooled)
	peer.Put(migrated) // a payload gone made, returned to peer's list
	keep.Absorb(gone)
	if made, free := gone.Count(); made != 0 || free != 0 {
		t.Fatalf("the absorbed workspace still counts %d made, %d free", made, free)
	}
	if made, free := keep.Count(); made != 2 || free != 1 {
		t.Fatalf("survivor counts %d made, %d free; want 2 and 1", made, free)
	}
	if got := keep.Get(4); got != pooled {
		t.Fatal("the absorbed free tensor is not reused by the survivor")
	}
	keep.Put(pooled)
	if got := peer.Get(6); got != migrated {
		t.Fatal("the migrated tensor left peer's free list")
	}
	// Out again and never returned: only the survivor can take it back.
	if n := peer.Sweep(); n != 0 {
		t.Fatalf("peer swept %d tensors it did not make", n)
	}
	if n := keep.Sweep(); n != 1 {
		t.Fatalf("survivor swept %d tensors, want the migrated one", n)
	}
	if made, free := keep.Count(); made != free {
		t.Fatalf("after the sweep the survivor counts %d made, %d free", made, free)
	}
	var heap *Workspace
	heap.Absorb(keep) // the heap answers for nothing
	keep.Absorb(nil)
	if made, free := heap.Count(); made != 0 || free != 0 {
		t.Fatal("a nil workspace counts tensors")
	}
}

func TestMatMulTAgreesWithExplicitTranspose(t *testing.T) {
	r := NewRNG(2)
	a := Randn(r, 1, 5, 7)
	b := Randn(r, 1, 6, 7) // b is [n,k]
	got := matMulT(a, b)
	want := MatMul(a, transpose2D(b))
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("MatMulT diff %g", d)
	}
}

func TestTMatMulAgreesWithExplicitTranspose(t *testing.T) {
	r := NewRNG(3)
	a := Randn(r, 1, 9, 4)
	b := Randn(r, 1, 9, 5)
	got := tMatMul(a, b)
	want := MatMul(transpose2D(a), b)
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("TMatMul diff %g", d)
	}
}

func TestAddBroadcastBias(t *testing.T) {
	a := Ones(2, 3)
	bias := fromSlice([]float32{1, 2, 3}, 3)
	c := Add(a, bias)
	want := []float32{2, 3, 4, 2, 3, 4}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d]=%g want %g", i, c.Data[i], w)
		}
	}
}

func TestSubMulScale(t *testing.T) {
	a := fromSlice([]float32{4, 6}, 2)
	b := fromSlice([]float32{1, 2}, 2)
	if s := sub(a, b); s.Data[0] != 3 || s.Data[1] != 4 {
		t.Fatalf("sub %v", s.Data)
	}
	if m := mul(a, b); m.Data[0] != 4 || m.Data[1] != 12 {
		t.Fatalf("mul %v", m.Data)
	}
	if sc := scale(a, 0.5); sc.Data[0] != 2 || sc.Data[1] != 3 {
		t.Fatalf("scale %v", sc.Data)
	}
}

func TestSumLastDimGrad(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	g := sumLastDimGrad(a)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("g[%d]=%g want %g", i, g.Data[i], w)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(4)
	a := Randn(r, 3, 4, 7)
	s := softmax(a)
	for row := 0; row < 4; row++ {
		var sum float64
		for _, v := range s.Row(row) {
			if v < 0 {
				t.Fatal("softmax produced negative value")
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %g", row, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	a := fromSlice([]float32{1000, 1001, 1002}, 1, 3)
	s := softmax(a)
	for _, v := range s.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", s.Data)
		}
	}
}

// TestSoftmaxBackwardFiniteDiff verifies the softmax backward pass against
// central finite differences.
func TestSoftmaxBackwardFiniteDiff(t *testing.T) {
	r := NewRNG(5)
	x := Randn(r, 1, 2, 5)
	dy := Randn(r, 1, 2, 5)
	y := softmax(x)
	dx := softmaxBackward(y, dy)
	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := Dot(softmax(x), dy)
		x.Data[i] = orig - eps
		lm := Dot(softmax(x), dy)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2 {
			t.Fatalf("dx[%d]: numeric %g analytic %g", i, num, dx.Data[i])
		}
	}
}

// transpose2D transposes a [m,n] matrix: the reference the fused
// transposed kernels MatMulT and TMatMul are checked against.
func transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: transpose2D on rank-%d", a.Rank()))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func TestTranspose2DInvolution(t *testing.T) {
	r := NewRNG(6)
	a := Randn(r, 1, 3, 5)
	b := transpose2D(transpose2D(a))
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("transpose twice changed data by %g", d)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(7)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("mean=%g var=%g", mean, variance)
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(6), 2+r.Intn(6), 2+r.Intn(6)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, m, k)
		c := Randn(r, 1, k, n)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling commutes with matmul, (sA)·B = s(A·B).
func TestQuickMatMulScaleCommutes(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(5), 2+r.Intn(5), 2+r.Intn(5)
		s := float32(r.Float64()*4 - 2)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		return MaxAbsDiff(MatMul(scale(a, s), b), scale(MatMul(a, b), s)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(A·B, C) == Dot(B, Aᵀ·C) — the adjoint identity that the
// backward passes rely on.
func TestQuickMatMulAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(5), 2+r.Intn(5), 2+r.Intn(5)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, m, n)
		return math.Abs(Dot(MatMul(a, b), c)-Dot(b, tMatMul(a, c))) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyAndNorm(t *testing.T) {
	y := Ones(3)
	x := fromSlice([]float32{1, 2, 3}, 3)
	AxpyInPlace(y, 2, x)
	want := []float32{3, 5, 7}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("y[%d]=%g want %g", i, y.Data[i], w)
		}
	}
	v := fromSlice([]float32{3, 4}, 2)
	if math.Abs(l2Norm(v)-5) > 1e-9 {
		t.Fatalf("norm %g", l2Norm(v))
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 256, 256)
	y := Randn(r, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func TestUtilityHelpers(t *testing.T) {
	a := Full(2, 2, 2)
	for _, v := range a.Data {
		if v != 2 {
			t.Fatal("Full")
		}
	}
	a.Fill(3)
	if a.Data[0] != 3 {
		t.Fatal("Fill")
	}
	a.Zero()
	if sum(a) != 0 {
		t.Fatal("Zero/Sum")
	}
	b := New(4)
	b.CopyFrom(a.Reshape(4))
	if b.Data[0] != 0 {
		t.Fatal("CopyFrom")
	}
	if s := a.String(); s == "" {
		t.Fatal("String empty")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("String big empty")
	}
	u := Uniform(NewRNG(1), -1, 1, 50)
	for _, v := range u.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("uniform out of range: %g", v)
		}
	}
}

func TestCopyFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).CopyFrom(New(3))
}

func TestScaleInPlaceAndSub(t *testing.T) {
	a := fromSlice([]float32{2, 4}, 2)
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 1 || a.Data[1] != 2 {
		t.Fatalf("scale in place %v", a.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on sub mismatch")
		}
	}()
	sub(New(2), New(3))
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, -1)
}

// BenchmarkMatMulKernels times the three matrix kernels on the shapes one
// training step of the tiny transformer runs them on — the MLP's two
// products, the fused QKV projection and one attention head — all below
// parallelThreshold, so this is the serial row kernel and nothing else.
func BenchmarkMatMulKernels(b *testing.B) {
	for _, s := range [][3]int{{32, 32, 128}, {32, 128, 32}, {32, 32, 96}, {16, 16, 16}} {
		m, k, n := s[0], s[1], s[2]
		r := NewRNG(1)
		x, w, wt, dy := Randn(r, 1, m, k), Randn(r, 1, k, n), Randn(r, 1, n, k), Randn(r, 1, m, n)
		c, dw := New(m, n), New(k, n)
		for _, kern := range []struct {
			name string
			run  func()
		}{
			{"MatMulInto", func() { MatMulInto(c, x, w) }},
			{"MatMulTInto", func() { MatMulTInto(c, x, wt) }},
			{"TMatMulInto", func() { TMatMulInto(dw, x, dy) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kern.name, m, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern.run()
				}
				b.ReportMetric(float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
			})
		}
	}
}

// Test-local allocating forms. The library runs only the destination-taking
// kernels on workspace buffers; these wrap them (or plain loops, where no
// kernel exists) so the tests can state results as values.

// fromSlice wraps data (not copied) in a tensor of the given shape; a
// shape that does not hold len(data) elements panics, as Reshape does.
func fromSlice(data []float32, shape ...int) *Tensor {
	return (&Tensor{Data: data}).Reshape(shape...)
}

// matMulT computes A·Bᵀ for A [..,k] and B [n,k] into a fresh [..,n].
func matMulT(a, b *Tensor) *Tensor {
	var buf [4]int
	return MatMulTInto(New(colsShape(buf[:], a, b.Dim(0))...), a, b)
}

// tMatMul computes Aᵀ·B for A [m,k] and B [m,n] into a fresh [k,n].
func tMatMul(a, b *Tensor) *Tensor { return TMatMulInto(New(a.Dim(-1), b.Dim(-1)), a, b) }

// sub returns a − b as a + (−1)·b, which is exact in float32; a size
// mismatch panics.
func sub(a, b *Tensor) *Tensor {
	out := a.Clone()
	AxpyInPlace(out, -1, b)
	return out
}

// mul returns the elementwise product a ⊙ b.
func mul(a, b *Tensor) *Tensor {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= b.Data[i]
	}
	return out
}

// scale returns s·a.
func scale(a *Tensor, s float32) *Tensor {
	out := a.Clone()
	ScaleInPlace(out, s)
	return out
}

func sumLastDimGrad(a *Tensor) *Tensor { return SumLastDimGradInto(New(a.Dim(-1)), a) }

func softmax(a *Tensor) *Tensor { return SoftmaxLastDimInto(New(a.Shape...), a) }

func softmaxBackward(y, dy *Tensor) *Tensor {
	return SoftmaxBackwardLastDimInto(New(y.Shape...), y, dy)
}

// sum returns the sum of all elements.
func sum(t *Tensor) float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// l2Norm returns the Euclidean norm of all elements.
func l2Norm(t *Tensor) float64 { return math.Sqrt(Dot(t, t)) }
