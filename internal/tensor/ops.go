package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum amount of work (multiply-adds) before a
// matrix kernel fans out across goroutines. On the 2-CPU reference box one
// core sustains about 4 G multiply-adds per second through the tiled
// kernels below, and forking and joining GOMAXPROCS goroutines costs about
// 1 µs when the second CPU is already spinning and 9 µs (7–20) when it has
// to be woken. A transformer's small matmuls (32×32×128 is 1<<17, 33 µs)
// run inside pipeline workers that already occupy the cores, so a fork
// there buys nothing and costs a quarter of the kernel. At 1<<20 (about
// 0.26 ms of work) a cold fork is 4 % of the kernel; split against serial
// measured 0.9–1.1× at 1<<19, 0.95–1.4× at 1<<20 and 1.05–1.35× at 1<<21
// over the three kernels, and a 256³ product (1<<24) runs 1.1–1.6× faster
// split while other tenants share the second CPU: 1<<20 is the smallest
// size at which splitting does not lose.
const parallelThreshold = 1 << 20

// colsShape builds, in buf, a's shape with the last dimension replaced by n.
func colsShape(buf []int, a *Tensor, n int) []int {
	buf = append(buf[:0], a.Shape...)
	buf[len(buf)-1] = n
	return buf
}

// mustLen panics unless dst holds exactly n elements.
func mustLen(op string, dst *Tensor, n int) {
	if len(dst.Data) != n {
		panic(fmt.Sprintf("tensor: %s destination %v holds %d elements, want %d", op, dst.Shape, len(dst.Data), n))
	}
}

// MatMul computes C = A·B for A [m,k] and B [k,n]. Leading dimensions of A
// beyond the last are collapsed, so [b,s,k]·[k,n] works and yields [b,s,n].
func MatMul(a, b *Tensor) *Tensor {
	var buf [4]int
	return MatMulInto(New(colsShape(buf[:], a, b.Dim(-1))...), a, b)
}

// MatMulInto computes c = A·B into c, whose prior contents are discarded,
// and returns c. c must hold m·n elements.
func MatMulInto(c, a, b *Tensor) *Tensor {
	k := a.Dim(-1)
	if b.Rank() != 2 || b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: matmul shapes %v x %v", a.Shape, b.Shape))
	}
	n := b.Shape[1]
	m := len(a.Data) / k
	mustLen("matmul", c, m*n)
	clear(c.Data)
	matmulInto(c.Data, a.Data, b.Data, m, k, n)
	return c
}

// matmulInto computes c += a·b with a [m,k], b [k,n], c [m,n] row-major.
// c must be zeroed by the caller if plain assignment is wanted.
func matmulInto(c, a, b []float32, m, k, n int) {
	if serial(m, m*k*n) {
		matmulRows(c, a, b, 0, m, k, n)
		return
	}
	parallelRows(m, func(lo, hi int) { matmulRows(c, a, b, lo, hi, k, n) })
}

// matmulRows computes rows [lo,hi) of c += a·b in ikj order, which streams b
// rows sequentially, four k-steps to a pass over the c row (see axpy4).
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4(ci, ai[p], ai[p+1], ai[p+2], ai[p+3], b[p*n:], n)
		}
		for ; p < k; p++ {
			axpy(ci, ai[p], b[p*n:])
		}
	}
}

// axpy computes c += av·b over len(c) elements, skipping a zero av: one
// k-step of an accumulating kernel, the step axpy4 takes four of at a time.
func axpy(c []float32, av float32, b []float32) {
	if av == 0 {
		return
	}
	b = b[:len(c)]
	for j := range c {
		c[j] += av * b[j]
	}
}

// axpy4 computes c += a0·b₀ + a1·b₁ + a2·b₂ + a3·b₃, where bᵣ is row r of
// the n-wide matrix starting at b, exactly as four axpy calls in that order
// would: each c[j] is loaded once, takes its four products one at a time in
// row order, and is stored once — per element the same float32 operations
// in the same order, with a quarter of the loads and stores of c. gc does
// not vectorize, so the tile is written by hand. A zero among the four must
// still skip its product (0·Inf is NaN, and x + 0 is not x for x = −0), so
// such a group — a causal softmax row is half zeros — takes the four calls.
func axpy4(c []float32, a0, a1, a2, a3 float32, b []float32, n int) {
	b0, b1, b2, b3 := b[:len(c)], b[n:][:len(c)], b[2*n:][:len(c)], b[3*n:][:len(c)]
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		axpy(c, a0, b0)
		axpy(c, a1, b1)
		axpy(c, a2, b2)
		axpy(c, a3, b3)
		return
	}
	for j := range c {
		s := c[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		c[j] = s
	}
}

// MatMulTInto computes c = A·Bᵀ for A [..,k] and B [n,k] into c (every
// element is assigned) and returns c. c must hold m·n elements.
func MatMulTInto(c, a, b *Tensor) *Tensor {
	k := a.Dim(-1)
	if b.Rank() != 2 || b.Shape[1] != k {
		panic(fmt.Sprintf("tensor: matmulT shapes %v x %v", a.Shape, b.Shape))
	}
	n := b.Shape[0]
	m := len(a.Data) / k
	mustLen("matmulT", c, m*n)
	if serial(m, m*k*n) {
		matmulTRows(c.Data, a.Data, b.Data, 0, m, k, n)
		return c
	}
	parallelRows(m, func(lo, hi int) { matmulTRows(c.Data, a.Data, b.Data, lo, hi, k, n) })
	return c
}

// matmulTRows computes rows [lo,hi) of c = a·bᵀ as 2 × 3 tiles of dot
// products: two rows of a against three rows of b per pass over k. Each of
// the six sums is still taken in p order from zero, exactly as dot takes
// it, but the six are independent, so their float32 add latencies overlap
// where the one-sum loop waits on each in turn, and every loaded value
// serves two or three products. Six sums, their six products and the two a
// values are what gc's fifteen float registers hold without spilling: the
// 2 × 4 tile spills and measured slower than this one on every shape. Where
// the rows do not pair up or the columns do not divide by three, the last
// tile steps back over its neighbour and assigns the same sums again.
func matmulTRows(c, a, b []float32, lo, hi, k, n int) {
	if hi-lo < 2 || n < 3 {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				c[i*n+j] = dot(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
			}
		}
		return
	}
	for i := lo; i < hi; i += 2 {
		i = min(i, hi-2)
		a0, a1 := a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k]
		c0, c1 := c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
		for j := 0; j < n; j += 3 {
			j = min(j, n-3)
			b0, b1, b2 := b[j*k:][:k], b[(j+1)*k:][:k], b[(j+2)*k:][:k]
			var s00, s01, s02, s10, s11, s12 float32
			for p, x0 := range a0 {
				x1 := a1[p]
				y := b0[p]
				s00 += x0 * y
				s10 += x1 * y
				y = b1[p]
				s01 += x0 * y
				s11 += x1 * y
				y = b2[p]
				s02 += x0 * y
				s12 += x1 * y
			}
			c0[j], c0[j+1], c0[j+2] = s00, s01, s02
			c1[j], c1[j+1], c1[j+2] = s10, s11, s12
		}
	}
}

// dot returns Σ a[p]·b[p] summed in p order in float32: one element of
// a·bᵀ, and the whole of matmulTRows for a shape too small to tile.
func dot(a, b []float32) float32 {
	b = b[:len(a)]
	var s float32
	for p, av := range a {
		s += av * b[p]
	}
	return s
}

// TMatMulInto computes c = Aᵀ·B for A [m,k] and B [m,n] into c, whose
// prior contents are discarded, and returns c. c must hold k·n elements.
// This is the weight-gradient shape (xᵀ·dy); A's leading dims are
// collapsed into m.
func TMatMulInto(c, a, b *Tensor) *Tensor {
	k := a.Dim(-1)
	n := b.Dim(-1)
	m := len(a.Data) / k
	if len(b.Data)/n != m {
		panic(fmt.Sprintf("tensor: tmatmul shapes %v x %v", a.Shape, b.Shape))
	}
	mustLen("tmatmul", c, k*n)
	clear(c.Data)
	if serial(k, m*k*n) {
		tmatmulRows(c.Data, a.Data, b.Data, 0, k, m, k, n)
		return c
	}
	parallelRows(k, func(lo, hi int) { tmatmulRows(c.Data, a.Data, b.Data, lo, hi, m, k, n) })
	return c
}

// tmatmulRows computes rows [lo,hi) of c += aᵀ·b one c row at a time, four
// rows of a and b to a pass (see axpy4): c[p] takes its products in i order
// as it does with i outermost, and stays in cache while it does.
func tmatmulRows(c, a, b []float32, lo, hi, m, k, n int) {
	for p := lo; p < hi; p++ {
		cp := c[p*n : (p+1)*n]
		i := 0
		for ; i+4 <= m; i += 4 {
			axpy4(cp, a[i*k+p], a[(i+1)*k+p], a[(i+2)*k+p], a[(i+3)*k+p], b[i*n:], n)
		}
		for ; i < m; i++ {
			axpy(cp, a[i*k+p], b[i*n:])
		}
	}
}

// serial reports whether a kernel over rows output rows and work
// multiply-adds should run on the calling goroutine.
func serial(rows, work int) bool { return work < parallelThreshold || rows == 1 }

// parallelRows splits the output rows [0,m) across goroutines. Each output
// row is still computed by one goroutine in the serial loop order, so the
// split never changes a result bit. Callers test serial first, so the
// closure f is only built on the path that needs it.
func parallelRows(m int, f func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), m)
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, m)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Add returns a + b elementwise; b may also be a vector matching the last
// dimension of a (row broadcast, the bias case).
func Add(a, b *Tensor) *Tensor { return AddInto(New(a.Shape...), a, b) }

// AddInto computes out = a + b (same broadcast rule) and returns out.
func AddInto(out, a, b *Tensor) *Tensor {
	out.CopyFrom(a)
	AddInPlace(out, b)
	return out
}

// AddInPlace adds b into a, with the same broadcast rule as Add.
func AddInPlace(a, b *Tensor) {
	switch {
	case len(a.Data) == len(b.Data):
		for i := range a.Data {
			a.Data[i] += b.Data[i]
		}
	case b.Rank() == 1 && a.Dim(-1) == b.Shape[0]:
		n := b.Shape[0]
		for r := 0; r < len(a.Data)/n; r++ {
			row := a.Data[r*n : (r+1)*n]
			for j := range row {
				row[j] += b.Data[j]
			}
		}
	default:
		panic(fmt.Sprintf("tensor: add shapes %v + %v", a.Shape, b.Shape))
	}
}

// ScaleInPlace multiplies a by s.
func ScaleInPlace(a *Tensor, s float32) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AxpyInPlace computes y += alpha*x.
func AxpyInPlace(y *Tensor, alpha float32, x *Tensor) {
	if len(y.Data) != len(x.Data) {
		panic("tensor: axpy size mismatch")
	}
	for i := range y.Data {
		y.Data[i] += alpha * x.Data[i]
	}
}

// SumLastDimGradInto sums a over all but the last dimension into the
// vector out, whose prior contents are discarded, and returns out. This
// is the bias-gradient reduction.
func SumLastDimGradInto(out, a *Tensor) *Tensor {
	n := a.Dim(-1)
	mustLen("sumLastDimGrad", out, n)
	clear(out.Data)
	for r := 0; r < len(a.Data)/n; r++ {
		row := a.Data[r*n : (r+1)*n]
		for j := range row {
			out.Data[j] += row[j]
		}
	}
	return out
}

// Dot returns the inner product of two equally sized tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: dot size mismatch")
	}
	s := 0.0
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// SoftmaxLastDimInto computes a numerically stable softmax of a over the
// last dim into out and returns out; out may be a itself.
func SoftmaxLastDimInto(out, a *Tensor) *Tensor {
	n := a.Dim(-1)
	out.CopyFrom(a)
	for r := 0; r < len(out.Data)/n; r++ {
		row := out.Data[r*n : (r+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
	return out
}

// SoftmaxBackwardLastDimInto computes dX given Y = softmax(X) and dY,
// dx = y ⊙ (dy − sum(dy⊙y)), into dx (every element is assigned) and
// returns dx.
func SoftmaxBackwardLastDimInto(dx, y, dy *Tensor) *Tensor {
	n := y.Dim(-1)
	mustLen("softmaxBackward", dx, len(y.Data))
	for r := 0; r < len(y.Data)/n; r++ {
		yr := y.Data[r*n : (r+1)*n]
		dr := dy.Data[r*n : (r+1)*n]
		xr := dx.Data[r*n : (r+1)*n]
		var dot float64
		for j := range yr {
			dot += float64(yr[j]) * float64(dr[j])
		}
		d := float32(dot)
		for j := range yr {
			xr[j] = yr[j] * (dr[j] - d)
		}
	}
	return dx
}
