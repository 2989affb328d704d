package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum amount of work (multiply-adds) before a
// matrix kernel fans out across goroutines. Forking and joining GOMAXPROCS
// goroutines costs about 20 µs on the 2-CPU reference box, where one core
// sustains about 2.4 G multiply-adds per second: at the former 1<<15 the
// fork cost more than the 14 µs of work it split, and a transformer's small
// matmuls (32×32×128 is 1<<17) forked inside every pipeline worker, which
// already occupy the cores. At 1<<20 (about 0.4 ms of work) the fork is
// under 5 % of the kernel; parallel first measurably wins at 1<<21 there,
// and a 256³ product (1<<24) runs 1.8× faster split.
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

// matmulRows computes rows [lo,hi) of c += a·b using an ikj loop order that
// streams b rows sequentially (cache friendly, auto-vectorizable).
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
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

// MatMulT computes C = A·Bᵀ for A [..,k] and B [n,k] yielding [..,n].
func MatMulT(a, b *Tensor) *Tensor {
	var buf [4]int
	return MatMulTInto(New(colsShape(buf[:], a, b.Dim(0))...), a, b)
}

// MatMulTInto computes c = A·Bᵀ into c (every element is assigned) and
// returns c. c must hold m·n elements.
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

// matmulTRows computes rows [lo,hi) of c = a·bᵀ.
func matmulTRows(c, a, b []float32, lo, hi, k, n int) {
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

// TMatMul computes C = Aᵀ·B for A [m,k], B [m,n] yielding [k,n]. This is the
// weight-gradient shape (xᵀ·dy). A's leading dims are collapsed into m.
func TMatMul(a, b *Tensor) *Tensor { return TMatMulInto(New(a.Dim(-1), b.Dim(-1)), a, b) }

// TMatMulInto computes c = Aᵀ·B into c, whose prior contents are
// discarded, and returns c. c must hold k·n elements.
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

// tmatmulRows computes rows [lo,hi) of c += aᵀ·b.
func tmatmulRows(c, a, b []float32, lo, hi, m, k, n int) {
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

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: sub shapes %v - %v", a.Shape, b.Shape))
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Tensor) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: mul shapes %v * %v", a.Shape, b.Shape))
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(a *Tensor, s float32) *Tensor {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
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

// SumLastDimGrad sums a over all but the last dimension, yielding a vector.
// This is the bias-gradient reduction.
func SumLastDimGrad(a *Tensor) *Tensor { return SumLastDimGradInto(New(a.Dim(-1)), a) }

// SumLastDimGradInto computes the reduction into out, whose prior contents
// are discarded, and returns out.
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

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
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

// Transpose2D transposes a [m,n] matrix.
func Transpose2D(a *Tensor) *Tensor {
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

// SoftmaxLastDim computes a numerically stable softmax over the last dim.
func SoftmaxLastDim(a *Tensor) *Tensor { return SoftmaxLastDimInto(New(a.Shape...), a) }

// SoftmaxLastDimInto computes the softmax of a into out and returns out;
// out may be a itself.
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

// SoftmaxBackwardLastDim computes dX given Y=softmax(X) and dY:
// dx = y ⊙ (dy − sum(dy⊙y)).
func SoftmaxBackwardLastDim(y, dy *Tensor) *Tensor {
	return SoftmaxBackwardLastDimInto(New(y.Shape...), y, dy)
}

// SoftmaxBackwardLastDimInto computes dX into dx (every element is
// assigned) and returns dx.
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

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
