// Package tensor implements a dense float32 tensor with the operations a
// transformer training stack needs: parallel matrix multiplication,
// elementwise arithmetic with limited broadcasting, reductions, softmax and
// random initialization. It is the lowest substrate of the Hanayo
// reproduction; everything numeric builds on it.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
	lease uint8 // Workspace bookkeeping; zero for garbage-collected tensors
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, numel(shape))}
}

// numel returns the element count of shape. It formats a copy when it
// panics, so that callers' variadic shapes stay on their stacks.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Full returns a tensor filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i (negative i counts from the end).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.Shape)
	}
	return t.Shape[i]
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t; shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: copy size mismatch %v vs %v", t.Shape, src.Shape))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a view with a new shape (same backing data).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Rows interprets t as a matrix [n, cols] collapsing all leading dims.
func (t *Tensor) rows2D() (n, cols int) {
	if len(t.Shape) == 0 {
		return 1, 1
	}
	cols = t.Shape[len(t.Shape)-1]
	n = len(t.Data) / max(cols, 1)
	return n, cols
}

// Row returns a view of row r when t is interpreted as [n, cols].
func (t *Tensor) Row(r int) []float32 {
	_, cols := t.rows2D()
	return t.Data[r*cols : (r+1)*cols]
}

// String renders a compact description.
func (t *Tensor) String() string {
	if len(t.Data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%g %g %g ...]", t.Shape, t.Data[0], t.Data[1], t.Data[2])
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// MaxAbsDiff returns the max elementwise |a-b|; shapes must match in size.
func MaxAbsDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	m := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// NumBytes returns the storage footprint in bytes (float32 elements).
func (t *Tensor) NumBytes() int64 { return int64(len(t.Data)) * 4 }
