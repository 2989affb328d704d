package tensor

import "fmt"

// Lease states of a tensor. The zero value marks a tensor the garbage
// collector owns (New, Reshape views): a workspace never touches those.
const (
	leaseHeap   uint8 = iota
	leaseOut          // handed out by Workspace.Get, not yet returned
	leasePooled       // sitting in a workspace free list
)

// Workspace is a free list of tensors keyed by element count: the buffer
// pool of one pipeline worker. Get hands out a recycled tensor when one of
// the right size is free and allocates otherwise; Put returns it. The lists
// are plain slices with no locking and no GC-driven eviction, so a
// workspace belongs to one goroutine at a time and its allocation count
// repeats exactly from run to run.
//
// A recycled tensor holds whatever its last user left in it. Every kernel
// with a destination overwrites or zeroes it first; a caller that
// accumulates into a Get result by hand must Zero it.
//
// Tensors may migrate: Put accepts a tensor another workspace handed out
// (a payload received from a peer). Sweep reclaims, at a quiescent point,
// whatever this workspace allocated and nobody returned. Over a whole
// pipeline step the migrations cancel out; over an aborted one they need
// not, and Mark and Refill put the pools back where the step found them.
//
// A nil *Workspace is valid and is the heap: Get is New, Put and Sweep do
// nothing.
type Workspace struct {
	classes []sizeClass
	made    []*Tensor // every tensor this workspace allocated, for Sweep
}

// sizeClass is the free list of one element count. A worker sees a dozen
// distinct sizes at most, so classes are searched linearly.
type sizeClass struct {
	n    int
	free []*Tensor
	mark int // len(free) at the last Mark
}

// find returns the class of n elements, or nil if w has none.
func (w *Workspace) find(n int) *sizeClass {
	for i := range w.classes {
		if w.classes[i].n == n {
			return &w.classes[i]
		}
	}
	return nil
}

func (w *Workspace) class(n int) *sizeClass {
	if c := w.find(n); c != nil {
		return c
	}
	w.classes = append(w.classes, sizeClass{n: n})
	return &w.classes[len(w.classes)-1]
}

// Get returns a tensor of the given shape with unspecified contents.
func (w *Workspace) Get(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	c := w.class(numel(shape))
	if k := len(c.free); k > 0 {
		t := c.free[k-1]
		c.free = c.free[:k-1]
		t.Shape = append(t.Shape[:0], shape...)
		t.lease = leaseOut
		return t
	}
	t := New(shape...)
	t.lease = leaseOut
	w.made = append(w.made, t)
	return t
}

// GetCols returns a tensor shaped like a with the last dimension replaced
// by cols — the output shape of a matmul whose left operand is a.
func (w *Workspace) GetCols(a *Tensor, cols int) *Tensor {
	var buf [4]int
	return w.Get(colsShape(buf[:], a, cols)...)
}

// Zeros returns a zero tensor of the given shape.
func (w *Workspace) Zeros(shape ...int) *Tensor {
	t := w.Get(shape...)
	if w != nil {
		t.Zero()
	}
	return t
}

// Put returns a tensor that a workspace handed out; the caller must not use
// it afterwards. Nil tensors and tensors no workspace handed out are left
// alone; returning a tensor twice is a bug and panics.
func (w *Workspace) Put(t *Tensor) {
	if w == nil || t == nil || t.lease == leaseHeap {
		return
	}
	if t.lease == leasePooled {
		panic(fmt.Sprintf("tensor: %v returned to a workspace twice", t.Shape))
	}
	t.lease = leasePooled
	c := w.class(len(t.Data))
	c.free = append(c.free, t)
}

// Sweep reclaims every tensor this workspace allocated that is still
// handed out, wherever it travelled, and reports how many there were. Call
// it only when no goroutine can still be using one — in the pipeline
// runtime that is the flush, which no step-local tensor outlives.
func (w *Workspace) Sweep() int {
	if w == nil {
		return 0
	}
	n := 0
	for _, t := range w.made {
		if t.lease == leaseOut {
			w.Put(t)
			n++
		}
	}
	return n
}

// Mark records how many free tensors each size class holds: the pool the
// next step starts from. Call it at the quiescent point after Sweep.
func (w *Workspace) Mark() {
	if w == nil {
		return
	}
	for i := range w.classes {
		w.classes[i].mark = len(w.classes[i].free)
	}
}

// Refill moves free tensors from o's surplus over its mark to w, class by
// class, until w is back at its own mark. An aborted step can leave a
// payload in its receiver's free list while its sender's sweep finds it
// missing; refilling every pair of a pipeline's workspaces undoes that, so
// the retried step starts from the marked pools and allocates nothing a
// complete step would not. Tensors keep their maker. Call it at a
// quiescent point.
func (w *Workspace) Refill(o *Workspace) {
	if w == nil || o == nil {
		return
	}
	for i := range w.classes {
		c := &w.classes[i]
		oc := o.find(c.n)
		if oc == nil {
			continue
		}
		if k := min(c.mark-len(c.free), len(oc.free)-oc.mark); k > 0 {
			c.free = append(c.free, oc.free[len(oc.free)-k:]...)
			oc.free = oc.free[:len(oc.free)-k]
		}
	}
}

// Absorb folds o into w, for a worker that goes away while its buffers live
// on: o's free tensors join w's free lists, and every tensor o allocated,
// wherever it sits now, is w's to sweep from then on. Without the second
// half a tensor o made could wait in another workspace's free list and,
// once handed out again, no Sweep would ever reclaim it. o is empty
// afterwards. Call it only at a quiescent point, like Sweep.
func (w *Workspace) Absorb(o *Workspace) {
	if w == nil || o == nil {
		return
	}
	for _, c := range o.classes {
		wc := w.class(c.n)
		wc.free = append(wc.free, c.free...)
	}
	w.made = append(w.made, o.made...)
	*o = Workspace{}
}

// Count reports how many tensors w allocated, which its Sweep answers for,
// and how many sit in its free lists. At a quiescent point with nothing
// handed out, a set of workspaces whose free counts sum to their made
// counts pools only tensors one of them made.
func (w *Workspace) Count() (made, free int) {
	if w == nil {
		return 0, 0
	}
	for _, c := range w.classes {
		free += len(c.free)
	}
	return len(w.made), free
}

// Fill overwrites every pooled buffer with v. Tests poison the free lists
// with NaN to prove that nothing relies on recycled memory being zero.
func (w *Workspace) Fill(v float32) {
	for _, c := range w.classes {
		for _, t := range c.free {
			t.Fill(v)
		}
	}
}
