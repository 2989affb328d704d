package nn

import "repro/internal/tensor"

// Buffer ownership. A layer may be attached to the workspace of the
// pipeline stage that owns it (SetWorkspace); it then draws its output,
// its saved activations and its scratch from that workspace and hands them
// back as follows:
//
//   - scratch goes back before the call returns;
//   - the tensors a context saved go back when Backward consumes the
//     context (or when Checkpoint discards it), so a context is good for
//     exactly one Backward;
//   - Forward's input and Backward's dy are borrowed: the layer may keep a
//     reference to the input in its context, and never releases either;
//   - a Sequential member's input that the member did not keep (it says so
//     with inputUnkept; GELU saves its derivative instead) is released by
//     the Sequential, which owns it, right after that member's Forward;
//   - Forward's output and Backward's dx belong to the caller, who releases
//     them once their consumer is done.
//
// With no workspace attached every one of those draws is tensor.New and
// every release a no-op: the layers behave as plain garbage-collected
// values, and a context may be replayed. The context structs themselves
// are always garbage-collected — a few dozen bytes each, allocated in
// program order, so their count repeats exactly from step to step.

// workspaced is implemented by every layer of this package.
type workspaced interface {
	setWorkspace(ws *tensor.Workspace)
}

// SetWorkspace attaches l, and every layer inside it, to ws; nil detaches.
// The layers must then be driven by the goroutine that owns ws. Layers
// defined outside this package are left alone and keep allocating.
func SetWorkspace(l Layer, ws *tensor.Workspace) {
	if w, ok := l.(workspaced); ok {
		w.setWorkspace(ws)
	}
}

// inputUnkept reports whether l declares that no context of its keeps a
// reference to Forward's input, so the input's owner may release it as soon
// as Forward returns instead of holding it until Backward.
func inputUnkept(l Layer) bool {
	_, ok := l.(interface{ inputUnkept() })
	return ok
}

// discard releases the tensors ctx saved, for a context whose Backward
// will never run. Layers whose contexts own no tensors need no method.
func discard(l Layer, ctx Ctx) {
	if d, ok := l.(interface{ discard(Ctx) }); ok {
		d.discard(ctx)
	}
}
