package sched

// GEMS generates the GEMS-style schedule (Jain et al.), the remaining
// baseline of the paper's Fig 1: two model replicas in opposite directions
// like Chimera, but with at most one micro-batch active per direction —
// micro i+2 may not start until micro i completed its backward. The result
// is a very high bubble ratio (Fig 1's tallest bars) with low activation
// memory, which is exactly the trade GEMS makes.
func GEMS(p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famGEMS}, p, b, opts...)
}
