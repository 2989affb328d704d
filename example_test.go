package hanayo_test

import (
	"fmt"
	"reflect"

	hanayo "repro"
)

// ExampleTuner builds the tuning service once, serves a sweep, and shows
// the cross-sweep cache at work: a repeated sweep — even against a
// freshly constructed (but content-identical) cluster — costs zero
// simulations.
func ExampleTuner() {
	tuner := hanayo.NewTuner(hanayo.TunerOptions{})
	model := hanayo.BERTStyle()
	space := hanayo.SearchSpace{B: 8, MicroRows: 1, Workers: 2}

	cands := tuner.AutoTune(hanayo.TACC(16), model, space)
	best, _ := hanayo.Best(cands)
	fmt.Printf("winner: %s P=%d D=%d\n", best.Plan.Scheme, best.Plan.P, best.Plan.D)

	before := hanayo.SimRuns()
	tuner.AutoTune(hanayo.TACC(16), model, space) // cache keys by content, not pointer
	fmt.Printf("repeat sweep simulations: %d\n", hanayo.SimRuns()-before)
	// Output:
	// winner: hanayo-w4 P=4 D=4
	// repeat sweep simulations: 0
}

// ExampleSearchSpace_Shard splits one sweep across two "workers" and
// merges their slices: the result is bit-for-bit the single-process
// ranking. In a real deployment each shard runs in its own
// `hanayo-tuned -worker` process against a shared `hanayo-tuned -serve`
// tier (cmd/hanayo-tuned).
func ExampleSearchSpace_Shard() {
	cl := hanayo.TACC(16)
	model := hanayo.BERTStyle()
	space := hanayo.SearchSpace{B: 8, MicroRows: 1, Workers: 2}

	full := hanayo.AutoTune(cl, model, space)
	const n = 2
	parts := make([][]hanayo.Candidate, n)
	for i := 0; i < n; i++ {
		parts[i] = hanayo.AutoTuneShard(cl, model, space.Shard(i, n))
	}
	merged := hanayo.MergeShards(parts...)
	fmt.Printf("merged == single-process: %v\n", reflect.DeepEqual(merged, full))
	// Output:
	// merged == single-process: true
}
