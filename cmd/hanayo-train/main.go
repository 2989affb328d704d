// Command hanayo-train runs real pipeline-parallel training of a miniature
// transformer under any supported schedule, printing the loss curve,
// communication statistics and the median step time. It demonstrates that
// the same action lists the simulator times also train correctly.
//
// Usage:
//
//	hanayo-train -scheme hanayo-w2 -p 4 -dp 2 -iters 20
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/sched"
)

func main() {
	scheme := flag.String("scheme", "hanayo-w2", "pipeline scheme")
	p := flag.Int("p", 4, "pipeline devices")
	dp := flag.Int("dp", 1, "data-parallel replicas")
	b := flag.Int("b", 4, "micro-batches per replica")
	iters := flag.Int("iters", 20, "training iterations")
	layers := flag.Int("layers", 14, "transformer blocks (must be ≥ stages−2)")
	hidden := flag.Int("hidden", 16, "hidden size")
	lr := flag.Float64("lr", 0.01, "Adam learning rate")
	seed := flag.Uint64("seed", 42, "model init seed")
	flag.Parse()

	s, err := sched.ByName(*scheme, *p, *b)
	if err != nil {
		fatal(err)
	}
	cfg := nn.Tiny(*layers, *hidden, 2, 32, 8, true)
	eng, err := runtime.New(runtime.Config{
		Schedule:     s,
		Model:        cfg,
		DP:           *dp,
		Seed:         *seed,
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(*lr) },
	})
	if err != nil {
		fatal(err)
	}

	total := 0
	for _, prm := range eng.Params() {
		total += prm.W.Len()
	}
	fmt.Printf("training %s with %s: P=%d DP=%d S=%d B=%d, %d parameters/replica\n",
		cfg.Name, s.Scheme, s.P, *dp, s.S, s.B, total)

	gen := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen)
	rows := s.B * *dp
	var steps []time.Duration
	for i := 0; i < *iters; i++ {
		batch := gen.Next(rows)
		t0 := time.Now()
		res, err := eng.Step(batch)
		if err != nil {
			fatal(err)
		}
		steps = append(steps, time.Since(t0))
		if i == 0 || (i+1)%5 == 0 || i == *iters-1 {
			st := res.CommStats[0]
			fmt.Printf("iter %3d  loss %.4f  (msgs=%d bytes=%d prefetch-hits=%d)\n",
				i+1, res.Loss, st.Messages, st.Bytes, st.PrefetchHits)
		}
	}
	// The first step fills the workers' workspaces; the rest are the steady
	// state a training job runs in.
	if warm := steps[min(1, len(steps)):]; len(warm) > 0 {
		slices.Sort(warm)
		med := warm[len(warm)/2]
		fmt.Printf("median step %.2f ms over %d warm iterations, %.1f sequences/s\n",
			float64(med)/1e6, len(warm), float64(rows)/med.Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hanayo-train:", err)
	os.Exit(1)
}
