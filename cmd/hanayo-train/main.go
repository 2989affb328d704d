// Command hanayo-train runs real pipeline-parallel training of a miniature
// transformer under any supported schedule, printing the loss curve,
// communication statistics and the median step time. It demonstrates that
// the same action lists the simulator times also train correctly.
//
// Usage:
//
//	hanayo-train -scheme hanayo-w2 -p 4 -dp 2 -iters 20
//
// Every line but the last is deterministic for a given set of flags. The
// last one reports what depends on timing: the median step time and how
// many receives found their payload already waiting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hanayo-train:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hanayo-train", flag.ContinueOnError)
	scheme := fs.String("scheme", "hanayo-w2", "pipeline scheme")
	p := fs.Int("p", 4, "pipeline devices")
	dp := fs.Int("dp", 1, "data-parallel replicas")
	b := fs.Int("b", 4, "micro-batches per replica")
	iters := fs.Int("iters", 20, "training iterations")
	layers := fs.Int("layers", 14, "transformer blocks (must be ≥ stages−2)")
	hidden := fs.Int("hidden", 16, "hidden size")
	lr := fs.Float64("lr", 0.01, "Adam learning rate")
	seed := fs.Uint64("seed", 42, "model init seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters < 1 {
		return fmt.Errorf("-iters must be a positive integer, got %d", *iters)
	}

	s, err := sched.ByName(*scheme, *p, *b)
	if err != nil {
		return err
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
		return err
	}

	total := 0
	for _, prm := range eng.Params() {
		total += prm.W.Len()
	}
	fmt.Fprintf(out, "training %s with %s: P=%d DP=%d S=%d B=%d, %d parameters/replica\n",
		cfg.Name, s.Scheme, s.P, *dp, s.S, s.B, total)

	gen := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen)
	rows := s.B * *dp
	var steps []time.Duration
	var hits int64
	for i := 0; i < *iters; i++ {
		batch := gen.Next(rows)
		t0 := time.Now()
		res, err := eng.Step(batch)
		if err != nil {
			return err
		}
		steps = append(steps, time.Since(t0))
		st := res.CommStats[0]
		hits = st.PrefetchHits
		if i == 0 || (i+1)%5 == 0 || i == *iters-1 {
			fmt.Fprintf(out, "iter %3d  loss %.4f  (msgs=%d bytes=%d)\n", i+1, res.Loss, st.Messages, st.Bytes)
		}
	}
	// The first step fills the workers' workspaces; the rest are the steady
	// state a training job runs in.
	if warm := steps[min(1, len(steps)):]; len(warm) > 0 {
		slices.Sort(warm)
		med := warm[len(warm)/2]
		fmt.Fprintf(out, "median step %.2f ms over %d warm iterations, %.1f sequences/s, prefetch-hits=%d\n",
			float64(med)/1e6, len(warm), float64(rows)/med.Seconds(), hits)
	}
	return nil
}
