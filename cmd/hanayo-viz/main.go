// Command hanayo-viz renders a pipeline schedule as an ASCII Gantt chart
// (the paper's Fig 3/5/6 style), or exports it as CSV / Chrome trace JSON.
//
// Usage:
//
//	hanayo-viz -scheme hanayo-w2 -p 4 -b 4
//	hanayo-viz -scheme chimera -p 8 -b 8 -format chrome > trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/costmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hanayo-viz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hanayo-viz", flag.ContinueOnError)
	scheme := fs.String("scheme", "hanayo-w2", "gpipe|dapple (1f1b)|chimera|chimera-wave|gems|zbh1|hanayo-w<N>|interleaved-v<N>")
	p := fs.Int("p", 4, "pipeline devices")
	b := fs.Int("b", 4, "micro-batches")
	tc := fs.Float64("tc", 0.05, "per-hop communication cost relative to a device slice forward (=1)")
	width := fs.Int("width", 100, "chart width in columns")
	format := fs.String("format", "gantt", "gantt|csv|chrome|summary")
	noPrefetch := fs.Bool("no-prefetch", false, "disable receive prefetching (ablation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*tc >= 0) || math.IsInf(*tc, 0) {
		return fmt.Errorf("-tc must be a non-negative finite number, got %g", *tc)
	}

	// ByName output arrives with its structure proven (sched.Validate),
	// and the simulation below refuses any list it cannot run.
	s, err := sched.ByName(*scheme, *p, *b)
	if err != nil {
		return err
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: *tc}
	opt := sim.DefaultOptions()
	opt.Prefetch = !*noPrefetch
	r, err := sim.Run(s, cost, opt)
	if err != nil {
		return err
	}

	switch *format {
	case "gantt":
		fmt.Fprintln(out, trace.Legend())
		trace.Gantt(out, r, *width)
	case "csv":
		return trace.CSV(out, r)
	case "chrome":
		return trace.Chrome(out, r)
	case "summary":
		fmt.Fprintln(out, trace.Summary(r))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
