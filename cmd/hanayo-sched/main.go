// Command hanayo-sched generates, validates, analyzes and exports pipeline
// schedules as JSON — the interchange point for external tooling and for
// hand-edited custom schedules (a loaded file's structure is checked and
// its lists proven to run, by sim.Validate). It also fronts the §5.3 configuration search: -tune sweeps a
// cluster preset for the best (scheme, P, D) plan with the parallel
// AutoTune worker pool and then analyzes (or dumps) the winning schedule.
//
// Usage:
//
//	hanayo-sched -scheme hanayo-w2 -p 4 -b 4            # static analysis
//	hanayo-sched -scheme chimera -p 8 -b 8 -json        # dump action lists
//	hanayo-sched -load sched.json                       # validate a file
//	hanayo-sched -scheme gpipe -p 4 -b 4 -lists         # human-readable ops
//	hanayo-sched -tune -cluster tacc -devices 32 -b 16  # search, then analyze the winner
//	hanayo-sched -tune -workers 1 -json                 # serial search, dump winning schedule
//	hanayo-sched -tune -cluster fc:straggler -devices 8 # search a degraded preset
//	hanayo-sched -tune -straggler 0:0.5                 # ...or perturb any preset ad hoc
//	hanayo-sched -tune -faultplan plan.json             # search under injected faults
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hanayo-sched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hanayo-sched", flag.ContinueOnError)
	scheme := fs.String("scheme", "hanayo-w2", "pipeline scheme: gpipe|dapple (1f1b)|chimera|chimera-wave|gems|zbh1|hanayo-w<N>|interleaved-v<N>")
	p := fs.Int("p", 4, "pipeline devices")
	b := fs.Int("b", 4, "micro-batches")
	asJSON := fs.Bool("json", false, "emit the schedule as JSON")
	lists := fs.Bool("lists", false, "print per-device action lists")
	load := fs.String("load", "", "load and validate a schedule JSON file instead of generating")
	tune := fs.Bool("tune", false, "AutoTune: search the cluster for the best plan, then use its schedule")
	clName := fs.String("cluster", "tacc", "cluster preset for -tune (tacc, tc, pc, fc)")
	devices := fs.Int("devices", 32, "cluster size for -tune")
	workers := fs.Int("workers", 0, "AutoTune sweep workers: 0 = one per CPU, 1 = serial")
	straggler := fs.String("straggler", "", "-tune: perturb the cluster, dev:factor (e.g. 0:0.5)")
	faultplan := fs.String("faultplan", "", "-tune: inject a JSON fault plan file into the sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *tune && (set["scheme"] || set["p"]) {
		return fmt.Errorf("-tune searches schemes and pipeline shapes itself; drop -scheme/-p")
	}
	if *tune && *load != "" {
		return fmt.Errorf("-tune and -load are mutually exclusive")
	}

	var s *sched.Schedule
	var err error
	switch {
	case *load != "":
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		// ReadJSON proves the document's structure; the unbatched walk
		// proves the lists run, as the training runtime requires.
		if s, err = sched.ReadJSON(f); err == nil {
			err = sim.Validate(s)
		}
		if err == nil {
			fmt.Fprintf(out, "%s: valid (%d actions)\n", *load, s.NumActions())
		}
	case *tune:
		if *b < 1 {
			// AutoTune reads B = 0 as "default", which is not what -b 0 asked for.
			return fmt.Errorf("-b must be a positive integer, got %d", *b)
		}
		cl, cerr := cluster.ByName(*clName, *devices)
		if cerr != nil {
			return cerr
		}
		cl, cerr = cluster.ApplyStraggler(cl, *straggler)
		if cerr != nil {
			return cerr
		}
		var faults *sim.FaultPlan
		if *faultplan != "" {
			data, ferr := os.ReadFile(*faultplan)
			if ferr != nil {
				return ferr
			}
			if faults, ferr = sim.ParseFaultPlan(data); ferr != nil {
				return ferr
			}
		}
		cands := core.AutoTune(cl, nn.BERTStyle(), core.SearchSpace{
			B:       *b,
			Workers: *workers,
			Faults:  faults,
		})
		best, ok := core.Best(cands)
		if !ok {
			return fmt.Errorf("no feasible configuration on %s×%d", *clName, *devices)
		}
		fmt.Fprintf(out, "winner on %s×%d: %s P=%d D=%d B=%d (%.2f seq/s, %.1f GB peak)\n",
			*clName, *devices, best.Plan.Scheme, best.Plan.P, best.Plan.D, best.Plan.B,
			best.Throughput, best.PeakGB)
		s, err = best.Plan.Schedule()
	default:
		// ByName output arrives with its structure proven (sched.Validate);
		// a generated schedule runs by construction.
		s, err = sched.ByName(*scheme, *p, *b)
	}
	if err != nil {
		return err
	}

	switch {
	case *asJSON:
		return sched.WriteJSON(out, s)
	case *lists:
		for d, list := range s.Lists {
			fmt.Fprintf(out, "P%d:", d)
			for _, a := range list {
				fmt.Fprintf(out, "  %s", a)
			}
			fmt.Fprintln(out)
		}
	default:
		sched.Analyze(s).Print(out)
	}
	return nil
}
