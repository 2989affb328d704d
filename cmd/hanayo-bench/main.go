// Command hanayo-bench regenerates the paper's evaluation tables and
// figures (Fig 1–12) as text output.
//
// Usage:
//
//	hanayo-bench             # run everything
//	hanayo-bench -exp fig09  # run one experiment
//	hanayo-bench -exp fig10 -workers 1   # serial configuration search
//	hanayo-bench -exp fig10 -prune       # memory-first OOM pruning
//	hanayo-bench -exp fig10 -topk 3      # bound-and-prune: exact top 3 only
//	hanayo-bench -exp fig10 -scheme zbh1 # sweep the zero-bubble split scheme too
//	hanayo-bench -exp fig10 -straggler 0:0.5      # search with device 0 at half speed
//	hanayo-bench -exp fig10 -faultplan plan.json  # inject a fault plan into the sweep
//	hanayo-bench -exp xtr02  # best scheme vs straggler severity table
//	hanayo-bench -exp xtr03 -workers 1  # elastic churn: top-K replanning vs exhaustive re-sweep
//	hanayo-bench -exp xtr03 -events churn.json  # replay a recorded event stream
//	hanayo-bench -exp fig10 -repeat 20   # steady-state: rerun 20×
//	hanayo-bench -exp fig10 -cpuprofile cpu.prof -memprofile mem.prof
//	hanayo-bench -list       # list experiment ids
//
// The profile flags write standard pprof files (`go tool pprof cpu.prof`)
// covering exactly the experiment run — the supported way to profile the
// sweep and simulator hot paths. -repeat reruns the selected experiments
// (discarding all but the last run's output), which is how to profile the
// steady state of the reusable evaluation pipeline rather than its warmup.
// Performance is measured by the repository benchmark, `go run ./benchmark`
// (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("exp", "", "experiment id (e.g. fig01); empty runs all")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 0, "AutoTune sweep workers (fig10): 0 = one per CPU, 1 = serial")
	prune := flag.Bool("prune", false, "fig10: memory-first OOM pruning (infeasible cells skip the timing simulation)")
	topk := flag.Int("topk", 0, "fig10: bound-and-prune search keeping this many exact ranks (0 = exhaustive)")
	scheme := flag.String("scheme", "", "fig10: sweep one extra scheme alongside the default set (e.g. zbh1)")
	straggler := flag.String("straggler", "", "fig10: perturb the search cluster, dev:factor (e.g. 0:0.5 runs device 0 at half speed)")
	faultplan := flag.String("faultplan", "", "fig10: inject a JSON fault plan file into the sweep (events: slowdown/linkdegrade/fail)")
	events := flag.String("events", "", "xtr03: replay a JSON membership-event stream file (events: leave/join/speed/link) instead of the default churn")
	repeat := flag.Int("repeat", 1, "run the selected experiments this many times (steady-state profiling); only the last run prints")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
	flag.Parse()
	experiments.AutoTuneWorkers = *workers
	experiments.AutoTunePrune = *prune
	experiments.AutoTuneTopK = *topk
	experiments.ExtraScheme = *scheme
	experiments.Straggler = *straggler
	if *faultplan != "" {
		data, err := os.ReadFile(*faultplan)
		if err != nil {
			fatal(err)
		}
		plan, err := sim.ParseFaultPlan(data)
		if err != nil {
			fatal(err)
		}
		experiments.Faults = plan
	}
	if *events != "" {
		data, err := os.ReadFile(*events)
		if err != nil {
			fatal(err)
		}
		evs, err := cluster.ParseEvents(data)
		if err != nil {
			fatal(err)
		}
		experiments.Events = evs
	}

	if *list {
		for _, n := range experiments.Names() {
			e, _ := experiments.Get(n)
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal flushes the profile too: os.Exit skips defers, and a
		// truncated pprof file is worse than none.
		stopProfile = pprof.StopCPUProfile
		defer pprof.StopCPUProfile()
	}
	if *repeat < 1 {
		*repeat = 1
	}
	for i := 0; i < *repeat; i++ {
		// Warmup passes discard output so a -repeat run prints one clean
		// copy while the profile still covers every iteration.
		var w io.Writer = io.Discard
		if i == *repeat-1 {
			w = os.Stdout
		}
		var err error
		if *exp == "" {
			err = experiments.RunAll(w)
		} else {
			err = experiments.Run(*exp, w)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		runtime.GC() // materialize the retained set before the heap snapshot
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
	}
}

// stopProfile is set once CPU profiling starts so error exits still flush.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "hanayo-bench:", err)
	os.Exit(1)
}
