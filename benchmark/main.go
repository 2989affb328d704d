// Command benchmark is the repo's benchmark: seven closed-loop workloads
// along the path a user of the stack walks — plan search, the shared cache
// tier, the distributed sweep as real processes, a training step, recovery
// from a device failure — each run from outside the packages it measures.
// See README.md in this directory for the workloads, metrics and bounds.
//
//	go run ./benchmark --workload sweep_cold --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -out r.json [-seed N] [-workload name] [-tracedir dir]
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"repro/internal/nn"
)

// workloads lists the closed loops in the order a full run executes them.
var workloads = []workload{
	sweepWorkload("sweep_cold",
		"cold exhaustive Fig 10 search (BERT, tacc x32) as a first-time user runs it: sched, costmodel and sim do the work; caches, bounds and memtrace do none",
		"tacc", nn.BERTStyle, 0),
	sweepWorkload("sweep_topk",
		"the same grid at TopK=3: LowerBound ordering and deadline aborts replace most full simulations, so a change that helps only the exhaustive path shows here as flat or worse",
		"tacc", nn.BERTStyle, 3),
	sweepWorkload("sweep_oom",
		"the same grid on GPT x tc x32, where 8 of 12 rows are OOM: memory is the binding constraint, so memmodel and memtrace decisions move this and leave sweep_cold flat",
		"tc", nn.GPTStyle, 0),
	tierWorkload("tier_warm",
		"16 fresh Tuners in turn sweep the grid against a pre-filled cachewire tier over TCP: cachewire and key hashing do the work, 0 simulations, so it bypasses sched and sim"),
	tunedWorkload("tuned_round",
		"hanayo-tuned as real processes: serve, two concurrent shard workers and merge, cold then warm, then SIGTERM; process start and the slowest shard set the time"),
	trainWorkload("train_step",
		"one real-tensor Engine.Step (hanayo-w2, P=4, D=2, B=4) on a fresh batch: runtime, exec, comm, nn and tensor do the work; the planner does none"),
	elasticWorkload("elastic_recover",
		"an ElasticSession step that loses a device mid-iteration: abort, drop it, warm Rerank, rebuild, restore, retry; crosses runtime, core and cluster in one op"),
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	scratch  string // parent of the run's temp directory
}

// output is the line the driver reads.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what a full run keeps of one pass beyond the driver's line:
// the inputs, the environment and each timing's quartiles.
type detail struct {
	Workload  string                `json:"workload"`
	Trace     bool                  `json:"trace"`
	Inputs    inputs                `json:"inputs"`
	Seconds   float64               `json:"seconds"`
	Output    output                `json:"output"`
	Quartiles map[string][2]float64 `json:"quartiles,omitempty"`
	Samples   int                   `json:"samples"`
	Error     string                `json:"error,omitempty"`
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "run this one workload in-process and print the driver's result line")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed the run's inputs are drawn from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "timed window per workload, after a warm-up a fifth as long")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and per-layer metrics")
	flag.StringVar(&opt.traceDir, "tracedir", "", "with -trace 1, write the spans here as Chrome-trace JSON")
	flag.StringVar(&opt.scratch, "scratch", ".bench_build", "directory for built binaries and temp files")
	out := flag.String("out", "", "full run: write every workload's passes to this file")
	detailPath := flag.String("detail", "", "with -workload: also write the pass's detail record to this file")
	compare := flag.Bool("compare", false, "classify every (workload, end-to-end metric) between two -out files")
	selfcheck := flag.Bool("selfcheck", false, "measure two sets of the same code in turns and fail if any pair lands outside its bound")
	flag.Parse()
	opt.trace = traceFlag != 0

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *selfcheck:
		err = runSelfcheck(opt)
	case opt.workload != "" && *out == "":
		err = runOne(opt, *detailPath)
	default:
		err = runSuite(opt, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one pass of one workload in this process and prints the
// driver's line last. A failed output check still prints the line (with
// correct false) and then exits non-zero.
func runOne(opt options, detailPath string) error {
	w := findWorkload(opt.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	d, err := measure(w, opt)
	if detailPath != "" {
		raw, jerr := json.MarshalIndent(d, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(detailPath, raw, 0o644)
		}
		if jerr != nil {
			return jerr
		}
	}
	if d.Output.Metrics == nil {
		return err // setup failed: there is no result to print
	}
	line, jerr := json.Marshal(d.Output)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return err
}

// measure builds the workload and runs one pass: warm-up, then either the
// timed untraced loop (end-to-end metrics) or the traced loop plus the
// workload's layer probes (per-layer metrics).
func measure(w *workload, opt options) (detail, error) {
	e := &env{in: drawInputs(opt.seed)}
	d := detail{Workload: w.name, Trace: opt.trace, Inputs: e.in, Seconds: opt.seconds}
	fail := func(err error) (detail, error) {
		d.Error = err.Error()
		return d, err
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return fail(err)
	}
	var err error
	if e.scratch, err = os.MkdirTemp(opt.scratch, w.name+"-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.scratch)

	// A workload owns child processes and servers; make sure they die with
	// us on a signal as on every return path.
	stop := trapSignals(func() { os.RemoveAll(e.scratch) })
	defer stop()
	var inst instance

	// setup_s is the median of repeated set-ups — at least setupRuns, and as
	// many more as fit in the warm-up's length — so that the first builds of
	// a process (fresh heap pages, a cold page cache) do not decide it. The
	// traced pass reports no set-up time and builds once.
	window := time.Duration(opt.seconds * float64(time.Second))
	var setups []float64
	more := func(since time.Time) bool {
		if opt.trace {
			return len(setups) == 0
		}
		return len(setups) < setupRuns || time.Since(since) < window/5
	}
	for start := time.Now(); more(start); {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fail(fmt.Errorf("%s: close: %w", w.name, err))
			}
		}
		// Collect between phases, never inside one, so that each phase
		// starts from the same heap in every run.
		goruntime.GC()
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return fail(fmt.Errorf("%s: setup: %w", w.name, err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	goruntime.GC()
	warm := runLoop(inst, e, window/5)
	if warm.firstErr != nil {
		return fail(fmt.Errorf("%s: warm-up: %w", w.name, warm.firstErr))
	}

	var st loopStats
	var m *metricSet
	goruntime.GC()
	if !opt.trace {
		st = runLoop(inst, e, window)
		m = newMetrics(endToEnd)
		if n := float64(len(st.opMS)); n > 0 {
			q1, med, q3 := quartiles(st.opMS)
			d.Quartiles, d.Samples = map[string][2]float64{"op_ms_p50": {q1, q3}}, len(st.opMS)
			m.set("op_ms_p50", med)
			m.set("ops_per_s", n/st.elapsed.Seconds())
			m.set("cpu_ms_per_op", float64(st.cpu)/1e6/n)
			m.set("allocs_per_op", float64(st.mallocs)/n)
			m.set("kb_per_op", float64(st.bytes)/1024/n)
		}
		m.set("setup_s", median(setups))
	} else {
		// A short untraced loop first, so the tracing overhead is the
		// difference between two loops of the same process.
		plain := runLoop(inst, e, window/4)
		if plain.firstErr != nil {
			return fail(fmt.Errorf("%s: untraced loop: %w", w.name, plain.firstErr))
		}
		e.tr = newTracer()
		st = runLoop(inst, e, window/4)
		m = newMetrics(perLayer)
		if st.firstErr == nil {
			if err := inst.layers(window/2, m); err != nil {
				st.failed++
				st.firstErr = fmt.Errorf("layer probes: %w", err)
			}
		}
		m.set("harness.calib_matmul256_ms", calibMatMul256())
		m.set("harness.op_ms_p90", percentile(st.opMS, 90))
		m.set("harness.op_ms_max", percentile(st.opMS, 100))
		m.set("harness.samples", float64(len(st.opMS)))
		if base := median(plain.opMS); base > 0 {
			m.set("harness.trace_overhead_pct", (median(st.opMS)/base-1)*100)
		}
		m.set("harness.gc_pause_ms", float64(st.gcPause)/1e6)
		rss := peakRSSKB()
		if _, childKB := e.child.snapshot(); childKB > 0 {
			rss = childKB // a multi-process workload: its largest program process
		}
		m.set("harness.peak_rss_mb", float64(rss)/1024)
		m.set("harness.nproc", float64(goruntime.NumCPU()))
		m.set("harness.fail_share", float64(st.failed)/float64(st.attempted))
		if opt.traceDir != "" {
			if err := e.tr.writeChrome(opt.traceDir, w.name); err != nil {
				return fail(err)
			}
		}
	}

	cerr := inst.close()
	inst = nil
	if cerr != nil && st.firstErr == nil {
		st.failed++
		st.firstErr = fmt.Errorf("close: %w", cerr)
	}
	d.Output = output{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m.fill()}
	if st.firstErr != nil {
		return fail(fmt.Errorf("%s: %d of %d ops failed, first: %w", w.name, st.failed, st.attempted, st.firstErr))
	}
	return d, nil
}
