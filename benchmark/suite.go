package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// envInfo is recorded in every output file, so numbers are never read
// without the machine and settings that produced them.
type envInfo struct {
	Generated        string  `json:"generated"`
	GoVersion        string  `json:"go_version"`
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Commit           string  `json:"git_commit"`
	Seed             uint64  `json:"seed"`
	Seconds          float64 `json:"window_seconds"`
	CalibMatMul256MS float64 `json:"harness.calib_matmul256_ms"`
}

// setPasses is how many untraced passes of each workload one set makes. A
// single pass repeats within a percent or two inside itself and by ten times
// that against the next pass, so the noise a difference is held against is
// the spread of these passes, and five is the fewest whose quartiles are
// passes that ran rather than interpolations.
const setPasses = 5

// suiteFile is one set: setPasses untraced passes and one traced pass per
// workload, each in its own child process so memory and CPU are per
// workload.
type suiteFile struct {
	Env    envInfo  `json:"env"`
	Passes []detail `json:"passes"`
}

// passValues are one metric's values over a set's passes of one workload.
func (f *suiteFile) passValues(workload string, trace bool, metric string) []float64 {
	var values []float64
	for i := range f.Passes {
		if d := &f.Passes[i]; d.Workload == workload && d.Trace == trace {
			values = append(values, d.Output.Metrics[metric].Value)
		}
	}
	return values
}

// spreadOf is the run-to-run spread of repeated values: the distance
// between their quartiles as a share of their median, 0 for a single value.
func spreadOf(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// collect measures sets sets of every workload (or the one opt names) as
// child processes of this binary, one at a time: per workload the untraced
// pass setPasses times, then the traced pass. The sets take turns pass by
// pass, so a slow quarter of an hour on a shared machine falls on all of
// them alike — the alternation a claim is measured with.
func collect(opt options, sets int) ([]*suiteFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.scratch, "suite-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stop := trapSignals(func() { os.RemoveAll(dir) })
	defer stop()

	files := make([]*suiteFile, sets)
	for i := range files {
		files[i] = &suiteFile{Env: envInfo{
			Generated: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: gitCommit(),
			Seed: opt.seed, Seconds: opt.seconds, CalibMatMul256MS: calibMatMul256(),
		}}
	}
	var failed []string
	for _, w := range workloads {
		if opt.workload != "" && opt.workload != w.name {
			continue
		}
		for i := 0; i < (setPasses+1)*sets; i++ {
			f := files[i%sets]
			trace := 0
			if i >= setPasses*sets {
				trace = 1
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, i))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(opt.seed),
				"-seconds", fmt.Sprint(opt.seconds), "-trace", fmt.Sprint(trace),
				"-scratch", opt.scratch, "-detail", path}
			if opt.traceDir != "" {
				args = append(args, "-tracedir", opt.traceDir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr // its result line is in the detail file; drop stdout
			if err := startProc(cmd); err != nil {
				return nil, err
			}
			runErr := reap(cmd, nil)
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d): no result: %v", w.name, trace, runErr)
			}
			var d detail
			if err := json.Unmarshal(raw, &d); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			f.Passes = append(f.Passes, d)
			if runErr != nil || !d.Output.Correct {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %s", w.name, trace, d.Error))
			}
			if sets > 1 {
				fmt.Printf("set %d: ", i%sets+1)
			}
			printPass(&d)
		}
	}
	if len(failed) > 0 {
		return files, fmt.Errorf("%d passes failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return files, nil
}

// printPass prints every metric of a pass by name with its unit.
func printPass(d *detail) {
	kind := "end-to-end, tracing off"
	if d.Trace {
		kind = "per layer, traced"
	}
	fmt.Printf("%s  [%s; seed %d; %d ops, %d failed]\n", d.Workload, kind, d.Inputs.Seed,
		d.Output.Attempted, d.Output.Failed)
	names := make([]string, 0, len(d.Output.Metrics))
	for name := range d.Output.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mt := d.Output.Metrics[name]
		if d.Trace && mt.Value == 0 {
			continue // a layer this workload's op never enters
		}
		line := fmt.Sprintf("  %-34s %14.6g %s", name, mt.Value, mt.Unit)
		if q, ok := d.Quartiles[name]; ok {
			line += fmt.Sprintf("   (quartiles %.6g .. %.6g)", q[0], q[1])
		}
		fmt.Println(line)
	}
}

func writeSuite(f *suiteFile, path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readSuite(path string) (*suiteFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func runSuite(opt options, out string) error {
	files, err := collect(opt, 1)
	if files == nil {
		return err
	}
	printSummary(files[0])
	if out != "" {
		if werr := writeSuite(files[0], out); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// printSummary prints, per workload, each end-to-end metric's median over
// the set's passes with their quartiles and spread.
func printSummary(f *suiteFile) {
	fmt.Printf("\n%-16s %-16s %14s %14s %14s %7s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, w := range workloads {
		for _, def := range endToEnd {
			values := f.passValues(w.name, false, def.Name)
			if len(values) == 0 {
				continue
			}
			q1, med, q3 := quartiles(values)
			fmt.Printf("%-16s %-16s %14.6g %14.6g %14.6g %6.1f%%  %s, %d passes\n",
				w.name, def.Name, q1, med, q3, spreadOf(values)*100, def.Unit, len(values))
		}
	}
}

// verdict classifies b against a for one metric. Exact counts compare
// exactly. A measured value may move by the metric's bound in either
// direction and still be within-bound — unless the run-to-run spread of
// either side's passes is wider than the bound, which makes the pair
// unresolved, never unchanged.
func verdict(def metricDef, a, b, spread float64) string {
	if def.Exact {
		if a == b {
			return "within-bound"
		}
		return "differs"
	}
	if a == 0 {
		if b == 0 {
			return "within-bound"
		}
		return "unresolved"
	}
	if spread > def.Bound {
		return "unresolved"
	}
	worse := (b - a) / a
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return "worse"
	case worse < -def.Bound:
		return "better"
	}
	return "within-bound"
}

// comparison is one (workload, metric) row of a -compare report.
type comparison struct {
	Workload, Metric string
	A, B, Spread     float64 // Spread: the wider of the two sides' run-to-run spreads
	Exact            bool
	Verdict          string
}

// compareSuites classifies every (workload, end-to-end metric) pair, and
// every exact per-layer count, which must repeat between runs of one seed.
func compareSuites(a, b *suiteFile) []comparison {
	var out []comparison
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, def := range defs {
				if trace && !def.Exact {
					continue
				}
				va, vb := a.passValues(w.name, trace, def.Name), b.passValues(w.name, trace, def.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				c := comparison{Workload: w.name, Metric: def.Name, A: median(va), B: median(vb),
					Spread: max(spreadOf(va), spreadOf(vb)), Exact: def.Exact}
				c.Verdict = verdict(def, c.A, c.B, c.Spread)
				out = append(out, c)
			}
		}
	}
	return out
}

// printComparisons prints every end-to-end pair and the exact counts that
// differ, and returns how many pairs got each verdict.
func printComparisons(cs []comparison) map[string]int {
	fmt.Printf("%-16s %-34s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "B/A-1", "spread", "verdict")
	counts := map[string]int{}
	identical := 0
	for _, c := range cs {
		counts[c.Verdict]++
		if c.Exact && c.Verdict == "within-bound" {
			identical++
			continue
		}
		rel := 0.0
		if c.A != 0 {
			rel = c.B/c.A - 1
		}
		fmt.Printf("%-16s %-34s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", c.Workload, c.Metric, c.A, c.B, rel*100, c.Spread*100, c.Verdict)
	}
	fmt.Printf("%d exact per-layer counts identical; end-to-end pairs: %d within-bound, %d unresolved, %d better, %d worse\n",
		identical, counts["within-bound"]-identical, counts["unresolved"], counts["better"], counts["worse"])
	return counts
}

func runCompare(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files")
	}
	a, err := readSuite(paths[0])
	if err != nil {
		return err
	}
	b, err := readSuite(paths[1])
	if err != nil {
		return err
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Seconds != b.Env.Seconds {
		fmt.Printf("note: A ran seed %d for %gs, B seed %d for %gs; numbers compare only between runs of one seed and window\n",
			a.Env.Seed, a.Env.Seconds, b.Env.Seed, b.Env.Seconds)
	}
	counts := printComparisons(compareSuites(a, b))
	if n := counts["worse"] + counts["differs"]; n > 0 {
		return fmt.Errorf("%d pairs are worse than their bound allows or differ in an exact count", n)
	}
	return nil
}

// runSelfcheck is the agreement criterion: two sets of the same code and
// seed, measured in turns, must have no pair outside its bound and every
// exact count identical. A pair whose own passes spread wider than its
// bound is unresolved — reported, and neither agreement nor disagreement.
func runSelfcheck(opt options) error {
	sets, err := collect(opt, 2)
	if err != nil {
		return err
	}
	counts := printComparisons(compareSuites(sets[0], sets[1]))
	if n := counts["worse"] + counts["better"] + counts["differs"]; n > 0 {
		return fmt.Errorf("selfcheck: %d pairs of the same code are outside their bound", n)
	}
	fmt.Printf("selfcheck: no pair outside its bound, %d unresolved\n", counts["unresolved"])
	return nil
}

// trapSignals runs cleanup, kills and reaps every child, and exits when
// the process is interrupted or terminated. The returned stop function
// ends the watch.
func trapSignals(cleanup func()) (stop func()) {
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			shutdown()
			cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}
