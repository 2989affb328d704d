// Package experiments regenerates every table and figure of the paper's
// evaluation (§2–§5) from this reproduction's analytic models, simulator and
// runtime. Each experiment writes a text table; EXPERIMENTS.md records the
// paper-vs-measured comparison. Absolute numbers differ (the substrate is a
// simulator, not the authors' clusters); the shapes are what must hold.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	Name  string // e.g. "fig1"
	Title string
	Run   func(w io.Writer) error
}

var registry = map[string]Experiment{}

// AutoTuneWorkers bounds the worker pool of the fig10 configuration
// search: 0 (default) means one worker per CPU, 1 forces the serial sweep.
// cmd/hanayo-bench threads its -workers flag here.
var AutoTuneWorkers int

// AutoTunePrune routes the fig10 search through the memory-first OOM
// front end (SearchSpace.Prune): infeasible cells skip the timing
// simulation entirely, and the output is unchanged — OOM rows report the
// same exact peak. cmd/hanayo-bench threads its -prune flag here.
var AutoTunePrune bool

// AutoTuneTopK, when positive, runs the fig10 search as a bound-and-prune
// branch-and-bound (SearchSpace.TopK): the first TopK ranks stay exact
// while provably losing cells skip or abort their simulation, reporting
// only a proven throughput upper bound. cmd/hanayo-bench threads its
// -topk flag here.
var AutoTuneTopK int

// Straggler, when non-empty, perturbs the fig10 search cluster with a
// "dev:factor" spec (cluster.ApplyStraggler) — the -straggler sweep
// axis of cmd/hanayo-bench, for asking "would the paper's pick survive
// this machine running slow?" without editing presets.
var Straggler string

// ExtraScheme, when non-empty, appends one scheme to the fig10 search's
// default set (core.DefaultSchemes) — the -scheme flag of
// cmd/hanayo-bench, for sweeping the zero-bubble zbh1 alongside the
// paper's trio without unfreezing the committed Fig 10 tables.
var ExtraScheme string

// Faults, when non-nil, injects a fault plan into the fig10 search
// (SearchSpace.Faults): cmd/hanayo-bench parses its -faultplan JSON
// file into this. Failed cells surface as FAIL rows with a recovery
// estimate, not errors.
var Faults *sim.FaultPlan

// Events, when non-nil, replaces xtr03's default membership-churn stream:
// cmd/hanayo-bench parses its -events JSON file (cluster.ParseEvents)
// into this.
var Events []cluster.Event

func register(name, title string, run func(w io.Writer) error) {
	registry[name] = Experiment{Name: name, Title: title, Run: run}
}

// Names lists registered experiments in order.
func Names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns an experiment by name.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Run executes one experiment by name.
func Run(name string, w io.Writer) error {
	e, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	fmt.Fprintf(w, "=== %s — %s ===\n", e.Name, e.Title)
	return e.Run(w)
}

// RunAll executes every experiment in name order.
func RunAll(w io.Writer) error {
	for _, n := range Names() {
		if err := Run(n, w); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
