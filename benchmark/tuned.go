package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
)

// live tracks every child process the benchmark has started and not yet
// reaped, so a signal or a failed check can kill and wait for them all.
var live struct {
	mu     sync.Mutex
	procs  map[*exec.Cmd]struct{}
	closed bool // shutting down: start nothing more
}

func startProc(cmd *exec.Cmd) error {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.closed {
		return errors.New("shutting down")
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if live.procs == nil {
		live.procs = map[*exec.Cmd]struct{}{}
	}
	live.procs[cmd] = struct{}{}
	return nil
}

// reap waits for cmd and, when stats is non-nil, books its CPU and peak
// memory to the workload.
func reap(cmd *exec.Cmd, stats *childStats) error {
	err := cmd.Wait()
	live.mu.Lock()
	delete(live.procs, cmd)
	live.mu.Unlock()
	if stats != nil {
		stats.add(cmd.ProcessState)
	}
	return err
}

// shutdown is the signal path: no process may be started from now on (the
// interrupted loop is still running and would try), and the live ones die.
func shutdown() {
	live.mu.Lock()
	live.closed = true
	live.mu.Unlock()
	killChildren()
}

// killChildren terminates every live child and waits until each has ended.
func killChildren() {
	live.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(live.procs))
	for c := range live.procs {
		cmds = append(cmds, c)
	}
	live.mu.Unlock()
	// SIGTERM, not SIGKILL: a full run's children are workload processes
	// that must get to stop their own hanayo-tuned children.
	for _, c := range cmds {
		c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range cmds {
		reap(c, nil)
	}
}

// runProc runs a program to completion and returns its standard output;
// a failure carries the program's standard error.
func runProc(stats *childStats, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := startProc(cmd); err != nil {
		return nil, err
	}
	if err := reap(cmd, stats); err != nil {
		return stdout.Bytes(), fmt.Errorf("%s %s: %w\n%s", filepath.Base(name), strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes(), nil
}

// shardFile is the part of hanayo-tuned's worker output the checks read.
type shardFile struct {
	Sims       int64 `json:"sims"`
	Candidates []struct {
		Scheme     string  `json:"scheme"`
		P          int     `json:"p"`
		D          int     `json:"d"`
		Throughput float64 `json:"throughput"`
		PeakGB     float64 `json:"peak_gb"`
		OOM        bool    `json:"oom"`
		Err        string  `json:"err"`
	} `json:"candidates"`
}

func (sf *shardFile) rows() []row {
	out := make([]row, len(sf.Candidates))
	for i, c := range sf.Candidates {
		out[i] = row{Scheme: c.Scheme, P: c.P, D: c.D, Thr: math.Float64bits(c.Throughput),
			PeakGB: math.Float64bits(c.PeakGB), OOM: c.OOM, Err: c.Err != ""}
	}
	return out
}

// round is what one serve-side sweep round produced and cost.
type round struct {
	files    [2]string // the workers' outputs, parsed by load
	shards   [2]shardFile
	merged   string
	elapsed  time.Duration
	workers  [2]time.Duration
	mergeDur time.Duration
}

func (r *round) sims() int64 { return r.shards[0].Sims + r.shards[1].Sims }

// tunedInst is tuned_round: the distributed sweep an operator runs, as
// real hanayo-tuned processes on the CLI's default grid.
type tunedInst struct {
	e      *env
	dir    string
	bin    string
	events string

	wantShards [2][]row // in-process AutoTuneShard output, grid order
	wantSims   int64
	wantBest   string

	ready      time.Duration
	cold, warm round
	// phase durations of every op so far, for layers
	readyMS, coldMS, warmMS, maxMS, minMS, mergeMS []float64
}

func tunedWorkload(name, why string) workload {
	return workload{name: name, why: why, setup: func(e *env) (instance, error) {
		dir, err := os.MkdirTemp(e.scratch, "tuned-")
		if err != nil {
			return nil, err
		}
		s := &tunedInst{e: e, dir: dir, bin: filepath.Join(dir, "hanayo-tuned"),
			events: filepath.Join(dir, "events.json")}
		// The toolchain's own cost is set-up, not the program's: it is
		// timed by setup_s and kept out of the child statistics.
		if _, err := runProc(nil, "go", "build", "-o", s.bin, "repro/cmd/hanayo-tuned"); err != nil {
			return nil, err
		}
		ev := cluster.Event{Kind: cluster.SpeedChange, Dev: e.in.StragDev, Factor: e.in.StragFactor}
		raw, err := json.Marshal(map[string][]cluster.Event{"events": {ev}})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(s.events, raw, 0o644); err != nil {
			return nil, err
		}

		// The reference: the same two shards swept in this process, which
		// must merge to the unsharded ranking.
		cl, err := cluster.TACC(32).Apply(ev)
		if err != nil {
			return nil, err
		}
		space := core.SearchSpace{B: 16, MicroRows: 2, Workers: 1}
		var parts [2][]core.Candidate
		before := core.SimRuns()
		for i := range parts {
			parts[i] = core.AutoTuneShard(cl, nn.BERTStyle(), space.Shard(i, 2))
			s.wantShards[i] = rowsOf(parts[i])
		}
		s.wantSims = core.SimRuns() - before
		merged := core.MergeShards(parts[0], parts[1])
		if err := sameRows("merged shards vs unsharded sweep", rowsOf(merged),
			rowsOf(core.AutoTune(cl, nn.BERTStyle(), space)), 0); err != nil {
			return nil, err
		}
		if best, ok := core.Best(merged); ok {
			s.wantBest = fmt.Sprintf("winner: %s P=%d D=%d B=%d", best.Plan.Scheme, best.Plan.P, best.Plan.D, best.Plan.B)
		}
		return s, nil
	}}
}

func (s *tunedInst) prep() error { return nil }

// serve starts the cache tier and returns once it has printed its address.
func (s *tunedInst) serve() (*exec.Cmd, string, error) {
	cmd := exec.Command(s.bin, "-serve", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := startProc(cmd); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() || !strings.Contains(sc.Text(), "listening on ") {
		cmd.Process.Kill()
		reap(cmd, &s.e.child)
		return nil, "", fmt.Errorf("hanayo-tuned -serve printed no listen address: %q\n%s", sc.Text(), stderr.Bytes())
	}
	line := sc.Text()
	go io.Copy(io.Discard, stdout) // ends when the process does
	return cmd, line[strings.LastIndex(line, " ")+1:], nil
}

// sweepRound runs both shard workers at once, then the merge.
func (s *tunedInst) sweepRound(addr, tag string) (round, error) {
	var r round
	t0 := time.Now()
	var errs [2]error
	var wg sync.WaitGroup
	files := &r.files
	for i := range files {
		files[i] = filepath.Join(s.dir, fmt.Sprintf("%s-shard%d.json", tag, i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w0 := time.Now()
			_, errs[i] = runProc(&s.e.child, s.bin, "-worker", "-shard", fmt.Sprint(i), "-of", "2",
				"-workers", "1", "-cluster", "tacc", "-devices", "32", "-remote", addr,
				"-events", s.events, "-o", files[i])
			r.workers[i] = time.Since(w0)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return r, err
	}
	m0 := time.Now()
	merged, err := runProc(&s.e.child, s.bin, "-merge", files[0], files[1])
	if err != nil {
		return r, err
	}
	r.mergeDur, r.elapsed, r.merged = time.Since(m0), time.Since(t0), string(merged)
	return r, nil
}

// load parses the round's shard files (outside the timed op).
func (r *round) load() error {
	for i, f := range r.files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &r.shards[i]); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	return nil
}

func (s *tunedInst) op() error {
	tr := s.e.tr
	root := tr.begin("tuned.round")
	defer tr.end(root)
	base := tr.now()
	t0 := time.Now()
	srv, addr, err := s.serve()
	if err != nil {
		return err
	}
	s.ready = time.Since(t0)
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		reap(srv, &s.e.child) // "signal: terminated" is the expected end
	}()
	if s.cold, err = s.sweepRound(addr, "cold"); err != nil {
		return err
	}
	if s.warm, err = s.sweepRound(addr, "warm"); err != nil {
		return err
	}
	// Workers ran on their own goroutines; book their spans afterwards.
	at := s.ready.Seconds()
	tr.add("tuned.serve_ready", root, 0, base, 0, at)
	for _, r := range []*round{&s.cold, &s.warm} {
		for i, w := range r.workers {
			tr.add("tuned.worker", root, 10+i, base, at, at+w.Seconds())
		}
		tr.add("tuned.merge", root, 0, base, at+(r.elapsed-r.mergeDur).Seconds(), at+r.elapsed.Seconds())
		at += r.elapsed.Seconds()
	}
	s.readyMS = append(s.readyMS, ms(s.ready))
	s.coldMS = append(s.coldMS, ms(s.cold.elapsed))
	s.warmMS = append(s.warmMS, ms(s.warm.elapsed))
	s.maxMS = append(s.maxMS, ms(max(s.cold.workers[0], s.cold.workers[1])))
	s.minMS = append(s.minMS, ms(min(s.cold.workers[0], s.cold.workers[1])))
	s.mergeMS = append(s.mergeMS, ms(s.cold.mergeDur), ms(s.warm.mergeDur))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// belowHeader drops the merged table's first line, which names the
// simulation count — the one thing that differs between cold and warm.
func belowHeader(table string) string {
	_, rest, _ := strings.Cut(table, "\n")
	return rest
}

func (s *tunedInst) check() error {
	if err := errors.Join(s.cold.load(), s.warm.load()); err != nil {
		return err
	}
	for i := range s.wantShards {
		if err := sameRows(fmt.Sprintf("cold shard %d vs in-process", i), s.cold.shards[i].rows(), s.wantShards[i], 0); err != nil {
			return err
		}
		if err := sameRows(fmt.Sprintf("warm shard %d vs in-process", i), s.warm.shards[i].rows(), s.wantShards[i], 0); err != nil {
			return err
		}
	}
	if got := s.cold.sims(); got != s.wantSims {
		return fmt.Errorf("cold round issued %d simulations, in-process shards %d", got, s.wantSims)
	}
	if got := s.warm.sims(); got != 0 {
		return fmt.Errorf("warm round issued %d simulations, want 0", got)
	}
	if belowHeader(s.cold.merged) != belowHeader(s.warm.merged) {
		return fmt.Errorf("cold and warm merged tables differ below the header:\n%s\n%s", s.cold.merged, s.warm.merged)
	}
	if !strings.Contains(s.cold.merged, s.wantBest) {
		return fmt.Errorf("merged table lacks %q:\n%s", s.wantBest, s.cold.merged)
	}
	return nil
}

func (s *tunedInst) close() error {
	killChildren() // nothing outlives an op; this is the failed-op path
	return os.RemoveAll(s.dir)
}

func (s *tunedInst) layers(budget time.Duration, m *metricSet) error {
	m.set("tuned.serve_ready_ms", median(s.readyMS))
	m.set("tuned.cold_round_ms", median(s.coldMS))
	m.set("tuned.warm_round_ms", median(s.warmMS))
	m.set("tuned.worker_ms_max", median(s.maxMS))
	m.set("tuned.worker_ms_min", median(s.minMS))
	if lo := median(s.minMS); lo > 0 {
		m.set("tuned.shard_imbalance_x", median(s.maxMS)/lo)
	}
	m.set("tuned.merge_ms", median(s.mergeMS))
	m.set("tuned.cold_sims", float64(s.cold.sims()))
	m.set("tuned.warm_sims", float64(s.warm.sims()))
	best := 0.0
	for _, sh := range s.cold.shards {
		for _, c := range sh.Candidates {
			if !c.OOM && c.Err == "" && c.Throughput > best {
				best = c.Throughput
			}
		}
	}
	m.set("core.plan_seq_per_s", best)
	// A no-op invocation (no mode picked: usage error, exit 1) is the
	// floor process start puts under every worker and merge.
	d, _ := timeMedian(budget/4, 5, func() error {
		runProc(&s.e.child, s.bin)
		return nil
	})
	m.set("tuned.spawn_floor_ms", ms(d))
	return nil
}
