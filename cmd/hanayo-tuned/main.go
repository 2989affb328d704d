// Command hanayo-tuned runs the distributed configuration sweep: a shared
// cache tier, sharded worker sweeps, and the merge that reassembles the
// single-process ranking bit for bit.
//
// Usage:
//
//	hanayo-tuned -serve -addr :7070 -snapshot tier.snap   # the shared cache tier
//	hanayo-tuned -worker -shard 0 -of 2 -remote host:7070 -o shard0.json
//	hanayo-tuned -worker -shard 1 -of 2 -remote host:7070 -o shard1.json
//	hanayo-tuned -merge shard0.json shard1.json           # full AutoTune ranking
//
// Each worker evaluates a contiguous, work-balanced slice of the
// (scheme, P, B) candidate grid (SearchSpace.Shard) through its own Tuner,
// publishing every evaluation to the shared tier under the stable 64-bit
// key hash. Workers write their slice in grid order as JSON, stamped with
// the fingerprint of the cluster they swept; -merge refuses files whose
// sweeps differ, concatenates the rest (in shard order) back into the
// exact single-process grid and applies the identical ranking sort, so the
// merged table equals what one process running plain AutoTune would
// print. Because the tier outlives the workers, repeating a sweep — from
// any process, sharded or not — costs zero simulations; workers report the
// simulations they actually issued in the JSON (`sims`) and on stderr.
//
// The tier scales out by running several -serve processes and passing the
// worker a comma-separated -remote list: workers hash every key onto the
// same consistent-hash ring (replicated -replicas ways), so the fleet
// shards one logical cache with no coordinator and survives node loss.
// With -snapshot, a serve process restores its contents at startup and
// writes them back on SIGINT/SIGTERM, so a tier restart stays warm.
//
// With -topk N, each worker runs its shard as a bound-and-prune search:
// the cutoff is shard-local, so every shard's top N stays exact and the
// merged ranking's first N rows still equal the exhaustive single-process
// sweep. Bound-pruned cells carry only a proven throughput ceiling
// (`bound`) and are never published to the shared tier; workers count
// them in the JSON (`bound_pruned`) next to `sims`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
)

func main() {
	serve := flag.Bool("serve", false, "run the shared cache tier")
	addr := flag.String("addr", ":7070", "listen address for -serve")
	entries := flag.Int("entries", 0, "cache-tier entry bound for -serve (0 = 65536)")
	snapshot := flag.String("snapshot", "", "snapshot file for -serve: restored at startup if present, written on SIGINT/SIGTERM")

	worker := flag.Bool("worker", false, "run one shard of the sweep")
	shard := flag.Int("shard", 0, "shard index for -worker (0-based)")
	of := flag.Int("of", 1, "total shard count for -worker")
	remote := flag.String("remote", "", "cache-tier addresses for -worker, comma-separated (host:port,...); empty = no shared tier")
	replicas := flag.Int("replicas", 2, "replication factor across -remote nodes (used when several are given)")
	clName := flag.String("cluster", "tacc", "cluster preset (tacc, tc, pc, fc)")
	devices := flag.Int("devices", 32, "cluster size")
	modelName := flag.String("model", "bert", "model preset (bert, gpt)")
	b := flag.Int("b", 16, "micro-batches per replica")
	rows := flag.Int("rows", 2, "sequences per micro-batch")
	prune := flag.Bool("prune", false, "memory-first OOM pruning")
	topk := flag.Int("topk", 0, "bound-and-prune search keeping this many exact ranks per shard (0 = exhaustive)")
	workers := flag.Int("workers", 0, "sweep worker goroutines: 0 = one per CPU")
	events := flag.String("events", "", "worker: apply a JSON membership-event stream file (leave/join/speed/link) to the preset cluster before sweeping")
	out := flag.String("o", "", "worker output file (default stdout)")

	merge := flag.Bool("merge", false, "merge worker shard files (in shard order) into the full ranking")
	flag.Parse()

	var err error
	switch {
	case *serve:
		err = runServe(*addr, *entries, *snapshot)
	case *worker:
		err = runWorker(workerConfig{
			shard: *shard, of: *of, remote: *remote, replicas: *replicas,
			cluster: *clName, devices: *devices, model: *modelName,
			b: *b, rows: *rows, prune: *prune, topk: *topk, workers: *workers,
			events: *events, out: *out,
		})
	case *merge:
		err = runMerge(flag.Args(), os.Stdout)
	default:
		err = fmt.Errorf("pick a mode: -serve, -worker or -merge (see -h)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanayo-tuned:", err)
		os.Exit(1)
	}
}

func runServe(addr string, entries int, snapshot string) error {
	srv, restored, err := serverFor(snapshot, entries)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout first thing: scripts (and the
	// integration test) bind ":0" and scrape the real port from this line.
	fmt.Printf("hanayo-tuned: cache tier listening on %s\n", l.Addr())
	if restored > 0 {
		fmt.Printf("hanayo-tuned: restored %d entries from %s\n", restored, snapshot)
	}
	if snapshot != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if err := writeSnapshot(srv, snapshot); err != nil {
				fmt.Fprintln(os.Stderr, "hanayo-tuned: snapshot:", err)
			} else {
				fmt.Printf("hanayo-tuned: snapshot of %d entries written to %s\n", srv.Len(), snapshot)
			}
			srv.Close() // Serve returns nil and the process exits cleanly
		}()
	}
	return srv.Serve(l)
}

// serverFor builds the tier store: warm from a snapshot when one exists
// at path, cold otherwise. A snapshot that exists but fails to restore is
// an error, not a silent cold start — the operator asked for that state.
func serverFor(path string, entries int) (srv *cachewire.Server, restored int, err error) {
	if path != "" {
		f, err := os.Open(path)
		if err == nil {
			defer f.Close()
			srv, err := cachewire.NewServerFromSnapshot(f, entries)
			if err != nil {
				return nil, 0, fmt.Errorf("restoring %s: %w", path, err)
			}
			return srv, srv.Len(), nil
		}
		if !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	return cachewire.NewServer(entries), 0, nil
}

// writeSnapshot writes atomically — temp file in the target directory,
// then rename — so a crash mid-write leaves the previous snapshot intact
// and a restart never sees a truncated file.
func writeSnapshot(srv *cachewire.Server, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := srv.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

type workerConfig struct {
	shard, of        int
	remote           string
	replicas         int
	cluster          string
	devices          int
	model            string
	b, rows, workers int
	topk             int
	prune            bool
	events           string
	out              string
}

// shardFile is the worker's JSON output: enough header to let -merge
// check the files describe one coherent partition, the candidates in grid
// order, and the number of simulations the worker actually issued (0 when
// the shared tier already held every key).
type shardFile struct {
	Shard   int    `json:"shard"`
	Of      int    `json:"of"`
	Cluster string `json:"cluster"`
	Devices int    `json:"devices"`
	// Fingerprint is the swept cluster's (after any -events) in hex: it
	// tells -merge two shards ranked the same cluster, and its absence
	// marks a file from a binary whose shards do not concatenate.
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model"`
	B           int    `json:"b"`
	MicroRows   int    `json:"micro_rows"`
	Prune       bool   `json:"prune"`
	TopK        int    `json:"topk,omitempty"`
	Events      int    `json:"events,omitempty"`
	Sims        int64  `json:"sims"`
	BoundPruned int64  `json:"bound_pruned,omitempty"`
	// CacheNodes reports the shared tier's per-node health as the worker
	// saw it: hard errors and probe-gate skips (cachewire.NodeErrors), so
	// a degraded fleet is visible in the artifact, not just on stderr.
	CacheNodes []cachewire.NodeErrors `json:"cache_nodes,omitempty"`
	Candidates []wireCandidate        `json:"candidates"`
}

// wireCandidate is the JSON form of one core.Candidate. Floats survive
// encoding/json exactly (shortest round-tripping decimal), so merged
// rankings stay bit-for-bit comparable to in-process sweeps.
type wireCandidate struct {
	Scheme      string  `json:"scheme"`
	P           int     `json:"p"`
	D           int     `json:"d"`
	B           int     `json:"b"`
	Throughput  float64 `json:"throughput"`
	PeakGB      float64 `json:"peak_gb"`
	OOM         bool    `json:"oom,omitempty"`
	Pruned      bool    `json:"pruned,omitempty"`
	BoundPruned bool    `json:"bound_pruned,omitempty"`
	Bound       float64 `json:"bound,omitempty"`
	Err         string  `json:"err,omitempty"`
}

func toWire(cands []core.Candidate) []wireCandidate {
	out := make([]wireCandidate, len(cands))
	for i, c := range cands {
		out[i] = wireCandidate{
			Scheme: c.Plan.Scheme, P: c.Plan.P, D: c.Plan.D, B: c.Plan.B,
			Throughput: c.Throughput, PeakGB: c.PeakGB, OOM: c.OOM, Pruned: c.Pruned,
			BoundPruned: c.BoundPruned, Bound: c.Bound,
		}
		if c.Err != nil {
			out[i].Err = c.Err.Error()
		}
	}
	return out
}

func fromWire(cands []wireCandidate) []core.Candidate {
	out := make([]core.Candidate, len(cands))
	for i, c := range cands {
		out[i] = core.Candidate{
			Plan:       core.Plan{Scheme: c.Scheme, P: c.P, D: c.D, B: c.B},
			Throughput: c.Throughput, PeakGB: c.PeakGB, OOM: c.OOM, Pruned: c.Pruned,
			BoundPruned: c.BoundPruned, Bound: c.Bound,
		}
		if c.Err != "" {
			out[i].Err = fmt.Errorf("%s", c.Err)
		}
	}
	return out
}

func modelByName(name string) (nn.Config, error) {
	switch name {
	case "bert":
		return nn.BERTStyle(), nil
	case "gpt":
		return nn.GPTStyle(), nil
	default:
		return nn.Config{}, fmt.Errorf("unknown model %q (bert, gpt)", name)
	}
}

func runWorker(cfg workerConfig) error {
	if cfg.shard < 0 || cfg.of < 1 || cfg.shard >= cfg.of {
		return fmt.Errorf("-shard %d -of %d is not a valid assignment", cfg.shard, cfg.of)
	}
	if cfg.b < 1 {
		return fmt.Errorf("-b must be a positive integer, got %d", cfg.b)
	}
	if cfg.rows < 1 {
		return fmt.Errorf("-rows must be a positive integer, got %d", cfg.rows)
	}
	cl, err := cluster.ByName(cfg.cluster, cfg.devices)
	if err != nil {
		return err
	}
	nEvents := 0
	if cfg.events != "" {
		raw, err := os.ReadFile(cfg.events)
		if err != nil {
			return err
		}
		evs, err := cluster.ParseEvents(raw)
		if err != nil {
			return err
		}
		// Fold the stream: the sweep ranks the final membership state. All
		// shards must be given the same stream: the file records the folded
		// cluster's fingerprint, and -merge rejects a mixed partition.
		states, err := cluster.ApplyEvents(cl, evs)
		if err != nil {
			return err
		}
		if len(states) > 0 {
			cl = states[len(states)-1]
		}
		nEvents = len(evs)
	}
	model, err := modelByName(cfg.model)
	if err != nil {
		return err
	}
	opts := core.TunerOptions{}
	var ring *cachewire.Ring
	if cfg.remote != "" {
		addrs := strings.Split(cfg.remote, ",")
		if len(addrs) == 1 {
			client, err := cachewire.Dial(addrs[0])
			if err != nil {
				return fmt.Errorf("cache tier: %w", err)
			}
			defer client.Close()
			opts.Remote = client
		} else {
			ring, err = cachewire.DialRing(cfg.replicas, addrs...)
			if err != nil {
				return fmt.Errorf("cache tier: %w", err)
			}
			defer ring.Close()
			opts.Remote = ring
		}
	}
	tuner := core.NewTuner(opts)
	space := core.SearchSpace{
		B: cfg.b, MicroRows: cfg.rows, Prune: cfg.prune, TopK: cfg.topk, Workers: cfg.workers,
	}.Shard(cfg.shard, cfg.of)

	start := time.Now()
	before := core.SimRuns()
	cands := tuner.AutoTuneShard(cl, model, space)
	sims := core.SimRuns() - before
	var boundPruned int64
	for _, c := range cands {
		if c.BoundPruned {
			boundPruned++
		}
	}

	file := shardFile{
		Shard: cfg.shard, Of: cfg.of,
		Cluster: cfg.cluster, Devices: cfg.devices, Fingerprint: fingerprint(cl), Model: cfg.model,
		B: cfg.b, MicroRows: cfg.rows, Prune: cfg.prune, TopK: cfg.topk,
		Events: nEvents, Sims: sims, BoundPruned: boundPruned,
		Candidates: toWire(cands),
	}
	if ring != nil {
		file.CacheNodes = ring.Errors()
	}
	w := os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hanayo-tuned: shard %d/%d on %s×%d: %d candidates, %d simulations, %d bound-pruned, %v (remote errors: %d)\n",
		cfg.shard, cfg.of, cfg.cluster, cfg.devices, len(cands), sims, boundPruned,
		time.Since(start).Round(time.Millisecond), tuner.RemoteErrors())
	for _, ne := range file.CacheNodes {
		if ne.Errors > 0 || ne.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "hanayo-tuned: cache node %s degraded: %d errors, %d skipped\n",
				ne.Name, ne.Errors, ne.Skipped)
		}
	}
	return nil
}

func fingerprint(cl *cluster.Cluster) string { return strconv.FormatUint(cl.Fingerprint(), 16) }

func runMerge(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs the shard files, in shard order")
	}
	parts := make([][]core.Candidate, len(paths))
	var head shardFile
	var sims int64
	for i, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var sf shardFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if sf.Shard != i {
			return fmt.Errorf("%s holds shard %d but sits at position %d — pass files in shard order", path, sf.Shard, i)
		}
		if sf.Of != len(paths) {
			return fmt.Errorf("%s is shard %d of %d, but %d files were given", path, sf.Shard, sf.Of, len(paths))
		}
		if sf.Fingerprint == "" {
			return fmt.Errorf("%s has no cluster fingerprint: an older hanayo-tuned wrote it, and its shards do not merge with these; rerun its worker", path)
		}
		if i == 0 {
			head = sf
		} else if sf.Cluster != head.Cluster || sf.Devices != head.Devices || sf.Fingerprint != head.Fingerprint ||
			sf.Model != head.Model || sf.B != head.B || sf.MicroRows != head.MicroRows ||
			sf.Prune != head.Prune || sf.TopK != head.TopK {
			return fmt.Errorf("%s describes a different sweep than %s", path, paths[0])
		}
		parts[i] = fromWire(sf.Candidates)
		sims += sf.Sims
	}
	merged := core.MergeShards(parts...)

	fmt.Fprintf(w, "merged %d shards on %s×%d (%s, B=%d, rows=%d): %d candidates, %d simulations total\n",
		len(paths), head.Cluster, head.Devices, head.Model, head.B, head.MicroRows, len(merged), sims)
	fmt.Fprintf(w, "%4s  %-14s %4s %4s %12s %9s\n", "rank", "scheme", "P", "D", "seq/s", "peak GB")
	for i, c := range merged {
		switch {
		case c.Err != nil:
			fmt.Fprintf(w, "%4d  %-14s %4d %4d %12s %9s  (%v)\n", i+1, c.Plan.Scheme, c.Plan.P, c.Plan.D, "error", "-", c.Err)
		case c.BoundPruned:
			// Eliminated by the TopK bound: only the proven ceiling is known.
			fmt.Fprintf(w, "%4d  %-14s %4d %4d %12s %9s\n", i+1, c.Plan.Scheme, c.Plan.P, c.Plan.D,
				fmt.Sprintf("<%.2f", c.Bound), "-")
		case c.OOM:
			fmt.Fprintf(w, "%4d  %-14s %4d %4d %12s %9.1f\n", i+1, c.Plan.Scheme, c.Plan.P, c.Plan.D, "OOM", c.PeakGB)
		default:
			fmt.Fprintf(w, "%4d  %-14s %4d %4d %12.2f %9.1f\n", i+1, c.Plan.Scheme, c.Plan.P, c.Plan.D, c.Throughput, c.PeakGB)
		}
	}
	if best, ok := core.Best(merged); ok {
		fmt.Fprintf(w, "winner: %s P=%d D=%d B=%d (%.2f seq/s, %.1f GB peak)\n",
			best.Plan.Scheme, best.Plan.P, best.Plan.D, best.Plan.B, best.Throughput, best.PeakGB)
	}
	return nil
}
