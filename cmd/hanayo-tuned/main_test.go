package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
)

// buildBinary compiles hanayo-tuned once per test binary into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hanayo-tuned")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startServer launches the real server process on an ephemeral port and
// scrapes the bound address from its first stdout line.
func startServer(t *testing.T, bin string) string {
	addr, _ := startServerCmd(t, bin)
	return addr
}

// startServerCmd is startServer with extra flags and the process handle —
// for tests that signal the server (snapshot shutdown) instead of just
// killing it at cleanup.
func startServerCmd(t *testing.T, bin string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-serve", "-addr", "127.0.0.1:0"}, extra...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			line := sc.Text()
			addrCh <- line[strings.LastIndex(line, " ")+1:]
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			t.Fatal("server printed no listen address")
		}
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("server did not come up")
	}
	panic("unreachable")
}

// testSweepArgs is the workload every process in the test sweeps: small
// enough to stay fast, rich enough to include a wave group.
var testSweepArgs = []string{"-cluster", "tacc", "-devices", "16", "-b", "8", "-rows", "1", "-workers", "2"}

func runWorkerProc(t *testing.T, bin, remote string, shard, of int, out string) shardFile {
	t.Helper()
	args := append([]string{"-worker", "-shard", fmt.Sprint(shard), "-of", fmt.Sprint(of), "-o", out}, testSweepArgs...)
	if remote != "" {
		args = append(args, "-remote", remote)
	}
	cmd := exec.Command(bin, args...)
	if o, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("worker %d/%d: %v\n%s", shard, of, err, o)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sf shardFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatalf("worker %d/%d output: %v", shard, of, err)
	}
	return sf
}

// inProcessWant is the single-process reference ranking for the test
// workload, in wire form (cluster pointers stripped) for comparison with
// whatever crossed process boundaries.
func inProcessWant(t *testing.T) []wireCandidate {
	t.Helper()
	cl := cluster.TACC(16)
	return toWire(core.AutoTune(cl, nn.BERTStyle(), core.SearchSpace{B: 8, MicroRows: 1, Workers: 2}))
}

// TestMultiProcessShardedSweep is the distributed sweep run as real
// processes: one cache-tier server, two concurrent shard workers, a
// merge — and the acceptance assertions that the merged ranking is
// bit-for-bit the single-process AutoTune and that a later full sweep
// from a fresh process issues zero simulations.
func TestMultiProcessShardedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildBinary(t)
	addr := startServer(t, bin)
	dir := t.TempDir()
	want := inProcessWant(t)

	// Two shard workers, concurrently — two terminals, one tier.
	const n = 2
	files := make([]string, n)
	shards := make([]shardFile, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		files[i] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i] = runWorkerProc(t, bin, addr, i, n, files[i])
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var simsTotal int64
	parts := make([][]core.Candidate, n)
	for i, sf := range shards {
		if sf.Shard != i || sf.Of != n {
			t.Fatalf("shard file %d claims %d/%d", i, sf.Shard, sf.Of)
		}
		simsTotal += sf.Sims
		parts[i] = fromWire(sf.Candidates)
	}
	if simsTotal == 0 {
		t.Fatal("cold shard workers must simulate")
	}
	merged := toWire(core.MergeShards(parts...))
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged cross-process ranking differs from AutoTune\ngot:  %+v\nwant: %+v", merged, want)
	}

	// A fresh process sweeping the FULL grid now finds every key in the
	// tier: zero simulations, identical ranking.
	repeat := runWorkerProc(t, bin, addr, 0, 1, filepath.Join(dir, "repeat.json"))
	if repeat.Sims != 0 {
		t.Fatalf("repeat full sweep issued %d simulations, want 0 (shared tier)", repeat.Sims)
	}
	full := toWire(core.MergeShards(fromWire(repeat.Candidates)))
	if !reflect.DeepEqual(full, want) {
		t.Fatal("repeat full sweep ranking differs from AutoTune")
	}

	// The merge tool over the real files agrees with runMerge in-process
	// and names the same winner AutoTune ranks first.
	out, err := exec.Command(bin, append([]string{"-merge"}, files...)...).Output()
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var local bytes.Buffer
	if err := runMerge(files, &local); err != nil {
		t.Fatal(err)
	}
	if string(out) != local.String() {
		t.Fatalf("merge process output differs from in-process merge:\n%s\nvs\n%s", out, local.String())
	}
	var bestLine string
	for _, c := range want {
		if !c.OOM && c.Err == "" && c.Throughput > 0 {
			bestLine = fmt.Sprintf("winner: %s P=%d D=%d", c.Scheme, c.P, c.D)
			break
		}
	}
	if bestLine == "" || !strings.Contains(string(out), bestLine) {
		t.Fatalf("merge output lacks %q:\n%s", bestLine, out)
	}
}

// TestWorkerWithoutTier runs a tier-less worker process: sharding must
// work standalone (the -remote flag is optional, not load-bearing).
func TestWorkerWithoutTier(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	want := inProcessWant(t)
	const n = 2
	parts := make([][]core.Candidate, n)
	for i := 0; i < n; i++ {
		sf := runWorkerProc(t, bin, "", i, n, filepath.Join(dir, fmt.Sprintf("s%d.json", i)))
		if sf.Sims == 0 {
			t.Fatalf("tier-less shard %d reported zero simulations", i)
		}
		parts[i] = fromWire(sf.Candidates)
	}
	if got := toWire(core.MergeShards(parts...)); !reflect.DeepEqual(got, want) {
		t.Fatal("tier-less merged ranking differs from AutoTune")
	}
}

// TestSnapshotWarmRestart is the tier-durability story as real
// processes: a server with -snapshot serves a cold sweep, SIGINT makes
// it write its contents and exit cleanly, and a restarted server on the
// same file serves the repeat sweep with zero simulations — the warm
// restart a long-running fleet relies on across tier deploys.
func TestSnapshotWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildBinary(t)
	snap := filepath.Join(t.TempDir(), "tier.snapshot")
	dir := t.TempDir()

	addr, cmd := startServerCmd(t, bin, "-snapshot", snap)
	cold := runWorkerProc(t, bin, addr, 0, 1, filepath.Join(dir, "cold.json"))
	if cold.Sims == 0 {
		t.Fatal("cold sweep against an empty tier must simulate")
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server did not exit cleanly after SIGINT: %v", err)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("SIGINT left no snapshot at %s: %v", snap, err)
	}

	addr2, _ := startServerCmd(t, bin, "-snapshot", snap)
	warm := runWorkerProc(t, bin, addr2, 0, 1, filepath.Join(dir, "warm.json"))
	if warm.Sims != 0 {
		t.Fatalf("sweep after warm restart issued %d simulations, want 0 (snapshot)", warm.Sims)
	}
	if !reflect.DeepEqual(warm.Candidates, cold.Candidates) {
		t.Fatal("warm-restart ranking differs from the cold sweep")
	}
}

// TestWorkerRingFlag drives the multi-node flags end to end: two tier
// processes, a worker with a comma-separated -remote list. The cold
// sweep fills the ring; a second worker sharing nothing but the node
// list repeats it without simulating.
func TestWorkerRingFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildBinary(t)
	remote := startServer(t, bin) + "," + startServer(t, bin)
	dir := t.TempDir()

	cold := runWorkerProc(t, bin, remote, 0, 1, filepath.Join(dir, "cold.json"))
	if cold.Sims == 0 {
		t.Fatal("cold sweep against an empty ring must simulate")
	}
	warm := runWorkerProc(t, bin, remote, 0, 1, filepath.Join(dir, "warm.json"))
	if warm.Sims != 0 {
		t.Fatalf("ring-served repeat issued %d simulations, want 0", warm.Sims)
	}
	if !reflect.DeepEqual(warm.Candidates, cold.Candidates) {
		t.Fatal("ring-served ranking differs from the cold sweep")
	}
}

// TestMergeRejectsIncoherentFiles pins the merge tool's validation: out
// of order, wrong count, mismatched sweeps — including shards swept under
// different -events streams — and files without a cluster fingerprint
// (written by an older binary) must all fail loudly rather than mis-merge.
func TestMergeRejectsIncoherentFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, sf shardFile) string {
		path := filepath.Join(dir, name)
		raw, _ := json.Marshal(sf)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	slowed, err := cluster.TACC(16).Apply(cluster.Event{Kind: cluster.SpeedChange, Dev: 3, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint(cluster.TACC(16))
	a := write("a.json", shardFile{Shard: 0, Of: 2, Cluster: "tacc", Devices: 16, Fingerprint: fp, Model: "bert", B: 8, MicroRows: 1})
	b := write("b.json", shardFile{Shard: 1, Of: 2, Cluster: "tacc", Devices: 16, Fingerprint: fp, Model: "bert", B: 8, MicroRows: 1})
	other := write("other.json", shardFile{Shard: 1, Of: 2, Cluster: "fc", Devices: 8, Fingerprint: fp, Model: "bert", B: 4, MicroRows: 1})
	events := write("events.json", shardFile{Shard: 1, Of: 2, Cluster: "tacc", Devices: 16, Fingerprint: fingerprint(slowed),
		Model: "bert", B: 8, MicroRows: 1, Events: 1})
	old := write("old.json", shardFile{Shard: 1, Of: 2, Cluster: "tacc", Devices: 16, Model: "bert", B: 8, MicroRows: 1})

	var sink bytes.Buffer
	if err := runMerge([]string{b, a}, &sink); err == nil {
		t.Fatal("out-of-order shard files merged silently")
	}
	if err := runMerge([]string{a}, &sink); err == nil {
		t.Fatal("missing shard file merged silently")
	}
	if err := runMerge([]string{a, other}, &sink); err == nil {
		t.Fatal("mismatched sweeps merged silently")
	}
	if err := runMerge([]string{a, events}, &sink); err == nil {
		t.Fatal("shards swept under different event streams merged silently")
	}
	if err := runMerge([]string{a, old}, &sink); err == nil {
		t.Fatal("a shard file without a cluster fingerprint merged silently")
	}
	if err := runMerge(nil, &sink); err == nil {
		t.Fatal("empty merge succeeded")
	}
	if err := runMerge([]string{a, b}, &sink); err != nil {
		t.Fatalf("coherent empty shards must merge: %v", err)
	}
}

// TestWorkerRejectsBadSizes: a worker refuses non-positive -devices, -b and
// -rows with an error naming the value, before it sweeps or writes a shard
// file — -b 0 must not fall back to AutoTune's default B, and -rows -1
// must not become a file of error rows.
func TestWorkerRejectsBadSizes(t *testing.T) {
	base := workerConfig{of: 1, cluster: "tacc", devices: 16, model: "bert", b: 8, rows: 1, workers: 1}
	for _, tc := range []struct {
		edit func(*workerConfig)
		want string
	}{
		{func(c *workerConfig) { c.devices = -4 }, "got -4"},
		{func(c *workerConfig) { c.devices = 0 }, "got 0"},
		{func(c *workerConfig) { c.b = 0 }, "-b must be a positive integer, got 0"},
		{func(c *workerConfig) { c.rows = -1 }, "-rows must be a positive integer, got -1"},
	} {
		cfg := base
		cfg.out = filepath.Join(t.TempDir(), "shard.json")
		tc.edit(&cfg)
		if err := runWorker(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one containing %q", cfg, err, tc.want)
		}
		if _, err := os.Stat(cfg.out); !os.IsNotExist(err) {
			t.Errorf("%+v: wrote %s", cfg, cfg.out)
		}
	}
}
