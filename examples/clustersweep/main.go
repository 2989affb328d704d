// Cluster adaptability (the paper's §5.2 scenario): sweep wave counts on
// each of the four evaluation clusters and see how the optimal number of
// waves shifts with interconnect quality — higher on NVLink boxes, lower on
// the PCIe/InfiniBand TACC nodes.
//
// This version runs every cluster's sweep the distributed way, in
// miniature: the candidate grid is split with SearchSpace.Shard across two
// "worker" Tuners (separate Tuner instances, as separate processes would
// be) that share one loopback cache tier, and the shard outputs are
// recombined with MergeShards — bit-for-bit the ranking a single AutoTune
// call produces. A final repeat sweep from a third, cold Tuner is served
// entirely from the shared tier: zero simulations. To span machines, run
// the shards as `hanayo-tuned -worker` processes against a
// `hanayo-tuned -serve` tier (cmd/hanayo-tuned).
//
// It prints one row per cluster — the throughput of each wave count and
// the best one — then the total wall time and the repeat sweep's
// simulation count (0). The rows are identical to an unsharded AutoTune.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	hanayo "repro"
)

func main() {
	topk := flag.Int("topk", 0, "bound-and-prune search keeping this many exact ranks per shard (0 = exhaustive)")
	flag.Parse()
	model := hanayo.BERTStyle()
	waves := []int{1, 2, 4, 8}
	start := time.Now()
	tier := hanayo.NewLoopbackCache(0) // the shared cache tier, in-process
	fmt.Println("BERT-style, 8 devices per cluster, throughput in sequences/s")
	fmt.Printf("%-6s %10s %10s %10s %10s %12s\n", "clus", "W=1", "W=2", "W=4", "W=8", "best")

	var lastCluster *hanayo.Cluster
	var lastSpace hanayo.SearchSpace
	for _, name := range []string{"pc", "fc", "tacc", "tc"} {
		cl, err := hanayo.ClusterByName(name, 8)
		if err != nil {
			log.Fatal(err)
		}
		// Sweep all wave counts as named schemes; the empty (non-nil)
		// Waves disables the built-in per-(P,D) wave sweep so each count
		// appears exactly once — and each is its own grid unit. Units
		// weigh their compute tasks, 1:2:4:8 here, so the two shards split
		// them 3/1: W=1, 2, 4 (weight 7) against W=8 (weight 8).
		schemes := make([]string, len(waves))
		for i, w := range waves {
			schemes[i] = fmt.Sprintf("hanayo-w%d", w)
		}
		space := hanayo.SearchSpace{
			Schemes:   schemes,
			PD:        [][2]int{{8, 1}},
			Waves:     []int{},
			B:         8,
			MicroRows: 2,
			Workers:   runtime.NumCPU(),
			TopK:      *topk,
		}
		const shards = 2
		parts := make([][]hanayo.Candidate, shards)
		for i := 0; i < shards; i++ {
			worker := hanayo.NewTuner(hanayo.TunerOptions{Remote: tier})
			parts[i] = worker.AutoTuneShard(cl, model, space.Shard(i, shards))
		}
		cands := hanayo.MergeShards(parts...)
		lastCluster, lastSpace = cl, space

		byScheme := map[string]hanayo.Candidate{}
		for _, c := range cands {
			byScheme[c.Plan.Scheme] = c
		}
		fmt.Printf("%-6s", name)
		bestW, bestThr := 0, 0.0
		for _, w := range waves {
			c := byScheme[fmt.Sprintf("hanayo-w%d", w)]
			switch {
			case c.Err != nil:
				log.Fatal(c.Err)
			case c.BoundPruned:
				// Eliminated by the TopK bound: only the ceiling is proven.
				fmt.Printf(" %10s", fmt.Sprintf("<%.2f", c.Bound))
			case c.OOM:
				fmt.Printf(" %10s", "OOM")
			default:
				if c.Throughput > bestThr {
					bestThr, bestW = c.Throughput, w
				}
				fmt.Printf(" %10.2f", c.Throughput)
			}
		}
		if bestW == 0 {
			fmt.Printf("   all OOM\n")
		} else {
			fmt.Printf("   best W=%d (%.2f seq/s)\n", bestW, bestThr)
		}
	}
	fmt.Printf("\nfour clusters swept in %v: 2 sharded workers per cluster, merged rankings\n",
		time.Since(start).Round(time.Millisecond))

	// A cold Tuner repeating the last sweep finds every key in the shared
	// tier — the cross-process promise, demonstrated in-process.
	before := hanayo.SimRuns()
	hanayo.NewTuner(hanayo.TunerOptions{Remote: tier}).AutoTune(lastCluster, model, lastSpace)
	fmt.Printf("repeat sweep from a cold worker: %d simulations (served by the shared tier)\n",
		hanayo.SimRuns()-before)
}
