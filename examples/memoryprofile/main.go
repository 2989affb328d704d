// Memory profile (the paper's §5.1 scenario): the per-device peak memory
// distribution of each scheme for a large model, including the balance
// (variance) that determines real-world packability, and ASCII bars for
// the worst and best devices. Activation residency is measured on the
// schedule's action lists (Plan.Memory scans them; no simulation and no
// tensor math), and each scheme's live-activation peak is reported
// alongside the estimate.
package main

import (
	"fmt"
	"log"
	"strings"

	hanayo "repro"
)

func main() {
	model := hanayo.BERTStyle()
	cl := hanayo.TACC(32)
	fmt.Printf("%s on 32×A100-40GB (P=8, D=4, B=12 micro-batches of 2 rows)\n\n", model.Name)
	fmt.Printf("model training state: %.1f GB total\n\n", hanayo.ModelSizeGB(model))

	for _, scheme := range []string{"gpipe", "dapple", "chimera", "chimera-wave", "hanayo-w2", "hanayo-w4"} {
		plan := hanayo.Plan{
			Scheme: scheme, Cluster: cl, Model: model,
			P: 8, D: 4, B: 12, MicroRows: 2,
		}
		// Sim-free estimate: activation peaks come from one scan of the
		// schedule's action lists.
		est, err := plan.Memory()
		if err != nil {
			log.Fatal(err)
		}
		peakLive := 0.0
		for _, pb := range est.ActBytes {
			if pb > peakLive {
				peakLive = pb
			}
		}
		totals := est.Total()
		maxGB, minGB := 0.0, 1e18
		for _, t := range totals {
			gb := t / 1e9
			if gb > maxGB {
				maxGB = gb
			}
			if gb < minGB {
				minGB = gb
			}
		}
		bar := func(gb float64) string {
			n := int(gb)
			if n > 60 {
				n = 60
			}
			marker := ""
			if gb > 40 {
				marker = " OOM!"
			}
			return strings.Repeat("#", n) + fmt.Sprintf(" %.1f GB%s", gb, marker)
		}
		fmt.Printf("%-14s\n  worst device %s\n  best device  %s\n  variance %.2f GB²  measured live-activation peak %.1f GB\n",
			scheme, bar(maxGB), bar(minGB), est.VarianceGB(), peakLive/1e9)
	}
}
