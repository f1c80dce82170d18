// Gapanalysis runs a GAP graph kernel on the simulated machine, shows
// its through-time bandwidth behavior (the paper's Fig. 7 view), and
// then uses the 1-core bandwidth stack to extrapolate the 8-core
// bandwidth with both the naive and the stack-based method (Fig. 9).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"dramstacks/internal/exp"
	"dramstacks/internal/extrapolate"
	"dramstacks/internal/stacks"
	"dramstacks/internal/viz"
)

func main() {
	bench := flag.String("bench", "bfs", "GAP kernel: bc bfs cc pr sssp tc")
	scale := flag.Int("scale", 15, "Kronecker graph scale")
	flag.Parse()

	// 8-core run with through-time sampling.
	r8, err := exp.RunSpec(context.Background(), exp.Spec{
		Workload: *bench, Cores: 8, Scale: *scale, Budget: 600_000, Sample: 20_000,
	}, exp.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	geo := r8.Cfg.Geom

	fmt.Printf("%s on 8 cores: %.2f GB/s, %.1f ns avg read latency, %.3f ms simulated\n\n",
		*bench, r8.AchievedGBps(), r8.Lat.AvgTotalNS(geo), r8.RuntimeMS())

	viz.ThroughTime(os.Stdout, r8.BWSamples, geo)
	fmt.Println()
	viz.BandwidthChart(os.Stdout, []string{*bench + " 8c"},
		[]stacks.BandwidthStack{r8.BW}, geo)
	fmt.Println()
	viz.LatencyChart(os.Stdout, []string{*bench + " 8c"},
		[]stacks.LatencyStack{r8.Lat}, geo)

	// 1-core run, then extrapolate to 8 cores (Fig. 9).
	r1, err := exp.RunSpec(context.Background(), exp.Spec{
		Workload: *bench, Cores: 1, Scale: *scale, Budget: 2_400_000, Sample: 50_000,
	}, exp.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	p := extrapolate.Predict(*bench, r1.BWSamples, 8, geo, r8.AchievedGBps())
	fmt.Printf("\nextrapolating 1c (%.2f GB/s) to 8 cores:\n", r1.AchievedGBps())
	fmt.Printf("  measured    %6.2f GB/s\n", p.Measured)
	fmt.Printf("  naive       %6.2f GB/s (%.0f%% error)\n", p.Naive, 100*p.NaiveErr())
	fmt.Printf("  stack-based %6.2f GB/s (%.0f%% error)\n", p.Stack, 100*p.StackErr())
}
