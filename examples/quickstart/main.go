// Quickstart: simulate a memory-bound workload on the paper's machine
// (DDR4-2400, Skylake-like cores) and print its DRAM bandwidth and
// latency stacks — the fastest way to see where the 19.2 GB/s go.
package main

import (
	"fmt"
	"log"
	"os"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/viz"
	"dramstacks/internal/workload"
)

func main() {
	// One core streaming sequentially, one core chasing random lines.
	seq := workload.DefaultSequential()
	rnd := workload.DefaultRandom()
	rnd.BaseAddr = 512 << 20 // separate regions

	std := standard.Default()
	cfg := sim.DefaultFor(std, 2)
	cfg.MaxMemCycles = 300_000 // 0.25 ms of DDR4-2400 time
	cfg.PrewarmOps = 1 << 20   // start with warm caches
	sys, err := sim.New(std, sim.WithConfig(cfg),
		sim.WithSources(workload.MustSynthetic(seq), workload.MustSynthetic(rnd)))
	if err != nil {
		log.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		log.Fatalf("DRAM timing violation: %v", res.Violations[0])
	}

	geom := res.Cfg.Geom
	fmt.Printf("simulated %.3f ms: %.2f GB/s achieved of %.1f peak\n\n",
		res.RuntimeMS(), res.AchievedGBps(), geom.PeakBandwidthGBs())

	viz.BandwidthChart(os.Stdout, []string{"seq+random 2c"},
		[]stacks.BandwidthStack{res.BW}, geom)
	fmt.Println()
	viz.LatencyChart(os.Stdout, []string{"seq+random 2c"},
		[]stacks.LatencyStack{res.Lat}, geom)

	g := res.BWGBps()
	fmt.Printf("\nreading the stack: %.1f GB/s is real traffic, %.1f is refresh,\n",
		g[stacks.BWRead]+g[stacks.BWWrite], g[stacks.BWRefresh])
	fmt.Printf("%.1f is lost to timing constraints, %.1f to unused bank parallelism,\n",
		g[stacks.BWConstraints], g[stacks.BWBankIdle])
	fmt.Printf("and %.1f GB/s of the chip was simply idle - the cores did not ask for more.\n",
		g[stacks.BWIdle])
}
