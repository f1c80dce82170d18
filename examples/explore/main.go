// Explore sweeps the memory controller's design space (page policy ×
// bank indexing) for a given workload and ranks the configurations —
// the design-space-exploration use the paper motivates for hardware
// architects (§I: "it is often not obvious to hardware architects or
// software developers how higher bandwidth usage can be achieved").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"dramstacks/internal/exp"
	"dramstacks/internal/stacks"
)

func main() {
	pattern := flag.String("pattern", "seq", "seq, random or strided")
	stores := flag.Float64("stores", 0.5, "store fraction")
	cores := flag.Int("cores", 1, "cores")
	flag.Parse()

	type outcome struct {
		policy, m string
		gbps      float64
		latNS     float64
		hint      string
	}
	var results []outcome
	for _, policy := range []string{"open", "closed"} {
		for _, m := range []string{"def", "int", "xor"} {
			res, err := exp.RunSpec(context.Background(), exp.Spec{
				Workload: *pattern, Cores: *cores, Stores: *stores,
				Mapping: m, Policy: policy, Budget: 250_000,
			}, exp.RunOptions{})
			if err != nil {
				log.Fatal(err)
			}
			hint := "-"
			if advice := stacks.Diagnose(res.BW, res.Lat, res.Cfg.Geom); len(advice) > 0 {
				hint = advice[0].Component
			}
			results = append(results, outcome{
				policy: policy,
				m:      m,
				gbps:   res.AchievedGBps(),
				latNS:  res.Lat.AvgTotalNS(res.Cfg.Geom),
				hint:   hint,
			})
		}
	}

	sort.Slice(results, func(i, j int) bool { return results[i].gbps > results[j].gbps })
	fmt.Printf("design space for %s (stores %.0f%%, %d core(s)):\n\n", *pattern, *stores*100, *cores)
	fmt.Printf("%-8s %-5s %10s %10s   %s\n", "policy", "map", "GB/s", "lat-ns", "top bottleneck")
	for _, r := range results {
		fmt.Printf("%-8s %-5s %10.2f %10.1f   %s\n",
			r.policy, r.m, r.gbps, r.latNS, r.hint)
	}
	best := results[0]
	fmt.Printf("\nbest: %s pages with %s indexing (%.2f GB/s)\n", best.policy, best.m, best.gbps)
}
