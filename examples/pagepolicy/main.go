// Pagepolicy reproduces the paper's Fig. 4 scenario: how the open and
// closed page policies change the bandwidth and latency stacks for a
// page-friendly (sequential) and a page-hostile (random) access pattern.
// The stacks explain the result: the sequential pattern loses page hits
// and gains queueing under the closed policy, while the random pattern
// gains bandwidth because the precharge moves off the critical path.
package main

import (
	"fmt"
	"log"
	"os"

	"dramstacks/internal/exp"
	"dramstacks/internal/viz"
)

func main() {
	rows, err := exp.Fig4(300_000)
	if err != nil {
		log.Fatal(err)
	}

	labels, bw, lat := exp.Stacks(rows)
	geo := rows[0].Res.Cfg.Geom
	viz.BandwidthChart(os.Stdout, labels, bw, geo)
	fmt.Println()
	viz.LatencyChart(os.Stdout, labels, lat, geo)

	fmt.Println("\nwhat to look for (paper §VII-C):")
	fmt.Printf(" * sequential: closed pages cost bandwidth (%.2f -> %.2f GB/s) and the\n",
		rows[0].Res.AchievedGBps(), rows[1].Res.AchievedGBps())
	fmt.Println("   latency increase lands in the queue component, not act/pre - followers")
	fmt.Println("   wait for the re-activation of the row the policy closed too early.")
	fmt.Printf(" * random: closed pages help (%.2f -> %.2f GB/s) and the act/pre latency\n",
		rows[2].Res.AchievedGBps(), rows[3].Res.AchievedGBps())
	fmt.Println("   roughly halves - the precharge happens before the next request arrives.")
	for i := range rows {
		fmt.Printf(" * %-18s page hit rate %5.1f%%\n",
			labels[i], 100*rows[i].Res.CtrlStats.PageHitRate())
	}
}
