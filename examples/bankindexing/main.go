// Bankindexing reproduces the paper's Fig. 6 study: when a workload
// shows the "large bank-idle + large queueing" signature in its stacks,
// cache-line-interleaved bank indexing (Fig. 5b) spreads consecutive
// lines over all of the device's banks. Bandwidth rises and queueing
// falls — paid for with page locality (the act/pre components grow).
//
// The bank count is a property of the DRAM standard, not a constant:
// the paper's DDR4-2400 baseline has 16 banks per channel, but the
// registry's other presets differ (DDR5-4800 has 32), so everything
// below reads geometry from the preset rather than hardcoding it.
package main

import (
	"fmt"
	"log"
	"os"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/stacks"
	"dramstacks/internal/viz"
)

func main() {
	// The paper's baseline standard, via the registry: geometry (bank
	// count, page size) comes from the preset, not from literals.
	std := standard.Default()
	fmt.Printf("standard %s: %d banks per channel, %d B pages\n\n",
		std.Name, std.BanksPerChannel(), std.Geometry.RowBytes())

	// The paper's first conflict case: a sequential stream with 50%
	// stores. The write-back stream trails the read stream by exactly
	// the LLC capacity, landing in the same banks on different rows.
	// That case, under the default and the interleaved indexing, is the
	// first two rows of the figure.
	rows, err := exp.Fig6(300_000)
	if err != nil {
		log.Fatal(err)
	}
	rows = rows[:2]

	labels, bw, lat := exp.Stacks(rows)
	geo := rows[0].Res.Cfg.Geom
	viz.BandwidthChart(os.Stdout, labels, bw, geo)
	fmt.Println()
	viz.LatencyChart(os.Stdout, labels, lat, geo)

	d, i := rows[0].Res, rows[1].Res
	dl, il := d.LatNS(), i.LatNS()
	fmt.Printf("\ninterleaving over %d banks: %.2f -> %.2f GB/s; queue+writeburst %.1f -> %.1f ns; act/pre %.1f -> %.1f ns\n",
		std.BanksPerChannel(),
		d.AchievedGBps(), i.AchievedGBps(),
		dl[stacks.LatQueue]+dl[stacks.LatWriteBurst], il[stacks.LatQueue]+il[stacks.LatWriteBurst],
		dl[stacks.LatPreAct], il[stacks.LatPreAct])
	fmt.Println("the stacks predicted this: the default run showed a large bank-idle")
	fmt.Println("component with large queueing latency - the signature of bank conflicts,")
	fmt.Println("not of a too-low request rate (paper §VII-D).")
}
