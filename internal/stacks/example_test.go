package stacks_test

import (
	"fmt"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
)

// Example shows the hierarchical per-cycle bandwidth accounting: the
// accountant sees one CycleView per memory cycle and the resulting stack
// always sums to the observed cycles (no double counting).
func Example() {
	geo := standard.Default().Geometry
	acct := stacks.NewBandwidthAccountant(geo.TotalBanks())

	// Six cycles of a toy schedule:
	acct.Account(stacks.CycleView{Data: dram.DataRead})  // data on the bus
	acct.Account(stacks.CycleView{Data: dram.DataRead})  // data on the bus
	acct.Account(stacks.CycleView{Data: dram.DataWrite}) // write burst
	acct.Account(stacks.CycleView{Refreshing: true})     // tRFC window
	acct.Account(stacks.CycleView{                       // bank 0 activating, others idle
		ActMask: 1 << 0, Pending: true,
	})
	acct.Account(stacks.CycleView{}) // nothing to do

	s := acct.Stack()
	fmt.Printf("total %d cycles, sum ok: %v\n", s.TotalCycles, s.CheckSum() == nil)
	fmt.Printf("read %.0f, write %.0f, refresh %.0f, activate %.4f, bank_idle %.4f, idle %.0f\n",
		s.Cycles[stacks.BWRead], s.Cycles[stacks.BWWrite], s.Cycles[stacks.BWRefresh],
		s.Cycles[stacks.BWActivate], s.Cycles[stacks.BWBankIdle], s.Cycles[stacks.BWIdle])
	// Output:
	// total 6 cycles, sum ok: true
	// read 2, write 1, refresh 1, activate 0.0625, bank_idle 0.9375, idle 1
}

// ExampleBandwidthStack_GBps converts cycle counts into the paper's GB/s
// representation, where the components sum to the peak bandwidth.
func ExampleBandwidthStack_GBps() {
	geo := standard.Default().Geometry
	acct := stacks.NewBandwidthAccountant(geo.TotalBanks())
	for i := 0; i < 500; i++ {
		acct.Account(stacks.CycleView{Data: dram.DataRead})
	}
	for i := 0; i < 500; i++ {
		acct.Account(stacks.CycleView{})
	}
	g := acct.Stack().GBps(geo)
	fmt.Printf("read %.1f GB/s, idle %.1f GB/s of %.1f peak\n",
		g[stacks.BWRead], g[stacks.BWIdle], geo.PeakBandwidthGBs())
	// Output:
	// read 9.6 GB/s, idle 9.6 GB/s of 19.2 peak
}

// ExampleLatencyAccountant decomposes read latencies; components sum to
// the measured latency of each read.
func ExampleLatencyAccountant() {
	geo := standard.Default().Geometry
	acct := stacks.NewLatencyAccountant()

	var r stacks.ReadLatency
	r.Components[stacks.LatBaseCtrl] = 30 // controller pipeline
	r.Components[stacks.LatBaseDRAM] = 20 // tCL + tBL/2
	r.Components[stacks.LatPreAct] = 32   // page miss: tRP + tRCD
	r.Components[stacks.LatQueue] = 18    // waited behind other requests
	r.Total = 100
	acct.AddRead(r)

	s := acct.Stack()
	fmt.Printf("%.1f ns total, %.1f ns act/pre\n",
		s.AvgTotalNS(geo), s.AvgNS(geo)[stacks.LatPreAct])
	// Output:
	// 83.3 ns total, 26.7 ns act/pre
}
