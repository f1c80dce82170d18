package extrapolate_test

import (
	"fmt"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/extrapolate"
	"dramstacks/internal/stacks"
)

// Example reproduces the paper's §VIII-B reasoning on a hand-built
// 1-core bandwidth stack: the naive method scales achieved bandwidth
// and saturates at the peak, while the stack method also scales the
// pre/act and constraints overheads — which crowd out data transfers
// and produce a lower (more accurate) prediction.
func Example() {
	geo := standard.Default().Geometry

	// A 1-core stack: 2 GB/s achieved, but page misses already burn
	// 2 GB/s of pre/act and 0.5 GB/s of constraints.
	total := int64(1_000_000)
	mk := func(gbs float64) float64 { return gbs / geo.PeakBandwidthGBs() * float64(total) }
	s := stacks.BandwidthStack{Banks: 16, TotalCycles: total}
	s.Cycles[stacks.BWRead] = mk(2.0)
	s.Cycles[stacks.BWPrecharge] = mk(1.0)
	s.Cycles[stacks.BWActivate] = mk(1.0)
	s.Cycles[stacks.BWConstraints] = mk(0.5)
	s.Cycles[stacks.BWRefresh] = mk(0.9)
	s.Cycles[stacks.BWIdle] = float64(total) - s.Cycles[stacks.BWRead] -
		s.Cycles[stacks.BWPrecharge] - s.Cycles[stacks.BWActivate] -
		s.Cycles[stacks.BWConstraints] - s.Cycles[stacks.BWRefresh]

	naive := extrapolate.Naive(2.0, 8, geo, 0.9)
	stackPred, _ := extrapolate.Stack(s, 8, geo)
	fmt.Printf("naive: %.2f GB/s, stack-based: %.2f GB/s\n", naive, stackPred)
	// Output:
	// naive: 16.00 GB/s, stack-based: 8.13 GB/s
}
