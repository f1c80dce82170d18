// Component micro-benchmarks: the DRAM device, the memory controller and
// the bandwidth accountant, each in isolation. The paper's figures are
// cmd/paperfigs -fig N; whole-simulation timing is benchmark/.
package dramstacks

import (
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/stacks"
)

// BenchmarkDeviceIssue measures the DRAM device hot path (legality check
// plus issue) in isolation.
func BenchmarkDeviceIssue(b *testing.B) {
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	dev := dram.NewDevice(geo, tim)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := dram.Loc{Group: i % 4, Bank: (i / 4) % 4, Row: i % 1024}
		act := dram.Command{Kind: dram.CmdACT, Loc: loc}
		at, ok := dev.EarliestIssue(act, now)
		if !ok {
			b.Fatal("ACT blocked")
		}
		dev.Sync(at)
		dev.Issue(act, at)
		loc.Row = dev.OpenRow(loc, at)
		rda := dram.Command{Kind: dram.CmdRDA, Loc: loc}
		at2, ok := dev.EarliestIssue(rda, at)
		if !ok {
			b.Fatal("RDA blocked")
		}
		dev.Sync(at2)
		dev.Issue(rda, at2)
		now = at2
	}
}

// BenchmarkControllerTick measures the full memory-controller cycle cost
// under a saturating stream — the per-cycle price of stack accounting.
func BenchmarkControllerTick(b *testing.B) {
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	dev := dram.NewDevice(geo, tim)
	ctrl := memctrl.MustNew(dev, addrmap.MustDefault(geo, 1), memctrl.DefaultConfig())
	next := uint64(0)
	inflight := 0
	b.ResetTimer()
	for now := int64(0); now < int64(b.N); now++ {
		for inflight < 32 {
			if _, ok := ctrl.EnqueueRead(now, next, func(*memctrl.Request, int64) { inflight-- }, nil); !ok {
				break
			}
			inflight++
			next += 64
		}
		ctrl.Tick(now)
	}
	b.ReportMetric(ctrl.BandwidthStack().AchievedGBps(geo), "GB/s")
}

// BenchmarkBandwidthAccountant measures the accounting itself: the cost
// the paper's mechanism adds per memory cycle.
func BenchmarkBandwidthAccountant(b *testing.B) {
	a := stacks.NewBandwidthAccountant(16)
	views := []stacks.CycleView{
		{Data: dram.DataRead},
		{PreMask: 0x3, ActMask: 0x8, BlockedMask: 0xF0, Pending: true},
		{Refreshing: true},
		{Pending: true, ChannelBlocked: true},
		{},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Account(views[i%len(views)])
	}
	if err := a.Stack().CheckSum(); err != nil {
		b.Fatal(err)
	}
}
