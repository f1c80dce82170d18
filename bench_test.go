// Component micro-benchmarks: the DRAM device, the memory controller, the
// bandwidth accountant and the prewarm set-up, each in isolation. The
// paper's figures are cmd/paperfigs -fig N; whole-simulation timing is
// benchmark/.
package dramstacks

import (
	"math/rand"
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
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
// under a saturating load — the per-cycle price of scheduling and stack
// accounting. "seq" streams reads through open rows; "rw-random" keeps
// the read queue full of random lines, a third of them writes, so banks
// conflict and write bursts drain; "rw-random-closed" is the same load
// under the closed-page policy, where nearly every cycle has an
// auto-precharge pending.
func BenchmarkControllerTick(b *testing.B) {
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	run := func(b *testing.B, policy memctrl.PagePolicy, next func() (addr uint64, write bool)) {
		cfg := memctrl.DefaultConfig()
		cfg.Recycle = true
		cfg.Policy = policy
		dev := dram.NewDevice(geo, tim)
		ctrl := memctrl.MustNew(dev, addrmap.MustDefault(geo, 1), cfg)
		inflight := 0
		done := func(*memctrl.Request, int64) { inflight-- }
		b.ReportAllocs()
		b.ResetTimer()
		for now := int64(0); now < int64(b.N); now++ {
			for inflight < 32 {
				addr, write := next()
				var ok bool
				if write {
					_, ok = ctrl.EnqueueWrite(now, addr, nil, nil)
				} else if _, ok = ctrl.EnqueueRead(now, addr, done, nil); ok {
					inflight++
				}
				if !ok {
					break
				}
			}
			ctrl.Tick(now)
		}
		b.ReportMetric(ctrl.BandwidthStack().AchievedGBps(geo), "GB/s")
	}
	b.Run("seq", func(b *testing.B) {
		addr := uint64(0)
		run(b, memctrl.OpenPage, func() (uint64, bool) {
			addr += 64
			return addr - 64, false
		})
	})
	for _, c := range []struct {
		name   string
		policy memctrl.PagePolicy
	}{{"rw-random", memctrl.OpenPage}, {"rw-random-closed", memctrl.ClosedPage}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			lines := int64(geo.CapacityBytes() / 64)
			run(b, c.policy, func() (uint64, bool) {
				return uint64(rng.Int63n(lines)) * 64, rng.Intn(3) == 0
			})
		})
	}
}

// BenchmarkPrewarm measures sim.New on the benchmark's two prewarmed
// DDR4-2400 machines, 1<<20 warm operations a core: the synthetic sources
// are built as benchmark/workloads.go builds them at seed 1, and nothing
// runs after the set-up. It reports the host time per warmed item.
func BenchmarkPrewarm(b *testing.B) {
	for _, c := range []struct {
		name   string
		cores  int
		base   func() workload.SyntheticConfig
		stores float64
	}{
		{"sat-seq-8c", 8, workload.DefaultSequential, 0},
		{"rw-random-4c", 4, workload.DefaultRandom, 0.5},
	} {
		b.Run(c.name, func(b *testing.B) {
			std := standard.MustLookup("ddr4-2400")
			cfg := sim.DefaultFor(std, c.cores)
			cfg.Ctrl.Policy = memctrl.OpenPage
			cfg.PrewarmOps = 1 << 20
			var items int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srcs := make([]cpu.Source, c.cores)
				for k := range srcs {
					wc := c.base()
					wc.StoreFrac = c.stores
					wc.BaseAddr = uint64(k)*(256<<20) + uint64(k)*8192
					wc.Seed = 1 + int64(k)
					srcs[k] = workload.MustSynthetic(wc)
				}
				sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...))
				if err != nil {
					b.Fatal(err)
				}
				for _, n := range sys.Work().WarmItems {
					items += n
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/item")
		})
	}
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
