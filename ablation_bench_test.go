// Ablation benchmarks for the design choices DESIGN.md calls out: the
// constraint-scope attribution rule, the closed-page lookahead
// threshold, the prefetcher depth, and the machine extensions beyond the
// paper's configuration (dual rank, multiple channels). Each reports the
// stack components the choice moves.
package dramstacks

import (
	"fmt"
	"testing"

	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/prefetch"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

const benchSynthBudget = int64(200_000)

func runCfg(b *testing.B, cfg sim.Config, pat workload.Pattern, stores float64) *sim.Result {
	b.Helper()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(standard.Default(), sim.WithConfig(cfg), sim.WithSources(sim.SyntheticSources(pat, cfg.Cores, stores)...))
		if err != nil {
			b.Fatal(err)
		}
		res = sys.Run()
		if len(res.Violations) > 0 {
			b.Fatalf("timing violation: %v", res.Violations[0])
		}
	}
	return res
}

// BenchmarkAblation_ConstraintScope compares the paper-calibrated scoped
// constraints attribution (a tCCD_L-bound bank charges its whole group)
// against flat per-bank attribution, on the workload where it matters
// most: the single sequential stream whose bank group is the bottleneck.
func BenchmarkAblation_ConstraintScope(b *testing.B) {
	for _, flat := range []bool{false, true} {
		name := "scoped"
		if flat {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.Default(1)
			cfg.Ctrl.FlatConstraints = flat
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Sequential, 0)
			g := res.BWGBps()
			b.ReportMetric(g[stacks.BWConstraints], "GB/s-constraints")
			b.ReportMetric(g[stacks.BWBankIdle], "GB/s-bankidle")
			b.ReportMetric(res.AchievedGBps(), "GB/s")
		})
	}
}

// BenchmarkAblation_ClosedKeepOpen sweeps the closed-page lookahead
// threshold (how many queued same-row requests keep a page open) on the
// sequential two-core case that calibrated it.
func BenchmarkAblation_ClosedKeepOpen(b *testing.B) {
	for _, keep := range []int{1, 3, 5, 8} {
		b.Run(fmt.Sprintf("keep%d", keep), func(b *testing.B) {
			cfg := sim.Default(2)
			cfg.Ctrl.Policy = memctrl.ClosedPage
			cfg.Ctrl.ClosedKeepOpen = keep
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Sequential, 0)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(100*res.CtrlStats.PageHitRate(), "%pagehit")
			b.ReportMetric(res.LatNS()[stacks.LatQueue], "lat-ns-queue")
		})
	}
}

// BenchmarkAblation_PrefetchDepth sweeps the L2 streamer depth: too
// shallow starves the sequential stream, too deep floods the queues.
func BenchmarkAblation_PrefetchDepth(b *testing.B) {
	for _, depth := range []int{0, 8, 20, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			cfg := sim.Default(2)
			cfg.Hier.Prefetch = prefetch.Config{Streams: 16, Depth: depth, Degree: 2}
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Sequential, 0)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(float64(res.HierStats.PrefetchesToMem), "prefetches")
		})
	}
}

// BenchmarkAblation_DualRank compares the paper's single-rank module
// against a dual-rank module (32 banks, same peak): the extra bank
// parallelism absorbs page misses of the random pattern.
func BenchmarkAblation_DualRank(b *testing.B) {
	ranks := map[string]func() (dram.Geometry, dram.Timing){
		"1rank": dram.DDR4_2400,
		"2rank": dram.DDR4_2400_DualRank,
	}
	for _, name := range []string{"1rank", "2rank"} {
		b.Run(name, func(b *testing.B) {
			geo, tim := ranks[name]()
			cfg := sim.Default(8)
			cfg.Geom = geo
			cfg.Tim = tim
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 19
			res := runCfg(b, cfg, workload.Random, 0)
			g := res.BWGBps()
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(g[stacks.BWBankIdle], "GB/s-bankidle")
			b.ReportMetric(g[stacks.BWConstraints], "GB/s-constraints")
		})
	}
}

// BenchmarkAblation_Channels scales the channel count: aggregated stacks
// (paper §IV: per-controller stacks summed afterwards) and total
// bandwidth for a saturating 8-core stream.
func BenchmarkAblation_Channels(b *testing.B) {
	for _, ch := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dch", ch), func(b *testing.B) {
			cfg := sim.Default(8)
			cfg.Channels = ch
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Sequential, 0)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(res.PeakGBps(), "GB/s-peak")
			b.ReportMetric(res.BWGBps()[stacks.BWIdle], "GB/s-idle")
		})
	}
}

// BenchmarkAblation_LLCSize varies the shared LLC (the paper holds it at
// 11 MB across core counts precisely because it changes DRAM traffic).
func BenchmarkAblation_LLCSize(b *testing.B) {
	for _, mb := range []int{2, 11, 32} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			ways := 16
			if mb == 11 {
				ways = 11 // keep the set count a power of two
			}
			cfg := sim.Default(4)
			cfg.Hier.LLC = cache.Config{
				Name: "LLC", SizeBytes: mb << 20, Ways: ways, LineBytes: 64, Latency: 44,
			}
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Random, 0.2)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(float64(res.CtrlStats.IssuedWrites), "dram-writes")
		})
	}
}

// BenchmarkAblation_SpeedGrade compares DDR4-2400 against DDR4-3200 on
// the 8-core random pattern: peak rises 33% but the page-miss-dominated
// pattern gains less, and the stack shows why (tRCD/tRP are constant in
// nanoseconds, so the pre/act components grow in relative cycles).
func BenchmarkAblation_SpeedGrade(b *testing.B) {
	grades := map[string]func() (dram.Geometry, dram.Timing){
		"ddr4-2400": dram.DDR4_2400,
		"ddr4-3200": dram.DDR4_3200,
	}
	for _, name := range []string{"ddr4-2400", "ddr4-3200"} {
		b.Run(name, func(b *testing.B) {
			geo, tim := grades[name]()
			cfg := sim.Default(8)
			cfg.Geom = geo
			cfg.Tim = tim
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 19
			res := runCfg(b, cfg, workload.Random, 0)
			g := res.BWGBps()
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(res.PeakGBps(), "GB/s-peak")
			b.ReportMetric(g[stacks.BWPrecharge]+g[stacks.BWActivate], "GB/s-preact")
			b.ReportMetric(res.Lat.AvgTotalNS(geo), "lat-ns")
		})
	}
}

// BenchmarkAblation_Scheduler compares FR-FCFS against strict FCFS on a
// store-heavy sequential stream whose read and writeback rows conflict:
// first-ready scheduling batches each row's hits.
func BenchmarkAblation_Scheduler(b *testing.B) {
	for _, sched := range []memctrl.Scheduler{memctrl.FRFCFS, memctrl.FCFS} {
		b.Run(sched.String(), func(b *testing.B) {
			cfg := sim.Default(1)
			cfg.Ctrl.Sched = sched
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Sequential, 0.5)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(100*res.CtrlStats.PageHitRate(), "%pagehit")
			b.ReportMetric(res.Lat.AvgTotalNS(res.Cfg.Geom), "lat-ns")
		})
	}
}

// BenchmarkAblation_CoreModel compares the Skylake-like out-of-order
// core against a small in-order-like core: the random pattern's request
// rate collapses when misses cannot overlap, and the bandwidth stack's
// idle component shows it.
func BenchmarkAblation_CoreModel(b *testing.B) {
	cores := map[string]cpu.Config{
		"ooo-4w-224rob": cpu.DefaultConfig(),
		"inorder-2w":    cpu.InOrderConfig(),
	}
	for _, name := range []string{"ooo-4w-224rob", "inorder-2w"} {
		b.Run(name, func(b *testing.B) {
			cfg := sim.Default(4)
			cfg.Core = cores[name]
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 19
			res := runCfg(b, cfg, workload.Random, 0)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(res.BWGBps()[stacks.BWIdle], "GB/s-idle")
		})
	}
}

// BenchmarkAblation_StridedPattern shows the strided pattern between the
// two extremes: no spatial reuse like random, but page hits and
// predictability like sequential.
func BenchmarkAblation_StridedPattern(b *testing.B) {
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Strided, workload.Random} {
		b.Run(pat.String(), func(b *testing.B) {
			cfg := sim.Default(2)
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 19
			res := runCfg(b, cfg, pat, 0)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(100*res.CtrlStats.PageHitRate(), "%pagehit")
		})
	}
}

// BenchmarkAblation_DDR5 compares one DDR5-4800 subchannel against the
// DDR4-2400 channel at the same 19.2 GB/s peak: more banks and smaller
// pages help the random pattern, longer bursts change the constraint
// structure for the sequential one.
func BenchmarkAblation_DDR5(b *testing.B) {
	gens := map[string]func() (dram.Geometry, dram.Timing){
		"ddr4-2400": dram.DDR4_2400,
		"ddr5-4800": dram.DDR5_4800,
	}
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, name := range []string{"ddr4-2400", "ddr5-4800"} {
			b.Run(fmt.Sprintf("%s-%s", pat, name), func(b *testing.B) {
				geo, tim := gens[name]()
				cfg := sim.Default(8)
				cfg.Geom = geo
				cfg.Tim = tim
				cfg.CPUMult = 2 // 2.4 GHz DRAM clock: narrower CPU ratio
				cfg.MaxMemCycles = benchSynthBudget
				cfg.PrewarmOps = 1 << 19
				res := runCfg(b, cfg, pat, 0)
				g := res.BWGBps()
				b.ReportMetric(res.AchievedGBps(), "GB/s")
				b.ReportMetric(g[stacks.BWPrecharge]+g[stacks.BWActivate], "GB/s-preact")
				b.ReportMetric(g[stacks.BWConstraints], "GB/s-constraints")
			})
		}
	}
}

// BenchmarkStream runs the four STREAM kernels on 4 cores: the canonical
// bandwidth microbenchmarks, each a different read:write mix.
func BenchmarkStream(b *testing.B) {
	for _, kind := range []workload.StreamKind{
		workload.StreamCopy, workload.StreamScale, workload.StreamAdd, workload.StreamTriad,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				cfg := sim.Default(4)
				cfg.MaxMemCycles = benchSynthBudget
				cfg.PrewarmOps = 1 << 19
				sys, err := sim.New(standard.Default(), sim.WithConfig(cfg), sim.WithSources(workload.StreamSources(kind, 4)...))
				if err != nil {
					b.Fatal(err)
				}
				res = sys.Run()
				if len(res.Violations) > 0 {
					b.Fatal(res.Violations[0])
				}
			}
			g := res.BWGBps()
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(g[stacks.BWRead], "GB/s-read")
			b.ReportMetric(g[stacks.BWWrite], "GB/s-write")
		})
	}
}

// BenchmarkAblation_RefreshGranularity compares normal (1x) refresh with
// DDR4's fine-granularity 2x/4x modes: shorter, more frequent tRFC
// windows trade a little average bandwidth for much better tail latency
// (the histogram's p99), which the latency stacks' refresh component and
// the percentile telemetry expose together.
func BenchmarkAblation_RefreshGranularity(b *testing.B) {
	modes := []struct {
		name string
		div  int     // tREFI divisor
		rfc  float64 // tRFC scale (FGR does not halve cleanly)
	}{
		{"refresh-1x", 1, 1.0},
		{"refresh-2x", 2, 0.62},
		{"refresh-4x", 4, 0.42},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			geo, tim := dram.DDR4_2400()
			tim.REFI /= m.div
			tim.RFC = int(float64(tim.RFC) * m.rfc)
			cfg := sim.Default(4)
			cfg.Geom = geo
			cfg.Tim = tim
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 19
			res := runCfg(b, cfg, workload.Random, 0)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(res.BWGBps()[stacks.BWRefresh], "GB/s-refresh")
			b.ReportMetric(geo.CyclesToNS(res.LatHist.Quantile(0.99)), "p99-ns")
			b.ReportMetric(res.LatNS()[stacks.LatRefresh], "lat-ns-refresh")
		})
	}
}

// BenchmarkAblation_XORMapping compares the three mappings on the
// bank-conflict case (sequential with 50% stores): XOR hashing recovers
// the conflict loss like cache-line interleaving, but keeps the page
// locality interleaving gives up.
func BenchmarkAblation_XORMapping(b *testing.B) {
	for _, m := range []sim.Mapping{sim.MapDefault, sim.MapInterleaved, sim.MapXOR} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := sim.Default(1)
			cfg.Map = m
			cfg.MaxMemCycles = benchSynthBudget
			cfg.PrewarmOps = 1 << 20
			res := runCfg(b, cfg, workload.Sequential, 0.5)
			b.ReportMetric(res.AchievedGBps(), "GB/s")
			b.ReportMetric(100*res.CtrlStats.PageHitRate(), "%pagehit")
			b.ReportMetric(res.Lat.AvgTotalNS(res.Cfg.Geom), "lat-ns")
		})
	}
}
