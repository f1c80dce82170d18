package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/prefetch"
	"dramstacks/internal/qos"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// randSpec is one randomly drawn simulation configuration. Everything
// is derived deterministically from the test's seeded generator, so a
// failure reproduces by index.
type randSpec struct {
	name    string
	cfg     Config
	live    bool  // the runs have a sample subscriber
	seed    int64 // per-spec workload seed
	cores   int
	pattern workload.Pattern
	// per-core workload shape, drawn per spec
	footprint int
	workPerOp int
	chains    int
	branch    int
	mispred   float64
	ops       int64 // >0: finite workload, run to completion
	storeFrac float64
	shared    bool // every core walks the same addresses
}

// drawSpec samples one spec from the cross product the issue names —
// standards × cores × page policy — plus the workload and observation
// axes the golden tests cover by hand (patterns, footprints, branch
// behavior, warmup, sampling, finite runs, channel counts).
func drawSpec(rng *rand.Rand, i int) randSpec {
	names := standard.Names()
	stdName := names[rng.Intn(len(names))]
	std := standard.MustLookup(stdName)

	sp := randSpec{
		seed:      rng.Int63n(1 << 30),
		cores:     1 + rng.Intn(4),
		pattern:   workload.Sequential,
		footprint: 1 << 14, // cache resident
		workPerOp: rng.Intn(61),
	}
	if rng.Intn(2) == 0 {
		sp.pattern = workload.Random
		sp.chains = 1 + rng.Intn(4)
	}
	switch rng.Intn(3) {
	case 1:
		sp.footprint = 1 << 20 // LLC-sized: boundary traffic
	case 2:
		sp.footprint = 1 << 26 // DRAM-sized: saturating traffic
	}
	if rng.Intn(2) == 0 {
		sp.branch = 2 + rng.Intn(7)
		sp.mispred = float64(rng.Intn(11)) / 20 // 0 .. 0.5
	}

	cfg := DefaultFor(std, sp.cores)
	if rng.Intn(2) == 0 {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	if std.SubChannels <= 1 && rng.Intn(3) == 0 {
		cfg.Channels = 2
	}
	cfg.MaxMemCycles = 6_000 + rng.Int63n(10_000)
	if rng.Intn(4) == 0 {
		cfg.WarmupMemCycles = cfg.MaxMemCycles / int64(2+rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		cfg.SampleInterval = cfg.MaxMemCycles / int64(3+rng.Intn(5))
		sp.live = rng.Intn(2) == 0
	}
	if rng.Intn(4) == 0 {
		cfg.PrewarmOps = 1 << 12
	}
	// QoS policies join the randomized space: tracking-only, regulated,
	// prioritized and combined configurations must keep the two loops
	// field-identical, including the per-source stacks and the held-read
	// release schedule at window boundaries.
	if rng.Intn(3) == 0 {
		q := qos.Config{
			Sources: sp.cores,
			Window:  512 + rng.Int63n(4096),
			Budget:  make([]int, sp.cores),
			RT:      make([]bool, sp.cores),
		}
		for c := 0; c < sp.cores; c++ {
			if rng.Intn(2) == 0 {
				q.Budget[c] = 1 + rng.Intn(64)
			}
			q.RT[c] = rng.Intn(4) == 0
		}
		if rng.Intn(4) == 0 {
			q.Aging = 1_000 + rng.Int63n(8_000)
		}
		if err := q.Validate(); err != nil {
			panic(err) // generator bug, not a simulator property
		}
		cfg.Ctrl.QoS = q
	}
	// Occasionally run a finite workload to completion instead, covering
	// the done() exit and the post-drain idle tail.
	if sp.cores <= 2 && rng.Intn(5) == 0 {
		sp.ops = 300 + rng.Int63n(1_200)
		cfg.MaxMemCycles = 0
	}
	sp.cfg = cfg
	sp.name = fmt.Sprintf("%03d-%s-%dc-%s-%s", i, stdName, sp.cores,
		sp.pattern, cfg.Ctrl.Policy)
	if cfg.Ctrl.QoS.Enabled() {
		sp.name += "-qos"
	}
	return sp
}

// newObserved is newSystem with a live sample subscriber, and any
// further options.
func newObserved(cfg Config, srcs []cpu.Source, fn func(stacks.Sample), opts ...Option) (*System, error) {
	return New(standard.Default(), append(opts, WithConfig(cfg), WithSources(srcs...), WithSampleFunc(fn))...)
}

// sources builds a fresh, identical source set for the spec; every
// call returns streams with the same seeds, as goldenCompare requires.
func (sp randSpec) sources() []cpu.Source {
	var out []cpu.Source
	for c := 0; c < sp.cores; c++ {
		base := uint64(c) * (256 << 20)
		if sp.shared {
			base = 0
		}
		out = append(out, workload.MustSynthetic(workload.SyntheticConfig{
			Pattern:        sp.pattern,
			WorkPerOp:      sp.workPerOp,
			Chains:         sp.chains,
			FootprintBytes: uint64(sp.footprint),
			StrideBytes:    64,
			BranchEvery:    sp.branch,
			MispredictRate: sp.mispred,
			Ops:            sp.ops,
			StoreFrac:      sp.storeFrac,
			BaseAddr:       base,
			Seed:           sp.seed + int64(c),
		}))
	}
	return out
}

// TestGoldenRandomizedSpecs upgrades the hand-picked golden-equivalence
// cases into a generative oracle: ~50 seeded random specs across the
// registry's standards, core counts and page policies must produce
// field-identical Results (and sample streams) in the event-wheel loop
// and the reference per-cycle loop. The generator is seeded, so every
// run checks the same 50 specs and a failure names the one to replay.
// The CI race job runs this under -race via the Golden pattern.
func TestGoldenRandomizedSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized golden specs skipped in -short")
	}
	rng := rand.New(rand.NewSource(0x5eed7))
	for i := 0; i < 50; i++ {
		sp := drawSpec(rng, i)
		t.Run(sp.name, func(t *testing.T) {
			goldenCompare(t, sp.name, sp.cfg, sp.live, sp.sources)
		})
	}
}

// hostileIntervals are primes well below MaxMemCycles: cuts land inside
// idle skips, controller replay spans and core sleeps rather than on
// their edges.
var hostileIntervals = []int64{61, 127, 251, 509, 1021, 2039}

// drawHostileSpec samples configurations built to break the batching
// fast paths at their seams: op budgets that end a stream mid-batch or
// leave a 1-instruction tail, branch cadences coprime to the batch
// size, prime sample intervals that land cuts inside fast-forward and
// replay spans, and prewarm quotas that straddle a refill boundary.
func drawHostileSpec(rng *rand.Rand, i int) randSpec {
	// Around the 64-instruction batch: exact multiples, one-off
	// stragglers, and streams shorter than a single batch.
	hostileOps := []int64{1, 2, 63, 64, 65, 127, 128, 129, 191, 257, 321, 1025}
	sp := randSpec{
		seed:      rng.Int63n(1 << 30),
		cores:     1 + rng.Intn(3),
		pattern:   workload.Sequential,
		footprint: 1 << 20,
		workPerOp: rng.Intn(21),
	}
	if rng.Intn(2) == 0 {
		sp.pattern = workload.Random
		sp.chains = 1 + rng.Intn(3)
	}
	if rng.Intn(2) == 0 {
		sp.footprint = 1 << 26 // DRAM-sized: saturating traffic
	}
	// Branch cadence coprime to the batch size, so KindBranch items
	// drift across batch boundaries instead of repeating in phase.
	if rng.Intn(2) == 0 {
		sp.branch = []int{3, 5, 7, 9, 11, 13}[rng.Intn(6)]
		sp.mispred = float64(1+rng.Intn(10)) / 20
	}

	cfg := DefaultFor(standard.Default(), sp.cores)
	cfg.MaxMemCycles = 6_000 + rng.Int63n(6_000)
	cfg.SampleInterval = hostileIntervals[rng.Intn(len(hostileIntervals))]
	switch rng.Intn(3) {
	case 0:
		// Mid-batch Done: the finite stream ends inside a batch (or as a
		// 1-instruction tail), and the run drains to completion.
		sp.ops = hostileOps[rng.Intn(len(hostileOps))]
		cfg.MaxMemCycles = 0
	case 1:
		// Prewarm quota straddling a refill: the feed must hand back
		// exactly quota items even when that retires it mid-batch.
		cfg.PrewarmOps = []int64{1, 63, 64, 65, 127, 129}[rng.Intn(6)]
	}
	if rng.Intn(4) == 0 {
		cfg.WarmupMemCycles = cfg.MaxMemCycles / 3
	}
	sp.cfg = cfg
	sp.name = fmt.Sprintf("hostile-%03d-%dc-%s-ops%d-si%d", i, sp.cores,
		sp.pattern, sp.ops, cfg.SampleInterval)
	return sp
}

// TestGoldenBatchHostileSpecs points the two-loop oracle at the batching
// seams: every spec from drawHostileSpec must still produce
// field-identical Results and sample streams in the event-wheel loop
// and the reference per-cycle loop. The CI race job runs this under
// -race via the Golden pattern.
func TestGoldenBatchHostileSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("batch-hostile golden specs skipped in -short")
	}
	rng := rand.New(rand.NewSource(0xba7c4))
	for i := 0; i < 16; i++ {
		sp := drawHostileSpec(rng, i)
		t.Run(sp.name, func(t *testing.T) {
			goldenCompare(t, sp.name, sp.cfg, sp.live, sp.sources)
		})
	}
}

// drawStarvedSpec samples the corner where cores sleep on refused
// accesses (cpu.Core.TrySleep, cache.Hierarchy.Park): an MSHR file small
// enough that most accesses are refused, on either limit; stores, so
// RFOs, dirty evictions and the writeback backlog pass through parked
// cores; caches small enough that lines move between levels while cores
// sleep; and footprints the cores share, so one core's miss or dirty
// victim lands on the line another is parked on. Budgets, prime sample
// intervals and warm-up boundaries fall wherever they fall — with cores
// parked most of the time, mostly mid-park.
func drawStarvedSpec(rng *rand.Rand, i int) randSpec {
	names := standard.Names()
	stdName := names[rng.Intn(len(names))]
	std := standard.MustLookup(stdName)

	sp := randSpec{
		seed:      rng.Int63n(1 << 30),
		cores:     2 + rng.Intn(3),
		pattern:   workload.Sequential,
		footprint: []int{1 << 15, 1 << 18, 1 << 26}[rng.Intn(3)],
		workPerOp: rng.Intn(13),
		storeFrac: []float64{0, 0.2, 0.5}[rng.Intn(3)],
		shared:    rng.Intn(3) != 0,
	}
	if rng.Intn(2) == 0 {
		sp.pattern = workload.Random
		sp.chains = 1 + rng.Intn(8)
	}

	cfg := DefaultFor(std, sp.cores)
	cfg.Hier.PerCoreMSHRs = 1 + rng.Intn(4)
	cfg.Hier.MSHRs = 2 + rng.Intn(7)
	if all := sp.cores * cfg.Hier.PerCoreMSHRs; rng.Intn(2) == 0 && all > 2 {
		cfg.Hier.MSHRs = 2 + rng.Intn(all-2) // below cores × per-core: the shared limit binds
	}
	if rng.Intn(2) == 0 {
		// An LLC no larger than one private L2, under a footprint a few
		// times that: most lines a core holds, dirty ones included, are in
		// no other cache, so victims keep landing in the LLC.
		cfg.Hier.L1.SizeBytes, cfg.Hier.L1.Ways = 1<<10, 2
		cfg.Hier.L2.SizeBytes, cfg.Hier.L2.Ways = 4<<10, 4
		cfg.Hier.LLC.SizeBytes, cfg.Hier.LLC.Ways = 4<<10, 4
		sp.footprint = []int{1 << 13, 1 << 14, 1 << 15}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		cfg.Hier.Prefetch = prefetch.Config{}
	}
	if rng.Intn(2) == 0 {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	if rng.Intn(4) == 0 {
		// A read queue shorter than the MSHR file: the memory port refuses
		// too, and those accesses must keep their per-cycle retry.
		cfg.Ctrl.ReadQueueCap = 1 + rng.Intn(2)
	}
	cfg.MaxMemCycles = 5_000 + rng.Int63n(8_000)
	if rng.Intn(2) == 0 {
		cfg.SampleInterval = hostileIntervals[rng.Intn(len(hostileIntervals))]
		sp.live = rng.Intn(2) == 0
	}
	if rng.Intn(3) == 0 {
		cfg.WarmupMemCycles = cfg.MaxMemCycles / int64(2+rng.Intn(3))
	}
	if rng.Intn(4) == 0 {
		cfg.PrewarmOps = 1 << 10
	}
	if rng.Intn(4) == 0 {
		sp.ops = 200 + rng.Int63n(800)
		cfg.MaxMemCycles = 0
	}
	sp.cfg = cfg
	sp.name = fmt.Sprintf("starved-%03d-%s-%dc-%s-st%v-mshr%d.%d", i, stdName, sp.cores,
		sp.pattern, sp.storeFrac, cfg.Hier.PerCoreMSHRs, cfg.Hier.MSHRs)
	if sp.shared {
		sp.name += "-shared"
	}
	return sp
}

// TestGoldenParkedRetries points the two-loop oracle at parked retries:
// the reference loop re-presents every refused access every cycle, the
// event-wheel loop sleeps through them and replays them in closed form
// when the hierarchy wakes the core, and every Result field, private
// cache counter and sample stream must still be identical. The suite
// must also actually park, wake and re-park, or it proves nothing. The
// CI race job runs this under -race via the Golden pattern.
func TestGoldenParkedRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("parked-retry golden specs skipped in -short")
	}
	rng := rand.New(rand.NewSource(0x9a12ced))
	var total cpu.SleepStats
	for i := 0; i < 120; i++ {
		sp := drawStarvedSpec(rng, i)
		t.Run(sp.name, func(t *testing.T) {
			total.Add(goldenCompare(t, sp.name, sp.cfg, sp.live, sp.sources))
		})
	}
	t.Logf("suite total: %+v", total)
	if total.ParkedCycles < 4*total.Retries || total.SpuriousWakes == 0 || total.StallCycles == 0 {
		t.Errorf("the suite barely exercises parking: %+v", total)
	}
}

// starvedConfig is one machine on which cores are parked nearly all the
// time: two MSHRs each, three shared by three cores, every access a miss.
func starvedConfig() (Config, func() []cpu.Source) {
	cfg := Default(3)
	cfg.Hier.PerCoreMSHRs = 2
	cfg.Hier.MSHRs = 3
	mk := func() []cpu.Source { return SyntheticSources(workload.Random, 3, 0.2) }
	return cfg, mk
}

// TestGoldenParkCuts cuts a run where parking is most exposed: a prime
// sample interval and a warm-up boundary that land while cores are parked
// (each cut must replay the retries skipped so far without ending the
// sleep), and a cycle budget that runs out mid-park. Both loops must
// agree, and the cuts must really have fallen mid-park.
func TestGoldenParkCuts(t *testing.T) {
	cfg, mk := starvedConfig()
	cfg.MaxMemCycles = 9_001
	cfg.WarmupMemCycles = 2_003
	cfg.SampleInterval = 61
	end := goldenCompare(t, "park cuts", cfg, true, mk)
	if end.Parks <= end.Wakes {
		t.Errorf("the budget did not end mid-park: %+v", end)
	}

	// The same run again, asking at every cut whether a core was parked.
	var sys *System
	cuts, midPark := 0, 0
	sys, err := newObserved(cfg, mk(), func(stacks.Sample) {
		cuts++
		if ss := sys.SleepStats(); ss.Parks > ss.Wakes {
			midPark++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if midPark < cuts/2 {
		t.Errorf("%d of %d sample cuts fell mid-park, want most", midPark, cuts)
	}
}

// coastSources returns one stream per core built from base — a DRAM-sized
// footprint with enough plain work between memory operations that a
// saturated core's steady cycle is "retire Width, dispatch Width".
func coastSources(cores int, base func() workload.SyntheticConfig, edit func(*workload.SyntheticConfig)) func() []cpu.Source {
	return func() []cpu.Source {
		var out []cpu.Source
		for i := 0; i < cores; i++ {
			wc := base()
			wc.BaseAddr = uint64(i)*(256<<20) + uint64(i)*8192
			wc.Seed = int64(i + 1)
			if edit != nil {
				edit(&wc)
			}
			out = append(out, workload.MustSynthetic(wc))
		}
		return out
	}
}

// coasting counts the cores that are asleep at CPU cycle now with a
// deadline ahead of them: not due now, due eventually — which a core
// asleep on the memory system never is until it is due at once, and a
// finished one never.
func coasting(s *System, now int64) int {
	n := 0
	for _, c := range s.cores {
		if c.Asleep() && !c.Due(now) && c.Due(math.MaxInt64-1) {
			n++
		}
	}
	return n
}

// midSleep counts the cores that are asleep at CPU cycle now and not due,
// in the kind of sleep whose cycles slept picks out of the statistics:
// replaying one more cycle lands there. That is one more cut — legal
// anywhere in a sleep to a deadline, and in any sleep once the run is over.
func midSleep(s *System, now int64, slept func(cpu.SleepStats) int64) int {
	n := 0
	for _, c := range s.cores {
		if !c.Asleep() || c.Due(now) {
			continue
		}
		before := slept(c.SleepStats())
		c.SyncSleep(now + 1)
		if slept(c.SleepStats()) > before {
			n++
		}
	}
	return n
}

// midWindow counts the cores that are asleep inside a single-load window
// at CPU cycle now.
func midWindow(s *System, now int64) int {
	return midSleep(s, now, func(ss cpu.SleepStats) int64 { return ss.WindowCycles })
}

// TestGoldenCoastCuts cuts runs where sleeping to a deadline is most
// exposed, with sample intervals of 1, 7 and 97 memory cycles and a prime
// warm-up boundary landing inside the sleeps (each cut must replay the
// elapsed prefix, by the reason the sleep began for, without ending it)
// and a budget that runs out inside one. The saturating shapes spend most
// awake cycles inside ALU dispatch streaks — on the default and the
// in-order core, with stores, with mispredicted branches, on HBM2's
// pseudo-channels and on two channels; the cache-resident ones sleep
// through single-load windows, fetch bubbles and, once their streams have
// ended, forever. Both loops must agree, every shape must really sleep
// the way it is meant to, and cuts and the budget must really have fallen
// mid-sleep.
func TestGoldenCoastCuts(t *testing.T) {
	seq, strided, hog := workload.DefaultSequential, workload.DefaultStrided, workload.DefaultBWHog
	// The benchmark's lowutil-4c geometry.
	resident := func() workload.SyntheticConfig {
		return workload.SyntheticConfig{Pattern: workload.Sequential, WorkPerOp: 60, FootprintBytes: 1 << 14, StrideBytes: 64}
	}
	prewarm := func(c *Config) { c.PrewarmOps = 1 << 12 }
	shapes := []struct {
		name     string
		std      string
		interval int64
		base     func() workload.SyntheticConfig
		edit     func(*workload.SyntheticConfig)
		cfg      func(*Config)
		// windows marks a cache-resident shape: it must sleep through
		// windows, not streaks. ends: its streams do, before the budget.
		windows, ends bool
	}{
		{name: "seq-si1", interval: 1, base: seq},
		{name: "seq-si7", interval: 7, base: seq},
		{name: "seq-si97", interval: 97, base: seq},
		{name: "strided-si7", interval: 7, base: strided},
		{name: "bwhog-work24-si97", interval: 97, base: hog, edit: func(wc *workload.SyntheticConfig) { wc.WorkPerOp = 24 }},
		{name: "inorder-si7", interval: 7, base: seq, cfg: func(c *Config) { c.Core = cpu.InOrderConfig() }},
		{name: "stores-si7", interval: 7, base: seq, edit: func(wc *workload.SyntheticConfig) { wc.StoreFrac = 0.2 }},
		{name: "mispredicts-si1", interval: 1, base: seq, edit: func(wc *workload.SyntheticConfig) {
			wc.BranchEvery, wc.MispredictRate = 3, 0.3
		}},
		{name: "hbm2-si7", std: "hbm2-2000", interval: 7, base: seq, edit: func(wc *workload.SyntheticConfig) { wc.StoreFrac = 0.2 }},
		{name: "two-channels-si97", interval: 97, base: seq, cfg: func(c *Config) { c.Channels = 2 }},
		{name: "resident-si1", interval: 1, base: resident, cfg: prewarm, windows: true},
		{name: "resident-si7", interval: 7, base: resident, cfg: prewarm, windows: true},
		{name: "resident-si97", interval: 97, base: resident, cfg: prewarm, windows: true},
		{name: "resident-mispredicts-si7", interval: 7, base: resident, cfg: prewarm, windows: true,
			edit: func(wc *workload.SyntheticConfig) { wc.BranchEvery, wc.MispredictRate = 3, 0.3 }},
		{name: "resident-inorder-si7", interval: 7, base: resident, windows: true,
			cfg: func(c *Config) { c.Core, c.PrewarmOps = cpu.InOrderConfig(), 1<<12 }},
		{name: "resident-finite-si7", interval: 7, base: resident, cfg: prewarm, windows: true, ends: true,
			// 1<<12 operations prewarm; the rest end core by core.
			edit: func(wc *workload.SyntheticConfig) { wc.Ops = 1<<12 + 100*wc.Seed }},
	}
	cutsMidCoast, endsMidCoast := 0, 0
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			const cores = 8 // enough sequential streams to saturate the channel
			cfg := Default(cores)
			if sh.std != "" {
				cfg = DefaultFor(standard.MustLookup(sh.std), cores)
			}
			if sh.cfg != nil {
				sh.cfg(&cfg)
			}
			cfg.MaxMemCycles = 5_003
			cfg.WarmupMemCycles = 1_009
			cfg.SampleInterval = sh.interval
			mk := coastSources(cores, sh.base, sh.edit)
			ss := goldenCompare(t, sh.name, cfg, true, mk)
			switch {
			case !sh.windows:
				if ss.Coasts == 0 || ss.CoastCycles < 3*ss.Coasts {
					t.Errorf("the shape barely coasts: %+v", ss)
				}
			case ss.WindowCycles == 0 || ss.Slept() < 5*ss.Ticks || sh.ends != (ss.IdleCycles > 0) ||
				sh.edit != nil && !sh.ends && ss.BubbleCycles == 0:
				t.Errorf("the shape barely sleeps, or not through windows, bubbles or its end: %+v", ss)
			}

			// The same run again, asking at every cut and at the end whether
			// a core was coasting, or inside a window.
			var sys *System
			mid := coasting
			if sh.windows {
				mid = midWindow
			}
			cutsMid, endsMid := 0, 0
			sys, err := newObserved(cfg, mk(), func(smp stacks.Sample) {
				// The last sample is cut when the budget runs out.
				endsMid = 0
				if mid(sys, smp.End*int64(cfg.CPUMult)) > 0 {
					cutsMid++
					endsMid = 1
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			switch {
			case !sh.windows:
				cutsMidCoast += cutsMid
				endsMidCoast += endsMid
			case cutsMid == 0 || endsMid == 0 && !sh.ends:
				t.Errorf("%d sample cuts and %d budgets fell mid-window", cutsMid, endsMid)
			}
		})
	}
	t.Logf("%d sample cuts and %d budgets of the saturating shapes fell mid-coast", cutsMidCoast, endsMidCoast)
	if cutsMidCoast < 1_000 || endsMidCoast == 0 {
		t.Errorf("%d sample cuts and %d budgets fell mid-coast, want many and some", cutsMidCoast, endsMidCoast)
	}
}

// TestSampleIntervalInvariance pins the sampler-cut behavior at
// fast-forward boundaries: cutting through-time samples is observation,
// so the simulated outcome — every Result field except the sample
// streams themselves — must be bit-identical whatever SampleInterval
// is, including intervals that land a cut exactly on the final cycle
// of an idle skip or replay span. A drifting stack or statistic under a
// changed interval would mean a span was split differently by the cut
// (the off-by-one this test exists to catch).
func TestSampleIntervalInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-interval invariance skipped in -short")
	}
	rng := rand.New(rand.NewSource(0x5a41e))
	for i := 0; i <= 10; i++ {
		// Ten drawn specs, then one shape the draw cannot produce (it
		// stops at 60 uops an op): saturating streams that coast through
		// 140-uop runs, so cuts land inside streaks.
		sp := randSpec{name: "010-coasting", cfg: Default(4), seed: 1, cores: 4,
			pattern: workload.Sequential, footprint: 1 << 26, workPerOp: 140}
		sp.cfg.MaxMemCycles = 7_001
		if i < 10 {
			sp = drawSpec(rng, i)
		}
		run := func(interval int64) *Result {
			c := sp.cfg
			c.SampleInterval = interval
			sys, err := newSystem(c, sp.sources(), nil)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			res := sys.Run()
			// Strip everything observation-only before comparing.
			res.Cfg = Config{}
			res.BWSamples = nil
			res.CycleSamples = nil
			return res
		}
		base := run(0)
		cycles := base.MemCycles
		intervals := []int64{1 + rng.Int63n(97), 509}
		if cycles > 1 {
			// An interval dividing the run puts a cut on the very last
			// cycle; an interval of cycles-1 puts one right before it.
			intervals = append(intervals, cycles, cycles-1, cycles/2)
		}
		for _, iv := range intervals {
			if iv <= 0 {
				continue
			}
			got := run(iv)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: Result changed when sampling every %d cycles", sp.name, iv)
			}
		}
	}
}
