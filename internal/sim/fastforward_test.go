package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// goldenCompare runs the same configuration through the fast-forwarding
// loop and the reference per-cycle loop and requires byte-identical
// results: every stack, sample, histogram and statistic, including the
// private cache levels' counters, which Result does not carry. With live
// set each run has a sample subscriber, and the two published streams must
// be identical too. mk must return a fresh, identical source set on each
// call. Each run must also satisfy the paper's three accounting
// identities by itself (checkIdentities): agreeing with the other loop is
// not being right. It returns what the fast loop's cores slept through, so
// a suite can tell it was not vacuous.
func goldenCompare(t *testing.T, name string, cfg Config, live bool, mk func() []cpu.Source) cpu.SleepStats {
	t.Helper()

	var fastSamples, slowSamples []stacks.Sample
	run := func(slow bool, sink *[]stacks.Sample) (*Result, *System) {
		opts := []Option{WithConfig(cfg), WithSources(mk()...)}
		if live {
			opts = append(opts, WithSampleFunc(func(s stacks.Sample) { *sink = append(*sink, s) }))
		}
		sys, err := New(standard.Default(), opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := runLoop(context.Background(), sys, slow)
		checkIdentities(t, name, sys, res, func() int64 {
			c := cfg
			c.MaxMemCycles += 50_000
			longer, err := newSystem(c, mk(), nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return longer.Run().LatHist.Max()
		})
		// Function fields never compare equal; everything else must.
		res.Cfg.Trace = nil
		return res, sys
	}
	fast, fastSys := run(false, &fastSamples)
	slow, slowSys := run(true, &slowSamples)

	if !reflect.DeepEqual(fastSamples, slowSamples) {
		t.Errorf("%s: published sample streams differ (fast %d, slow %d)",
			name, len(fastSamples), len(slowSamples))
	}
	fh, sh := fastSys.Hierarchy(), slowSys.Hierarchy()
	for c := 0; c < cfg.Cores; c++ {
		if fh.L1Stats(c) != sh.L1Stats(c) || fh.L2Stats(c) != sh.L2Stats(c) {
			t.Errorf("%s: core %d private cache stats differ:\n fast: %+v %+v\n slow: %+v %+v",
				name, c, fh.L1Stats(c), fh.L2Stats(c), sh.L1Stats(c), sh.L2Stats(c))
		}
	}
	// Every refused access is either made by an awake core or skipped by
	// a parked one, in both loops (the reference loop never parks).
	sleep := fastSys.SleepStats()
	if sleep.ParkedCycles+sleep.Retries != fast.HierStats.Retries {
		t.Errorf("%s: %d parked + %d literal retries, hierarchy counted %d",
			name, sleep.ParkedCycles, sleep.Retries, fast.HierStats.Retries)
	}
	if ss := slowSys.SleepStats(); ss.ParkedCycles != 0 || ss.Retries != slow.HierStats.Retries {
		t.Errorf("%s: reference loop: %d parked, %d literal retries, hierarchy counted %d",
			name, ss.ParkedCycles, ss.Retries, slow.HierStats.Retries)
	}
	// Every core cycle of the event loop is either ticked or slept
	// through, for one reason; the reference loop ticks them all.
	cycles := fast.MemCycles * int64(cfg.CPUMult) * int64(cfg.Cores)
	if sleep.Ticks+sleep.Slept() != cycles {
		t.Errorf("%s: %d ticks + %d slept cycles, the run has %d core cycles: %+v",
			name, sleep.Ticks, sleep.Slept(), cycles, sleep)
	}
	if ss := slowSys.SleepStats(); ss.Ticks != cycles || ss.Slept() != 0 || ss.Sleeps != 0 {
		t.Errorf("%s: reference loop slept, or ticked other than %d core cycles: %+v", name, cycles, ss)
	}
	if reflect.DeepEqual(fast, slow) {
		return sleep
	}
	ft, fv, sv := reflect.TypeOf(*fast), reflect.ValueOf(*fast), reflect.ValueOf(*slow)
	for i := 0; i < ft.NumField(); i++ {
		if !reflect.DeepEqual(fv.Field(i).Interface(), sv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s differs:\n fast: %+v\n slow: %+v",
				name, ft.Field(i).Name, fv.Field(i).Interface(), sv.Field(i).Interface())
		}
	}
	return sleep
}

// checkIdentities applies the paper's accounting identities to one run:
// every channel cycle in exactly one bandwidth component, per controller
// and in aggregate; every cycle of every read's latency in exactly one
// latency component, against the totals the histogram recorded on its
// own; and every core cycle in exactly one cycle-stack component. The last
// is exact only for a run that ends by itself: cpu charges a DRAM stall to
// the total at once and splits it over the components when the load
// retires, so a run cut off at its budget leaves each core's head-of-ROB
// stall unattributed. That shortfall is bounded as the repository
// benchmark's checkResult bounds it: nothing attributed twice, and a core
// short of no more than twice the longest read the run completed. These
// runs are short enough that the read a core waits for at the cut is now
// and then older than any that completed (2 specs of the ~200); the
// longest read is then taken from the same run given 50 000 more cycles,
// which longerRun makes and which completes that read.
func checkIdentities(t *testing.T, name string, sys *System, res *Result, longerRun func() int64) {
	t.Helper()
	if err := res.BW.CheckSum(); err != nil {
		t.Errorf("%s: bandwidth stack: %v", name, err)
	}
	for ch, bw := range res.PerChannelBW {
		if err := bw.CheckSum(); err != nil {
			t.Errorf("%s: bandwidth stack of channel %d: %v", name, ch, err)
		}
	}

	// Result.Lat excludes the warm-up and the histogram does not, so the
	// controllers' whole-run stacks are the ones to hold against it.
	var lat stacks.LatencyStack
	for _, ctrl := range sys.ctrls {
		lat.Add(ctrl.LatencyStack())
	}
	sum := 0.0
	for c, v := range lat.SumCycles {
		if v < -1e-9 {
			t.Errorf("%s: latency component %v is negative: %f", name, stacks.LatComponent(c), v)
		}
		sum += v
	}
	total := res.LatHist.Mean() * float64(res.LatHist.Count())
	if lat.Reads != res.LatHist.Count() || math.Abs(sum-total) > 1e-6*total+1e-6 {
		t.Errorf("%s: latency components sum to %.3f cycles over %d reads, the reads took %.3f over %d",
			name, sum, lat.Reads, total, res.LatHist.Count())
	}

	cutOff := res.Cfg.MaxMemCycles > 0 && res.MemCycles >= res.Cfg.MaxMemCycles
	longest, extended := res.LatHist.Max(), false
	for i, cs := range res.CycleStacks {
		err := cs.CheckSum()
		if err == nil {
			continue
		}
		attributed, negative := 0.0, false
		for _, v := range cs.Cycles {
			attributed += v
			negative = negative || v < -1e-6
		}
		short := math.Round((float64(cs.Total)-attributed)*1e6) / 1e6
		oneStall := func() float64 { return 2 * float64(longest) * float64(res.Cfg.CPUMult) }
		if cutOff && !negative && short > oneStall() && !extended {
			longest, extended = longerRun(), true
		}
		if !cutOff || negative || short < 0 || short > oneStall() {
			t.Errorf("%s: cycle stack of core %d (cut off %v, %.6f cycles short, one stall %.0f): %v",
				name, i, cutOff, short, oneStall(), err)
		}
	}
}

// cacheResident returns sources whose footprint fits in the caches: after
// prewarm the cores run without DRAM traffic, so nearly every memory
// cycle is provably idle and the fast loop spends the run fast-forwarding
// across refresh deadlines.
func cacheResident(cores int, workPerOp int, branchEvery int, mispredict float64) func() []cpu.Source {
	return func() []cpu.Source {
		var sources []cpu.Source
		for i := 0; i < cores; i++ {
			sources = append(sources, workload.MustSynthetic(workload.SyntheticConfig{
				Pattern:        workload.Sequential,
				WorkPerOp:      workPerOp,
				FootprintBytes: 1 << 14,
				StrideBytes:    64,
				BranchEvery:    branchEvery,
				MispredictRate: mispredict,
				BaseAddr:       uint64(i) * (256 << 20),
				Seed:           int64(i + 1),
			}))
		}
		return sources
	}
}

// TestGoldenLowUtilIdle is the primary fast-forward exercise: a
// cache-resident compute-bound core leaves the controller idle for
// essentially the whole run, so the fast loop covers it with bulk idle
// accounting punctuated only by refresh ticks — across warmup and sample
// boundaries.
func TestGoldenLowUtilIdle(t *testing.T) {
	cfg := Default(1)
	cfg.MaxMemCycles = 80_000
	cfg.WarmupMemCycles = 15_000
	cfg.SampleInterval = 10_000
	cfg.PrewarmOps = 1 << 12
	goldenCompare(t, "low-util idle", cfg, false, cacheResident(1, 60, 0, 0))
}

// TestGoldenBranchBubble adds frequent branch mispredictions with nothing
// in flight, the state the whole-system skip fast-forwards as pipeline
// refill (Branch) cycles.
func TestGoldenBranchBubble(t *testing.T) {
	cfg := Default(1)
	cfg.MaxMemCycles = 60_000
	cfg.SampleInterval = 7_000
	cfg.PrewarmOps = 1 << 12
	goldenCompare(t, "branch bubble", cfg, false, cacheResident(1, 0, 3, 0.5))
}

// TestGoldenDrainToDone runs a finite DRAM-bound workload to completion
// (MaxMemCycles = 0), covering the done() exit and the post-drain idle
// tail under fast-forwarding.
func TestGoldenDrainToDone(t *testing.T) {
	cfg := Default(1)
	cfg.MaxMemCycles = 0
	cfg.SampleInterval = 5_000
	mk := func() []cpu.Source {
		wc := workload.DefaultSequential()
		wc.Ops = 1_500
		return []cpu.Source{workload.MustSynthetic(wc)}
	}
	goldenCompare(t, "drain to done", cfg, false, mk)
}

// TestGoldenMultichannelSampling drives two channels from two cores with
// warmup, periodic samples and a live sample subscriber; per-channel
// lazy catch-up must keep every published sample byte-identical.
func TestGoldenMultichannelSampling(t *testing.T) {
	cfg := Default(2)
	cfg.Channels = 2
	cfg.MaxMemCycles = 100_000
	cfg.WarmupMemCycles = 20_000
	cfg.SampleInterval = 10_000
	cfg.PrewarmOps = 1 << 12
	mk := func() []cpu.Source { return SyntheticSources(workload.Random, 2, 0.2) }
	goldenCompare(t, "multichannel sampling", cfg, true, mk)
}

// TestGoldenPatternPolicyMatrix sweeps the paper's Fig. 2/4 axes
// (sequential/random crossed with open/closed page policy) on a reduced
// budget; DRAM-bound phases interleave with idle gaps on the low-MLP
// random pattern.
func TestGoldenPatternPolicyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short")
	}
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, pol := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.ClosedPage} {
			cfg := Default(1)
			cfg.Ctrl.Policy = pol
			cfg.MaxMemCycles = 60_000
			cfg.SampleInterval = 15_000
			cfg.PrewarmOps = 1 << 16
			pat := pat
			mk := func() []cpu.Source { return SyntheticSources(pat, 1, 0) }
			goldenCompare(t, pat.String()+"/"+pol.String(), cfg, false, mk)
		}
	}
}
