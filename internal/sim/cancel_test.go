package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dramstacks/internal/cpu"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// TestRunContextCancel proves a cancelled run returns promptly with a
// partial, warmup-consistent result: the budget is far larger than what
// could simulate within the test deadline, the stacks cover only the
// post-warmup cycles actually executed, and the bandwidth-stack invariant
// (components sum to total cycles) still holds.
func TestRunContextCancel(t *testing.T) {
	cfg := Default(1)
	cfg.MaxMemCycles = 1 << 40 // would take hours; cancellation must cut it short
	cfg.WarmupMemCycles = 5_000
	cfg.SampleInterval = 10_000
	sys, err := newSystem(cfg, SyntheticSources(workload.Sequential, 1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)

	start := time.Now()
	resCh := make(chan *Result, 1)
	go func() { resCh <- sys.RunContext(ctx) }()
	var res *Result
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
	elapsed := time.Since(start)

	if !res.Cancelled {
		t.Error("Result.Cancelled = false, want true")
	}
	if res.MemCycles >= cfg.MaxMemCycles {
		t.Errorf("run consumed the whole %d-cycle budget", cfg.MaxMemCycles)
	}
	if res.MemCycles <= cfg.WarmupMemCycles {
		t.Errorf("run stopped inside warmup after %d cycles", res.MemCycles)
	}
	// Warmup consistency: the reported stack covers exactly the
	// post-warmup interval and still satisfies the sum invariant.
	if got, want := res.BW.TotalCycles, res.MemCycles-cfg.WarmupMemCycles; got != want {
		t.Errorf("BW.TotalCycles = %d, want %d (MemCycles - warmup)", got, want)
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Errorf("partial bandwidth stack inconsistent: %v", err)
	}
	if len(res.BWSamples) == 0 {
		t.Error("no through-time samples despite SampleInterval")
	}
	t.Logf("cancelled after %d mem cycles in %v", res.MemCycles, elapsed)
}

// TestRunContextNilDoneFinishes checks the uncancellable context path is
// unaffected: Run (background context) completes on the cycle budget.
func TestRunContextCompletesOnBudget(t *testing.T) {
	cfg := Default(1)
	cfg.MaxMemCycles = 20_000
	sys, err := newSystem(cfg, SyntheticSources(workload.Sequential, 1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Cancelled {
		t.Error("uncancelled run reports Cancelled")
	}
	if res.MemCycles != cfg.MaxMemCycles {
		t.Errorf("MemCycles = %d, want %d", res.MemCycles, cfg.MaxMemCycles)
	}
}

// TestOnSampleStreams checks the live sample hook sees every sample the
// final result carries, in order.
func TestOnSampleStreams(t *testing.T) {
	cfg := Default(1)
	cfg.MaxMemCycles = 50_000
	cfg.SampleInterval = 10_000
	var live []int64
	sys, err := newObserved(cfg, SyntheticSources(workload.Sequential, 1, 0),
		func(s stacks.Sample) { live = append(live, s.End) })
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(live) != len(res.BWSamples) {
		t.Fatalf("the sample hook saw %d samples, result has %d", len(live), len(res.BWSamples))
	}
	for i, s := range res.BWSamples {
		if live[i] != s.End {
			t.Errorf("sample %d: streamed End %d, result End %d", i, live[i], s.End)
		}
	}
}

// runCancelled runs cfg with a 1<<40 budget on one loop and cancels it
// from the sample hook once 3000 memory cycles have been sampled, so both
// loops see the cancellation at the same poll (every 1024 memory cycles)
// and must stop on the same cycle, 3072.
func runCancelled(t *testing.T, cfg Config, mk func() []cpu.Source, slow bool, opts ...Option) (*Result, *System) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.MaxMemCycles = 1 << 40
	cfg.SampleInterval = 1_500
	sys, err := newObserved(cfg, mk(), func(s stacks.Sample) {
		if s.End >= 3_000 {
			cancel()
		}
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res := runLoop(ctx, sys, slow)
	if !res.Cancelled || res.MemCycles != 3_072 {
		t.Fatalf("slow %v: cancelled = %v after %d cycles, want the poll at 3072", slow, res.Cancelled, res.MemCycles)
	}
	return res, sys
}

// TestGoldenCancelMidPark cancels a run while cores sleep on parked
// accesses: the partial result must replay every retry skipped up to the
// cancellation, exactly as the per-cycle loop counted them.
func TestGoldenCancelMidPark(t *testing.T) {
	cfg, mk := starvedConfig()
	fast, sys := runCancelled(t, cfg, mk, false)
	slow, _ := runCancelled(t, cfg, mk, true)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("cancelled results differ:\n fast: %+v\n slow: %+v", fast.HierStats, slow.HierStats)
	}
	ss := sys.SleepStats()
	if ss.Parks <= ss.Wakes {
		t.Errorf("the run was not cancelled mid-park: %+v", ss)
	}
	if ss.ParkedCycles+ss.Retries != fast.HierStats.Retries {
		t.Errorf("%d parked + %d literal retries, hierarchy counted %d", ss.ParkedCycles, ss.Retries, fast.HierStats.Retries)
	}
}

// TestGoldenCancelMidCoast cancels a run while cores coast through ALU
// dispatch streaks: the partial result must hold exactly the prefix of
// each streak that had elapsed at the cancellation, as the per-cycle
// loop ticked it.
func TestGoldenCancelMidCoast(t *testing.T) {
	cfg := Default(8)
	mk := func() []cpu.Source { return SyntheticSources(workload.Sequential, 8, 0) }
	fast, sys := runCancelled(t, cfg, mk, false)
	slow, _ := runCancelled(t, cfg, mk, true)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("cancelled results differ:\n fast: %+v\n slow: %+v", fast.CycleStacks, slow.CycleStacks)
	}
	if n := coasting(sys, fast.MemCycles*int64(cfg.CPUMult)); n == 0 {
		t.Errorf("the run was not cancelled mid-coast: %+v", sys.SleepStats())
	}
}

// TestGoldenCancelIdleMemory cancels a run whose memory system idles:
// the cores are cache resident and asleep most of the time, so the event
// loop's memory cycle moves from one wheel event to the next — sample
// cuts and refresh deadlines, which share few multiples with 1024. The
// poll is one of those events itself, or the run would overshoot the
// cancellation by up to lcm(tREFI, 1024) cycles.
func TestGoldenCancelIdleMemory(t *testing.T) {
	cfg := Default(4)
	cfg.PrewarmOps = 1 << 12
	mk := cacheResident(4, 60, 0, 0)
	fast, sys := runCancelled(t, cfg, mk, false)
	slow, _ := runCancelled(t, cfg, mk, true)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("cancelled results differ:\n fast: %+v\n slow: %+v", fast.CycleStacks, slow.CycleStacks)
	}
	if ss := sys.SleepStats(); fast.CtrlStats.EnqueuedReads != 0 || ss.WindowCycles < 10*ss.Ticks {
		t.Errorf("the memory system was not idle with the cores asleep: %d reads, %+v", fast.CtrlStats.EnqueuedReads, ss)
	}
}
