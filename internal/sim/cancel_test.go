package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

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
	sys, err := NewFromConfig(cfg, SyntheticSources(workload.Sequential, 1, 0))
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
	sys, err := NewFromConfig(cfg, SyntheticSources(workload.Sequential, 1, 0))
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
	cfg.OnSample = func(s stacks.Sample) { live = append(live, s.End) }
	sys, err := NewFromConfig(cfg, SyntheticSources(workload.Sequential, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(live) != len(res.BWSamples) {
		t.Fatalf("OnSample saw %d samples, result has %d", len(live), len(res.BWSamples))
	}
	for i, s := range res.BWSamples {
		if live[i] != s.End {
			t.Errorf("sample %d: streamed End %d, result End %d", i, live[i], s.End)
		}
	}
}

// TestGoldenCancelMidPark cancels a run while cores sleep on parked
// accesses: the partial result must replay every retry skipped up to the
// cancellation, exactly as the per-cycle loop counted them. The context
// is cancelled from the sample hook, so both loops see it at the same
// poll (every 1024 memory cycles) and stop on the same cycle.
func TestGoldenCancelMidPark(t *testing.T) {
	cfg, mk := starvedConfig()
	cfg.MaxMemCycles = 1 << 40
	cfg.SampleInterval = 1_500
	run := func(slow bool) (*Result, *System) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := cfg
		c.OnSample = func(s stacks.Sample) {
			if s.End >= 3_000 {
				cancel()
			}
		}
		sys, err := NewFromConfig(c, mk())
		if err != nil {
			t.Fatal(err)
		}
		sys.slow = slow
		res := sys.RunContext(ctx)
		res.Cfg.OnSample = nil
		return res, sys
	}
	fast, sys := run(false)
	slow, _ := run(true)
	if !fast.Cancelled || fast.MemCycles != 3_072 {
		t.Fatalf("cancelled = %v after %d cycles, want the poll at 3072", fast.Cancelled, fast.MemCycles)
	}
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
// loop ticked it. Cancelled from the sample hook like
// TestGoldenCancelMidPark, so both loops stop on the same cycle.
func TestGoldenCancelMidCoast(t *testing.T) {
	cfg := Default(8)
	cfg.MaxMemCycles = 1 << 40
	cfg.SampleInterval = 1_500
	run := func(slow bool) (*Result, *System) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := cfg
		c.OnSample = func(s stacks.Sample) {
			if s.End >= 3_000 {
				cancel()
			}
		}
		sys, err := NewFromConfig(c, SyntheticSources(workload.Sequential, 8, 0))
		if err != nil {
			t.Fatal(err)
		}
		sys.slow = slow
		res := sys.RunContext(ctx)
		res.Cfg.OnSample = nil
		return res, sys
	}
	fast, sys := run(false)
	slow, _ := run(true)
	if !fast.Cancelled || fast.MemCycles != 3_072 {
		t.Fatalf("cancelled = %v after %d cycles, want the poll at 3072", fast.Cancelled, fast.MemCycles)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("cancelled results differ:\n fast: %+v\n slow: %+v", fast.CycleStacks, slow.CycleStacks)
	}
	if n := coasting(sys, fast.MemCycles*int64(cfg.CPUMult)); n == 0 {
		t.Errorf("the run was not cancelled mid-coast: %+v", sys.SleepStats())
	}
}
