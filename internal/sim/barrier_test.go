package sim

import (
	"fmt"
	"reflect"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/gap"
	"dramstacks/internal/graph"
	"dramstacks/internal/stacks"
)

// gapSources returns fresh sources of one GAP kernel over a small uniform
// graph: barrier-coupled (a core's stream depends on when the others poll
// theirs) and cpu.BarrierSources, which the event loop's cores sleep on.
func gapSources(t *testing.T, kernel string, n, cores int) func() []cpu.Source {
	t.Helper()
	g := graph.Uniform(n, 4, 11)
	if err := gap.Prepare(kernel, g); err != nil {
		t.Fatal(err)
	}
	return func() []cpu.Source {
		r, _, err := gap.Build(kernel, g, cores)
		if err != nil {
			t.Fatal(err)
		}
		return r.Sources()
	}
}

// TestGoldenBarrierSources runs GAP kernels through both loops: whole,
// so that the poll that ends the kernel has sleepers to wake, and cut —
// sample intervals of 1, 7 and 97 memory cycles, a prime warm-up boundary
// and a budget that runs out while a core sleeps at a barrier, found by a
// scouting run. On several cores some cycles must be slept at a barrier;
// on one core there is nobody to wait for.
func TestGoldenBarrierSources(t *testing.T) {
	for _, kernel := range []string{"bfs", "pr", "cc", "tc"} {
		for _, cores := range []int{1, 2, 3, 4, 8} {
			name := fmt.Sprintf("%s-%dc", kernel, cores)
			mk := gapSources(t, kernel, 384, cores)
			cfg := Default(cores)
			mult := int64(cfg.CPUMult)

			// Scout: how long the run is and, at each cut, whether some core
			// slept at a barrier through the whole interval before it and
			// still does. Bounded, so that a lost wake-up fails and does not
			// hang.
			cfg.MaxMemCycles = 1 << 20
			cfg.SampleInterval = 3
			var sys *System
			var midBarrier []int64
			prev := make([]cpu.SleepStats, cores)
			sys, err := newObserved(cfg, mk(), func(smp stacks.Sample) {
				for i, c := range sys.cores {
					ss := c.SleepStats()
					if c.Asleep() && !c.Due(smp.End*mult) && ss.Ticks == prev[i].Ticks && ss.BarrierCycles > prev[i].BarrierCycles {
						midBarrier = append(midBarrier, smp.End)
					}
					prev[i] = ss
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			total := sys.Run().MemCycles
			if total >= cfg.MaxMemCycles {
				t.Fatalf("%s: the kernel did not finish in %d memory cycles", name, total)
			}
			budget := total * 2 / 3
			if cores > 1 {
				// The barrier instant nearest the middle of the run.
				if len(midBarrier) == 0 {
					t.Fatalf("%s: no core is ever asleep at a barrier at a sample cut", name)
				}
				budget = midBarrier[0]
				for _, m := range midBarrier {
					if abs(m-total/2) < abs(budget-total/2) {
						budget = m
					}
				}
			}

			check := func(row string, ss cpu.SleepStats) {
				if (cores > 1) != (ss.BarrierCycles > 0) {
					t.Errorf("%s: %d cores slept %d cycles at a barrier: %+v", row, cores, ss.BarrierCycles, ss)
				}
			}
			cfg = Default(cores)
			cfg.SampleInterval = 97
			check(name+"/whole", goldenCompare(t, name+"/whole", cfg, false, mk))
			for _, si := range []int64{1, 7, 97} {
				cfg := Default(cores)
				cfg.MaxMemCycles = budget
				cfg.WarmupMemCycles = 211
				cfg.SampleInterval = si
				row := fmt.Sprintf("%s/cut-%d-si%d", name, budget, si)
				check(row, goldenCompare(t, row, cfg, true, mk))
			}
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestGoldenCancelMidBarrier cancels a run while cores sleep at a barrier
// — the one that ends tc's single phase, where every core that finishes
// its share waits for the slowest: the partial result must hold exactly
// the idle cycles that had elapsed at the cancellation, as the per-cycle
// loop polled through them.
func TestGoldenCancelMidBarrier(t *testing.T) {
	cfg := Default(4)
	mk := gapSources(t, "tc", 512, 4)
	fast, sys := runCancelled(t, cfg, mk, false)
	slow, _ := runCancelled(t, cfg, mk, true)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("cancelled results differ:\n fast: %+v\n slow: %+v", fast.CycleStacks, slow.CycleStacks)
	}
	atBarrier := midSleep(sys, fast.MemCycles*int64(cfg.CPUMult), func(ss cpu.SleepStats) int64 { return ss.BarrierCycles })
	if atBarrier == 0 {
		t.Errorf("the run was not cancelled mid-barrier: %+v", sys.SleepStats())
	}
}
