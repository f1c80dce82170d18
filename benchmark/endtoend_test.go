package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"dramstacks/internal/cyclestack"
	"dramstacks/internal/sim"
)

// A session fails an operation when outputs differ between repetitions
// or, at the default seed, from golden.json — and not otherwise.
func TestSessionChecksFacts(t *testing.T) {
	w := workloads[0]
	pinned := golden[w.name]

	s := newSession(w, defaultSeed)
	s.checkFacts(pinned)
	s.checkFacts(pinned)
	if s.failed != 0 {
		t.Fatalf("golden outputs failed: %v", s.notes)
	}
	moved := pinned
	moved.DRAM.ACT++
	s.checkFacts(moved)
	if s.failed != 1 || !strings.Contains(s.notes[0], "between repetitions") {
		t.Errorf("a repetition with other outputs: failed=%d %v", s.failed, s.notes)
	}

	s = newSession(w, defaultSeed)
	s.checkFacts(moved)
	if s.failed != 1 || !strings.Contains(s.notes[0], "golden.json") {
		t.Errorf("outputs off golden at the default seed: failed=%d %v", s.failed, s.notes)
	}

	s = newSession(w, defaultSeed+1)
	s.checkFacts(moved)
	s.checkFacts(moved)
	if s.failed != 0 {
		t.Errorf("another seed is only checked for self-consistency: %v", s.notes)
	}
}

func TestSessionStopsNearTheBudget(t *testing.T) {
	s := newSession(workloads[0], 1)
	if !s.wantsMore(time.Second) {
		t.Error("no repetitions yet, but wants no more")
	}
	s.tries = 100
	if s.wantsMore(time.Second) {
		t.Error("repetitions that keep failing must not loop forever")
	}
	s.tries = 5
	s.samples["setup_s"] = []float64{1, 1, 1, 1}
	s.measured = 4 * time.Second // one second a repetition
	if !s.wantsMore(time.Second) {
		t.Error("4 repetitions: the budget is used up, but a median needs 9")
	}
	s.samples["setup_s"] = make([]float64, 10)
	s.measured = 10 * time.Second
	if !s.wantsMore(11 * time.Second) {
		t.Error("10 s measured of 11 s: one more repetition lands on the budget")
	}
	if s.wantsMore(10400 * time.Millisecond) {
		t.Error("10 s measured of 10.4 s: one more repetition overshoots by more than stopping undershoots")
	}
}

// runSessions discards the first repetition, interleaves the rest, and
// the record carries every end-to-end metric with its spread.
func TestRunSessionsOnATinyMachine(t *testing.T) {
	tiny := workload{name: "tiny", sim: tinyCases["ddr4-2400"]}
	a, b := newSession(tiny, 5), newSession(tiny, 6)
	runSessions(context.Background(), []*session{a, b}, 50*time.Millisecond)
	for _, s := range []*session{a, b} {
		r := s.record(0.05)
		if !r.Correct || r.Failed != 0 || r.Reps < minReps || r.Attempted != s.tries {
			t.Errorf("record %+v after %d tries: %v", r, s.tries, s.notes)
		}
		if s.tries != r.Reps+1 {
			t.Errorf("%d tries for %d measured repetitions: the first is a discarded warm-up", s.tries, r.Reps)
		}
		for _, d := range endToEnd {
			m := r.Metrics[d.name]
			if m.N != r.Reps || m.Value <= 0 || m.Q1 > m.Value || m.Value > m.Q3 || m.Unit != d.unit {
				t.Errorf("%s: %+v", d.name, m)
			}
		}
	}
	if a.first.SHA256 == b.first.SHA256 {
		t.Error("two seeds gave the same outputs: the seed does not reach the inputs")
	}
}

func TestDeadlineBecomesAFailedOperation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := workloads[0].sim.rep(ctx, "sat-seq-8c", 1)
	if o.failed != 1 || !strings.Contains(o.notes[0], "deadline") {
		t.Errorf("cancelled run: failed=%d %v", o.failed, o.notes)
	}
}

func TestUnattributedCycles(t *testing.T) {
	cs := cyclestack.Stack{Total: 100}
	cs.Cycles[cyclestack.Base] = 60
	cs.Cycles[cyclestack.DramLatency] = 33.5
	if got := unattributedCycles(cs); got != 6.5 {
		t.Errorf("unattributed = %v, want 6.5", got)
	}
	if !allNonNegative(cs) {
		t.Error("all components are non-negative")
	}
	cs.Cycles[cyclestack.Idle] = -1
	if allNonNegative(cs) {
		t.Error("a negative component went unnoticed")
	}
}

// A run cut off at its budget may leave one load's stall per core
// unattributed, and no more; a run that ends by itself may leave none.
func TestCutOffRunToleratesOneStallPerCore(t *testing.T) {
	res := &sim.Result{MemCycles: 100}
	res.Cfg.MaxMemCycles, res.Cfg.CPUMult = 100, 3
	res.LatHist.Add(50) // the longest completed read took 150 CPU cycles
	cs := cyclestack.Stack{Total: 300}
	cs.Cycles[cyclestack.Base] = 100
	res.CycleStacks = []cyclestack.Stack{cs}
	if err := checkResult(res); err != nil {
		t.Errorf("200 cycles short, one stall of up to 300 allowed: %v", err)
	}
	res.CycleStacks[0].Total = 500
	if checkResult(res) == nil {
		t.Error("400 cycles short went unnoticed: more than one load's stall")
	}
	res.CycleStacks[0].Total = 300
	res.Cfg.MaxMemCycles = 0
	if checkResult(res) == nil {
		t.Error("a run that ended by itself must satisfy the identity exactly")
	}
}

func TestSweepCyclesFollowTheSeed(t *testing.T) {
	if sweepCycles(defaultSeed) != 60_000 {
		t.Errorf("default seed: %d cycles per point", sweepCycles(defaultSeed))
	}
	if sweepCycles(2) == sweepCycles(3) || sweepCycles(-5) < 60_000 || sweepCycles(1<<40) >= 60_100 {
		t.Error("seeds must give distinct budgets within 0.2 % of 60k")
	}
	if hitSpec(2).Budget != sweepCycles(2) {
		t.Error("phase B asks for a spec the sweep did not run")
	}
}
