package memctrl

import (
	"testing"

	"dramstacks/internal/dram"
)

// TestTieGoesToTheLowerBank: reads that arrived in the same cycle are
// equally old, and the issue passes serve the lowest bank index first,
// whichever was enqueued first.
func TestTieGoesToTheLowerBank(t *testing.T) {
	r := newRig(t, nil)
	verify := r.dev.Trace
	var acts []int
	r.dev.Trace = func(cycle int64, cmd dram.Command) {
		verify(cycle, cmd)
		if cmd.Kind == dram.CmdACT {
			acts = append(acts, r.geo.Bank(cmd.Loc))
		}
	}
	r.ctrl.EnqueueRead(0, r.addr(3, 1, 1, 0), nil, nil) // bank 13
	r.ctrl.EnqueueRead(0, r.addr(0, 2, 1, 0), nil, nil) // bank 2
	r.runUntil(100, func() bool { return len(acts) == 2 })
	if acts[0] != 2 || acts[1] != 13 {
		t.Errorf("activates went to banks %v, want [2 13]", acts)
	}
}

// TestFCFSServesInArrivalOrder: under strict FCFS, a younger row hit may
// not overtake an older row conflict on the same bank.
func TestFCFSServesInArrivalOrder(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Sched = FCFS })
	// Open row 1.
	warm := false
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 0), func(*Request, int64) { warm = true }, nil)
	r.runUntil(2000, func() bool { return warm })

	var conflictAt, hitAt int64 = -1, -1
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 2, 0), func(_ *Request, at int64) { conflictAt = at }, nil)
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 7), func(_ *Request, at int64) { hitAt = at }, nil)
	r.runUntil(4000, func() bool { return conflictAt >= 0 && hitAt >= 0 })
	if conflictAt >= hitAt {
		t.Errorf("FCFS: older conflict finished at %d, younger hit at %d: want conflict first",
			conflictAt, hitAt)
	}
}

// TestFRFCFSBeatsFCFSOnMixedStreams: with interleaved streams to two
// rows of one bank, first-ready scheduling preserves far more page hits.
func TestFRFCFSBeatsFCFSOnMixedStreams(t *testing.T) {
	run := func(sched Scheduler) (hitRate float64, cycles int64) {
		r := newRig(t, func(c *Config) { c.Sched = sched })
		done := 0
		// Alternate two sequential streams in different rows of the
		// same bank: FR-FCFS batches each row's hits, FCFS ping-pongs.
		n := 0
		for ; r.now < 120_000; r.now++ {
			for pending := r.ctrl.readQ.n; pending < 16 && n < 512; pending++ {
				row := 1 + n%2
				col := (n / 2) % 128
				r.ctrl.EnqueueRead(r.now, r.addr(0, 0, row, col), func(*Request, int64) { done++ }, nil)
				n++
			}
			r.ctrl.Tick(r.now)
			if done == 512 {
				break
			}
		}
		if done != 512 {
			t.Fatalf("%v: only %d reads completed", sched, done)
		}
		return r.ctrl.Stats().PageHitRate(), r.now
	}
	frHit, frCycles := run(FRFCFS)
	fcHit, fcCycles := run(FCFS)
	if frHit <= fcHit {
		t.Errorf("page hit rate: fr-fcfs %.2f not above fcfs %.2f", frHit, fcHit)
	}
	if frCycles >= fcCycles {
		t.Errorf("runtime: fr-fcfs %d cycles not below fcfs %d", frCycles, fcCycles)
	}
}

func TestSchedulerString(t *testing.T) {
	if FRFCFS.String() != "fr-fcfs" || FCFS.String() != "fcfs" {
		t.Errorf("scheduler names wrong: %q %q", FRFCFS.String(), FCFS.String())
	}
}

func TestQueueDepthStats(t *testing.T) {
	r := newRig(t, nil)
	for i := 0; i < 8; i++ {
		r.ctrl.EnqueueRead(0, r.addr(i%4, 0, i, 0), nil, nil)
	}
	r.run(2000)
	s := r.ctrl.Stats()
	if s.Cycles != 2000 {
		t.Fatalf("cycles = %d", s.Cycles)
	}
	if s.MaxReadQueue < 8 {
		t.Errorf("max read queue = %d, want >= 8", s.MaxReadQueue)
	}
	if s.ReadQueueCycles <= 0 {
		t.Error("read queue occupancy integral not positive")
	}
	if s.WriteQueueCycles != 0 {
		t.Errorf("write queue occupancy integral = %d, want 0", s.WriteQueueCycles)
	}
}

func TestBankAccessStatsAndImbalance(t *testing.T) {
	r := newRig(t, nil)
	done := 0
	// 12 reads to one bank, none elsewhere: maximal imbalance.
	for i := 0; i < 12; i++ {
		r.ctrl.EnqueueRead(0, r.addr(0, 0, i, 0), func(*Request, int64) { done++ }, nil)
	}
	r.runUntil(50_000, func() bool { return done == 12 })
	s := r.ctrl.Stats()
	if s.BankAccesses[0] != 12 {
		t.Errorf("bank 0 accesses = %d, want 12", s.BankAccesses[0])
	}
	for b, n := range s.BankAccesses[1:] {
		if n != 0 {
			t.Errorf("bank %d accesses = %d, want 0 (all traffic on bank 0)", b+1, n)
		}
	}
}

// TestRefreshNotStarvedUnderSaturation: a saturating row-hit stream must
// not postpone refreshes — the controller blocks new work on the rank
// once a refresh is due and fires it as soon as tRAS/tRTP allow.
func TestRefreshNotStarvedUnderSaturation(t *testing.T) {
	r := newRig(t, nil)
	next := uint64(0)
	inflight := 0
	cycles := int64(4 * r.tim.REFI)
	for ; r.now < cycles; r.now++ {
		for inflight < 32 {
			if _, ok := r.ctrl.EnqueueRead(r.now, next, func(*Request, int64) { inflight-- }, nil); !ok {
				break
			}
			inflight++
			next += 64
		}
		r.ctrl.Tick(r.now)
	}
	got := r.ctrl.Stats().Refreshes
	if got < 3 || got > 5 {
		t.Errorf("refreshes = %d over 4 tREFI under saturation, want about 4", got)
	}
}
