package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"dramstacks/internal/cache"
)

// levelMem is mshrMem with an answer at every level: by line address an
// access hits the L1, the L2 or the LLC, or goes to DRAM — taking one of
// the few fill slots for a latency the line chooses, or refused (and
// parkable) when none is free.
type levelMem struct{ mshrMem }

func (m *levelMem) Access(now int64, core int, addr uint64, write bool, w cache.Waiter) cache.Outcome {
	line := addr / 64
	switch line % 9 {
	case 0, 1, 2:
		m.accesses++
		return cache.Outcome{Status: cache.Hit, Latency: 4, Level: 1}
	case 3:
		m.accesses++
		return cache.Outcome{Status: cache.Hit, Latency: 38, Level: 3}
	}
	m.latency = 30 + int64(line%13)*23
	return m.mshrMem.Access(now, core, addr, write, w)
}

// batchSlice hands a sliceSource out through the BatchSource fast path.
type batchSlice struct{ sliceSource }

func (s *batchSlice) NextBatch(buf []Instr) int {
	n := copy(buf, s.items[s.pos:])
	s.pos += n
	return n
}

// barrierSlice is a sliceSource that makes BarrierSource's promise: a
// KindStall item opens a barrier episode instead of stalling one poll.
// The poll that reaches it and every poll after it stall until the test,
// standing in for the other core whose poll would open the next phase,
// releases the episode: turn is called before and after the core's turn
// in every cycle, and an episode that has lasted its length ends on the
// side its position in the stream picks — before, the core is due in that
// same cycle; after, in the next.
type barrierSlice struct {
	sliceSource
	wake    func()
	now     int64 // the cycle turn was last called for
	waiting bool
	until   int64
	after   bool
}

func (s *barrierSlice) OnRelease(wake func()) { s.wake = wake }

func (s *barrierSlice) Next() (Instr, bool) {
	if s.waiting {
		return Instr{Kind: KindStall}, true
	}
	ins, ok := s.sliceSource.Next()
	if ok && ins.Kind == KindStall {
		// Long enough, some of them, for the ROB to drain and a store's
		// fill to land mid-sleep.
		s.waiting, s.until, s.after = true, s.now+1+int64(s.pos*37%400), s.pos%2 == 0
	}
	return ins, ok
}

func (s *barrierSlice) turn(now int64, after bool) {
	if s == nil {
		return
	}
	s.now = now
	if s.waiting && now >= s.until && after == s.after {
		s.waiting = false
		s.wake()
	}
}

// ffStream is a seeded stream over every item shape the replays have to
// get right: plain runs shorter than, equal to and far longer than the
// width and the ROB, loads (independent and chained), stores, branches
// (some mispredicted), barrier stalls and pure compute.
func ffStream(rng *rand.Rand, n int) []Instr {
	works := []int{0, 1, 3, 4, 5, 139, 140, 141, 1000}
	items := make([]Instr, n)
	for i := range items {
		ins := Instr{Work: works[rng.Intn(len(works))], Addr: uint64(rng.Intn(4096)) * 64}
		switch p := rng.Intn(20); {
		case p < 9:
			ins.Kind = KindLoad
			if rng.Intn(4) == 0 {
				ins.LoadDep = 1 + rng.Intn(3)
			}
		case p < 13:
			ins.Kind = KindStore
		case p < 16:
			ins.Kind = KindBranch
			ins.Mispredict = rng.Intn(3) == 0
		case p < 17:
			ins = Instr{Kind: KindStall}
		default:
			ins.Kind = KindALU
			ins.Work++ // an item has at least one uop
		}
		items[i] = ins
	}
	return items
}

// skipper drives a core the way sim.System does — Due / Resume /
// CPUCycle / TrySleep, with the SyncSleep cuts a sample or an early stop
// makes falling at random inside its sleeps — or, when direct is set, the
// way the benchmark's FastForward driver does: NextEventCycle, FastForward
// over the stretch or a prefix of it, CPUCycle, and no sleeping.
type skipper struct {
	c      *Core
	bar    *barrierSlice // c's source, if it is one
	rng    *rand.Rand
	direct bool
	from   int64 // direct: first cycle owed to FastForward
	upto   int64 // direct: cycle the owed stretch is flushed at; 0: nothing owed

	cuts int // cuts inside the current sleep so far

	stretches    [streak + 1]int // direct: stretches replayed, by reason
	cutsIn       [streak + 1]int // cuts that fell mid-sleep, by reason
	twiceCut     int             // window sleeps cut a second time
	wakesIgnored int
	releases     [2]int // barrier sleeps the source ended, before / after the core's turn
	spurious     int    // barrier sleeps something else ended: a store's fill
}

// step simulates cycle now and reports whether the core's state is that
// of a ticked core after cycle now (nothing owed, any sleep synced).
func (s *skipper) step(now int64) bool {
	c := s.c
	if s.direct {
		if s.upto > now {
			return false
		}
		if s.upto != 0 {
			c.FastForward(s.from, now-s.from)
			s.upto = 0
		}
		if e := c.NextEventCycle(now); e > now && s.rng.Intn(2) == 0 {
			if e == never {
				e = now + 8 // a finished core idles forever
			}
			// Any prefix of a provable stretch is replayable: cut some short.
			if s.rng.Intn(3) == 0 {
				e = now + 1 + s.rng.Int63n(e-now)
			}
			s.stretches[c.why]++
			s.from, s.upto = now, e
			return false
		}
		c.CPUCycle(now)
		return true
	}
	if c.Asleep() && !c.Due(now) {
		if c.why >= idle {
			d := c.wakeAt
			if c.Wake(); c.wakeAt != d {
				panic("a core asleep to a deadline honoured Wake")
			}
			s.wakesIgnored++
		}
		if s.rng.Intn(3) != 0 {
			return false
		}
		// A later cut of the same sleep replays from where this one stops,
		// by the reason recorded when the sleep began.
		s.cutsIn[c.why]++
		if s.cuts++; s.cuts == 2 && c.why == window {
			s.twiceCut++
		}
		c.SyncSleep(now + 1)
		return true
	}
	if c.Asleep() {
		switch {
		case c.why != barrier:
		case s.bar.waiting:
			s.spurious++
		case s.bar.after:
			s.releases[1]++
		default:
			s.releases[0]++
		}
		c.Resume(now)
	}
	s.cuts = 0
	c.CPUCycle(now)
	c.TrySleep(now)
	return true
}

// TestFastForwardMatchesTicking is the core-level differential for the
// closed-form replays, which only whole-system goldens covered: three
// cores run one seeded stream over identical scripted memories. One is
// ticked every cycle; one is suspended and resumed as the system does it,
// with fills arriving (and Wake called) in the middle of its sleeps and
// cuts falling anywhere in them, twice in one window included, through
// the idle tail of a finished core; one skips whatever NextEventCycle
// allows, as the benchmark's driver does. Every other stream's stalls are
// barrier episodes (barrierSlice), which the second core sleeps through
// and the other two poll through. Cycle stack, committed work,
// Done and ROB occupancy must agree at every cycle a skipping core is
// caught up at.
func TestFastForwardMatchesTicking(t *testing.T) {
	var slept, direct skipper
	var sleeps SleepStats
	for _, cfg := range []Config{DefaultConfig(), InOrderConfig()} {
		for seed := int64(1); seed <= 24; seed++ {
			name := fmt.Sprintf("w%d-seed%d", cfg.Width, seed)
			items := ffStream(rand.New(rand.NewSource(seed)), 300)
			mk := func() (*Core, *levelMem, *barrierSlice) {
				mem := &levelMem{mshrMem{slots: 2 + int(seed%3), refusedAt: -1}}
				if seed%2 == 0 {
					return New(0, cfg, mem, &batchSlice{sliceSource{items: items}}), mem, nil
				}
				bar := &barrierSlice{sliceSource: sliceSource{items: items}}
				return New(0, cfg, mem, bar), mem, bar
			}
			ticked, memT, barT := mk()
			twins := [2]*skipper{
				{rng: rand.New(rand.NewSource(seed * 7919))},
				{rng: rand.New(rand.NewSource(seed * 7907)), direct: true},
			}
			var mems [2]*levelMem
			for i, s := range twins {
				s.c, mems[i], s.bar = mk()
			}

			// tail cycles past the end: a finished core sleeps forever.
			var now int64
			for tail := 40; tail > 0 && now < 1_000_000; now++ {
				if ticked.Done() {
					tail--
				}
				barT.turn(now, false)
				ticked.CPUCycle(now)
				barT.turn(now, true)
				memT.deliver(now)
				for i, s := range twins {
					s.bar.turn(now, false)
					caughtUp := s.step(now)
					s.bar.turn(now, true)
					mems[i].deliver(now)
					if !caughtUp {
						continue
					}
					c := s.c
					if ticked.Stack() != c.Stack() || ticked.Stats() != c.Stats() ||
						ticked.Done() != c.Done() || ticked.occ != c.occ ||
						ticked.loads != c.loads || ticked.pendingWork != c.pendingWork {
						t.Fatalf("%s: cycle %d (direct %v, suspended for reason %d):\n ticked  %+v %+v occ %d loads %d work %d\n skipped %+v %+v occ %d loads %d work %d",
							name, now, s.direct, c.why,
							ticked.Stats(), ticked.Stack(), ticked.occ, ticked.loads, ticked.pendingWork,
							c.Stats(), c.Stack(), c.occ, c.loads, c.pendingWork)
					}
				}
			}
			for i, s := range twins {
				if !ticked.Done() || !s.c.Done() {
					t.Fatalf("%s: after %d cycles: ticked done %v, skipped (direct %v) done %v", name, now, ticked.Done(), s.direct, s.c.Done())
				}
				if memT.accesses != mems[i].accesses || memT.refused != mems[i].refused {
					t.Errorf("%s: memory saw %d accesses (%d refused) ticking, %d (%d) skipping (direct %v)",
						name, memT.accesses, memT.refused, mems[i].accesses, mems[i].refused, s.direct)
				}
			}
			if lit := ticked.SleepStats(); lit.Slept() != 0 || lit.Ticks != now {
				t.Errorf("%s: ticked core slept: %+v", name, lit)
			}
			// Ticked or slept through, every cycle once — up to the last cut.
			c := twins[0].c
			c.SyncSleep(now)
			if ss := c.SleepStats(); ss.Ticks+ss.Slept() != now || ticked.Stack() != c.Stack() {
				t.Errorf("%s: %d ticks + %d slept cycles in %d: %+v", name, ss.Ticks, ss.Slept(), now, ss)
			}
			sleeps.Add(c.SleepStats())
			for r := range slept.cutsIn {
				slept.cutsIn[r] += twins[0].cutsIn[r]
				direct.stretches[r] += twins[1].stretches[r]
			}
			slept.twiceCut += twins[0].twiceCut
			slept.wakesIgnored += twins[0].wakesIgnored
			slept.releases[0] += twins[0].releases[0]
			slept.releases[1] += twins[0].releases[1]
			slept.spurious += twins[0].spurious
		}
	}
	t.Logf("cuts by reason %v (%d windows cut twice), %d ignored wakes, barriers released %v before / after the turn and %d woken by a fill, direct stretches by reason %v; %+v",
		slept.cutsIn, slept.twiceCut, slept.wakesIgnored, slept.releases, slept.spurious, direct.stretches, sleeps)
	for r := stalled; r <= streak; r++ {
		if slept.cutsIn[r] == 0 || r >= idle && direct.stretches[r] == 0 {
			t.Errorf("reason %d: %d cuts mid-sleep, %d direct stretches", r, slept.cutsIn[r], direct.stretches[r])
		}
	}
	if slept.twiceCut == 0 || slept.wakesIgnored == 0 || sleeps.Coasts == 0 || sleeps.CoastCycles < 2*sleeps.Coasts ||
		sleeps.StallCycles == 0 || sleeps.Parks == 0 || sleeps.WindowCycles == 0 || sleeps.BubbleCycles == 0 || sleeps.IdleCycles == 0 ||
		sleeps.BarrierCycles == 0 || slept.releases[0] == 0 || slept.releases[1] == 0 || slept.spurious == 0 {
		t.Errorf("the streams barely exercise the replays")
	}
}

// handCore returns a 2-wide core with a 16-entry ROB set by hand to the
// start of cycle 100: ahead ready plain uops, a load in flight to DRAM,
// behind more plain uops, work buffered uops ahead of a buffered load.
func handCore(ahead, behind, work int) (*Core, *scriptMem) {
	mem := &scriptMem{outcome: cache.Outcome{Status: cache.Pending}, latency: 50}
	c := New(0, Config{Width: 2, ROBSize: 16, BranchPenalty: 8, StartsPerCycle: 1}, mem, &sliceSource{})
	c.push(robItem{kind: KindALU, count: ahead, readyAt: 100})
	if behind > 0 {
		tk := c.newTicket()
		tk.started = true
		c.push(robItem{kind: KindLoad, count: 1, tk: tk})
		c.push(robItem{kind: KindALU, count: behind, readyAt: 100})
	}
	c.pendingWork = work
	c.pendingBuf = Instr{Kind: KindLoad, Addr: 64}
	c.pendingOp = &c.pendingBuf
	return c, mem
}

// TestCoastGuards takes streakLen's guards one at a time. Each case is a
// hand-built state in which streakLen (and so TrySleep) must stop at
// want cycles, and shows why: replaying one cycle more as a streak does
// not do what ticking it does — it panics, or leaves another core.
func TestCoastGuards(t *testing.T) {
	const now = 100
	cases := []struct {
		name                string
		ahead, behind, work int
		set                 func(*Core)
		want                int64
	}{
		// pendingWork >= Width a cycle: the source or a memory op would be reached.
		{name: "pending-work", ahead: 8, behind: 7, work: 5, want: 2},
		// a/Width: retire would reach the load.
		{name: "plain-ahead", ahead: 6, behind: 9, work: 10, want: 3},
		{name: "plain-ahead-load-last", ahead: 15, behind: 0, work: 100,
			set: func(c *Core) {
				tk := c.newTicket()
				c.push(robItem{kind: KindLoad, count: 1, tk: tk})
				tk.started = true
			}, want: 7},
		// occ >= Width: fewer uops would retire.
		{name: "occupancy", ahead: 1, behind: 0, work: 10, want: 0},
		// An empty start queue: an access would start.
		{name: "start-queue", ahead: 6, behind: 9, work: 10,
			set: func(c *Core) { c.startQ = append(c.startQ, memOp{addr: 128, write: true}) }, want: 0},
		// Outside a fetch bubble: dispatch would push nothing.
		{name: "fetch-bubble", ahead: 6, behind: 9, work: 10,
			set: func(c *Core) { c.fetchBlockedUntil = now + 5 }, want: 0},
	}
	same := func(a, b *Core, ma, mb *scriptMem) bool {
		return a.Stats() == b.Stats() && a.Stack() == b.Stack() && a.occ == b.occ && a.loads == b.loads &&
			a.pendingWork == b.pendingWork && len(a.startQ) == len(b.startQ) && len(ma.started) == len(mb.started)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() (*Core, *scriptMem) {
				c, m := handCore(tc.ahead, tc.behind, tc.work)
				if tc.set != nil {
					tc.set(c)
				}
				return c, m
			}
			// replayed reports whether n streak cycles from now equal n ticks.
			replayed := func(n int64) (ok bool) {
				ticked, mt := mk()
				for i := int64(0); i < n; i++ {
					ticked.CPUCycle(now + i)
				}
				streak, ms := mk()
				defer func() {
					if recover() != nil {
						ok = false
					}
				}()
				streak.replayStreak(now, n)
				return same(ticked, streak, mt, ms)
			}
			c, _ := mk()
			if got := c.streakLen(now); got != tc.want {
				t.Errorf("streakLen = %d, want %d", got, tc.want)
			}
			for n := int64(1); n <= tc.want; n++ {
				if !replayed(n) {
					t.Errorf("%d streak cycles differ from %d ticks", n, n)
				}
			}
			if replayed(tc.want + 1) {
				t.Errorf("cycle %d still replays as a streak: the case does not need its guard", tc.want+1)
			}
			// TrySleep has one rule for every reason, NextEventCycle's, so a
			// one-cycle streak is slept through too; asking for two was a
			// cost choice of the saturated branch, not a correctness one.
			if slept := c.TrySleep(now - 1); slept != (tc.want >= 1) || slept && (c.why != streak || c.wakeAt != now+tc.want) {
				t.Errorf("TrySleep = %v (reason %d until %d), streak is %d cycles", slept, c.why, c.wakeAt, tc.want)
			}
		})
	}

	// A sync past the deadline replays the streak and no further; the core
	// resumes at the deadline exactly like a ticked one.
	t.Run("sync-past-deadline", func(t *testing.T) {
		ticked, _ := handCore(6, 9, 10)
		coast, _ := handCore(6, 9, 10)
		if !coast.TrySleep(now-1) || coast.Due(now+2) || !coast.Due(now+3) {
			t.Fatalf("no coast to cycle %d: asleep %v until %d", now+3, coast.Asleep(), coast.wakeAt)
		}
		coast.SyncSleep(now + 10)
		coast.SyncSleep(now + 11)
		coast.Resume(now + 3)
		for i := int64(0); i < 6; i++ {
			ticked.CPUCycle(now + i)
			if i >= 3 {
				coast.CPUCycle(now + i)
			}
		}
		if ss := coast.SleepStats(); ss.CoastCycles != 3 || ss.Coasts != 1 ||
			ticked.Stats() != coast.Stats() || ticked.Stack() != coast.Stack() || ticked.occ != coast.occ {
			t.Errorf("sync past the deadline: %+v\n ticked %+v %+v occ %d\n coast  %+v %+v occ %d", ss,
				ticked.Stats(), ticked.Stack(), ticked.occ, coast.Stats(), coast.Stack(), coast.occ)
		}
	})
}
