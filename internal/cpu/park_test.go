package cpu

import (
	"testing"

	"dramstacks/internal/cache"
)

// mshrMem is a Mem with a fixed number of fill slots and little else:
// every seventh line hits in the L2; any other access takes a slot for
// latency cycles or, with none free, is refused. It has the parking side
// too (Parker), waking the sleeper when a slot frees — and, to provoke
// spurious wake-ups, whenever asked.
type mshrMem struct {
	slots   int
	latency int64
	fills   []fill

	accesses, refused int64 // including the retries accounted by Retried

	refusedAt   int64
	refusedAddr uint64
	sleeper     cache.Sleeper
}

type fill struct {
	done int64
	w    cache.Waiter
}

func (m *mshrMem) Access(now int64, core int, addr uint64, write bool, w cache.Waiter) cache.Outcome {
	m.accesses++
	if addr/64%7 == 0 {
		return cache.Outcome{Status: cache.Hit, Latency: 14, Level: 2}
	}
	if len(m.fills) >= m.slots {
		m.refused++
		m.refusedAt, m.refusedAddr = now, addr
		return cache.Outcome{Status: cache.Retry}
	}
	m.fills = append(m.fills, fill{now + m.latency, w})
	return cache.Outcome{Status: cache.Pending}
}

func (m *mshrMem) Park(now int64, core int, addr uint64, s cache.Sleeper) bool {
	if m.refusedAt != now || m.refusedAddr != addr {
		return false
	}
	m.sleeper = s
	return true
}

func (m *mshrMem) Retried(core int, n int64) {
	m.accesses += n
	m.refused += n
}

func (m *mshrMem) Unpark(core int) { m.sleeper = nil }

// deliver completes the fills due by cycle now, after the core's turn —
// the controller phase.
func (m *mshrMem) deliver(now int64) {
	kept := m.fills[:0]
	for _, f := range m.fills {
		if f.done > now {
			kept = append(kept, f)
			continue
		}
		f.w.MemDone(f.done, 0.3, 0)
		if m.sleeper != nil {
			m.sleeper.Wake()
		}
	}
	m.fills = kept
}

// TestParkSleepMatchesTicking runs one instruction stream on two cores
// over identical slot-starved memories: one is ticked every cycle and
// re-presents its refused access every cycle; the other is driven the
// way sim.System drives it — TrySleep after every cycle, no ticks while
// asleep, Resume once marked — and sleeps on the refused access. Both
// head-of-ROB shapes occur (a load in flight with the refused access
// behind it; the refused load itself at the head, after stores whose
// fills hold every slot), the sleeper is read mid-sleep (SyncSleep) and
// woken for nothing now and then. Committed work, the cycle stack — bit
// for bit, fractional dram-queue share included — and the memory's view
// of the retries must be identical.
func TestParkSleepMatchesTicking(t *testing.T) {
	var items []Instr
	for i := 0; i < 405; i++ {
		ins := Instr{Work: i % 7, Kind: KindLoad, Addr: uint64(i) * 64}
		switch {
		case i%11 < 4:
			ins.Kind = KindStore // runs of stores: their fills take every slot
		case i%5 == 0:
			ins.LoadDep = 1
		}
		items = append(items, ins)
	}
	cfg := Config{Width: 4, ROBSize: 24, BranchPenalty: 15, StartsPerCycle: 2}
	memT, memS := &mshrMem{slots: 2, latency: 90, refusedAt: -1}, &mshrMem{slots: 2, latency: 90, refusedAt: -1}
	ticked := New(0, cfg, memT, &sliceSource{items: items})
	sleeper := New(0, cfg, memS, &sliceSource{items: append([]Instr(nil), items...)})

	var now int64
	for ; !ticked.Done() && now < 1_000_000; now++ {
		ticked.CPUCycle(now)
		memT.deliver(now)

		if sleeper.Asleep() && sleeper.Due(now) {
			sleeper.Resume(now)
		}
		if !sleeper.Asleep() {
			sleeper.CPUCycle(now)
			sleeper.TrySleep(now)
		}
		memS.deliver(now)
		if now%37 == 0 && memS.sleeper != nil {
			memS.sleeper.Wake() // nothing changed: the core must re-park
		}
		if now%101 == 0 {
			sleeper.SyncSleep(now + 1)
			if ticked.Stack() != sleeper.Stack() {
				t.Fatalf("cycle %d: cycle stacks differ mid-sleep:\n ticked  %+v\n sleeper %+v", now, ticked.Stack(), sleeper.Stack())
			}
		}
	}
	if !ticked.Done() || !sleeper.Done() {
		t.Fatalf("after %d cycles: ticked done %v, sleeper done %v", now, ticked.Done(), sleeper.Done())
	}
	if ticked.Stats() != sleeper.Stats() || ticked.Stack() != sleeper.Stack() {
		t.Errorf("results differ:\n ticked  %+v %+v\n sleeper %+v %+v", ticked.Stats(), ticked.Stack(), sleeper.Stats(), sleeper.Stack())
	}
	if memT.accesses != memS.accesses || memT.refused != memS.refused {
		t.Errorf("memory saw %d accesses (%d refused) ticking, %d (%d) sleeping", memT.accesses, memT.refused, memS.accesses, memS.refused)
	}
	ss := sleeper.SleepStats()
	t.Logf("%d cycles: %+v", now, ss)
	if ss.ParkedCycles+ss.Retries != memS.refused {
		t.Errorf("%d parked + %d literal retries, memory refused %d", ss.ParkedCycles, ss.Retries, memS.refused)
	}
	if ss.Parks == 0 || ss.ParkedCycles < 10*ss.Retries || ss.StallCycles == 0 || ss.SpuriousWakes == 0 || ss.Wakes != ss.Parks {
		t.Errorf("the stream barely exercises parking: %+v", ss)
	}
	if lit := ticked.SleepStats(); lit.Retries != memT.refused || lit.ParkedCycles != 0 {
		t.Errorf("ticked core: %+v, memory refused %d", lit, memT.refused)
	}
}

// busyMem refuses every access before cycle free and hits after. It has
// no Park side and wakes no one when it frees: the core must retry.
type busyMem struct {
	free    int64
	started int64 // the cycle the first access was taken, -1 before
}

func (m *busyMem) Access(now int64, core int, addr uint64, write bool, w cache.Waiter) cache.Outcome {
	if now < m.free {
		return cache.Outcome{Status: cache.Retry}
	}
	if m.started < 0 {
		m.started = now
	}
	return cache.Outcome{Status: cache.Hit, Latency: 4, Level: 1}
}

// TestBarrierSleepLeavesStartQueue empties a core's ROB at a barrier
// while its store's access still waits to start: the store has retired,
// the port refused the access. The core must not take the barrier sleep —
// nothing would wake it when the port frees — but retry every cycle and
// start the store the cycle the port takes it, mid-barrier.
func TestBarrierSleepLeavesStartQueue(t *testing.T) {
	mem := &busyMem{free: 40, started: -1}
	bar := &barrierSlice{sliceSource: sliceSource{items: []Instr{
		{Kind: KindStore, Addr: 64, Work: 1}, {Kind: KindStall}, {Kind: KindALU, Work: 1},
	}}}
	c := New(0, DefaultConfig(), mem, bar)
	var now int64
	for ; now < 1000 && !c.Done(); now++ {
		bar.turn(now, false)
		if !c.Asleep() || c.Due(now) {
			if c.Asleep() {
				c.Resume(now)
			}
			c.CPUCycle(now)
			c.TrySleep(now)
		}
		bar.turn(now, true)
	}
	if !c.Done() {
		t.Fatalf("not done after %d cycles", now)
	}
	if bar.until <= mem.free {
		t.Fatalf("the barrier ended at %d, before the port freed at %d", bar.until, mem.free)
	}
	if mem.started != mem.free {
		t.Errorf("the store started at cycle %d, want %d: the port freed mid-barrier", mem.started, mem.free)
	}
}
