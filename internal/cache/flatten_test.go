package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dramstacks/internal/prefetch"
)

// accessRef is the composed per-level reference walk the flattened
// Access replaces: three Cache.Lookup calls plus the shared missToMem
// tail. The flattened path must match it attempt-for-attempt in
// outcomes, per-level statistics and memory-port traffic.
func accessRef(h *Hierarchy, now int64, core int, addr uint64, write bool, w Waiter) Outcome {
	line := addr & h.lineMask
	if h.l1[core].Lookup(line, true, write) {
		return Outcome{Status: Hit, Latency: h.cfg.L1.Latency, Level: 1}
	}
	if h.l2[core].Lookup(line, true, write) {
		h.fillL1(core, line, write)
		h.train(now, core, line)
		return Outcome{Status: Hit, Latency: h.cfg.L2.Latency, Level: 2}
	}
	h.train(now, core, line)
	if h.llc.Lookup(line, true, write) {
		h.fillL2(now, core, line, false)
		h.fillL1(core, line, write)
		return Outcome{Status: Hit, Latency: h.cfg.LLC.Latency, Level: 3}
	}
	return h.missToMem(now, core, line, write, w)
}

// flakyMem is a MemPort whose accept/reject decisions come from a
// seeded RNG consumed one draw per call, so two hierarchies driven with
// identical access sequences see identical back pressure.
type flakyMem struct {
	rng            *rand.Rand
	reads          []fakeRead
	refusedDemands int // demand (not prefetch) reads turned away
	writes         []uint64
	next           int
}

func (m *flakyMem) Read(now int64, addr uint64, src int, w Waiter) bool {
	if m.rng.Intn(4) == 0 {
		if e, ok := w.(*mshrEntry); ok && !e.prefetch {
			m.refusedDemands++
		}
		return false
	}
	m.reads = append(m.reads, fakeRead{addr, now, src, w})
	return true
}

func (m *flakyMem) Write(now int64, addr uint64, src int) bool {
	if m.rng.Intn(4) == 0 {
		return false
	}
	m.writes = append(m.writes, addr)
	return true
}

func (m *flakyMem) deliverOldest(now int64) bool {
	if m.next >= len(m.reads) {
		return false
	}
	r := m.reads[m.next]
	m.next++
	r.done.MemDone(now, 0.5, 0)
	return true
}

type countWaiter struct{ dones []int64 }

func (c *countWaiter) MemDone(doneCPU int64, _, _ float64) { c.dones = append(c.dones, doneCPU) }

// TestAccessMatchesReference drives the flattened Access and the
// composed reference walk with identical randomized access streams —
// retries, same-line repeats, cross-core sharing, prefetcher traffic,
// evictions and writeback back pressure included — and requires
// identical outcomes, per-level statistics, hierarchy counters and
// memory-port call sequences at every step.
func TestAccessMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		pf   prefetch.Config
	}{
		{"no-prefetch", prefetch.Config{}},
		{"stream-prefetch", prefetch.DefaultConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cores = 3
			cfg := HierConfig{
				Cores:        cores,
				L1:           Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Latency: 4},
				L2:           Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 14},
				LLC:          Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Latency: 44},
				MSHRs:        8,
				PerCoreMSHRs: 3,
				Prefetch:     tc.pf,
			}
			memA := &flakyMem{rng: rand.New(rand.NewSource(7))}
			memB := &flakyMem{rng: rand.New(rand.NewSource(7))}
			flat := MustNewHierarchy(cfg, memA)
			ref := MustNewHierarchy(cfg, memB)

			drive := rand.New(rand.NewSource(0x5eed))
			var waitA, waitB countWaiter
			for step := 0; step < 20_000; step++ {
				now := int64(step)
				core := drive.Intn(cores)
				// A small line pool with a bias toward recently used
				// lines: plenty of same-line repeats (the way hint) and
				// retried misses (the miss memo), plus conflict evictions.
				line := uint64(drive.Intn(512)) * 64
				if drive.Intn(3) == 0 {
					line = uint64(drive.Intn(8)) * 64
				}
				write := drive.Intn(4) == 0
				var wA, wB Waiter
				if !write {
					wA, wB = &waitA, &waitB
				}
				oA := flat.Access(now, core, line, write, wA)
				oB := accessRef(ref, now, core, line, write, wB)
				if oA != oB {
					t.Fatalf("step %d: outcome mismatch: flat %+v ref %+v", step, oA, oB)
				}
				flat.Tick(now)
				ref.Tick(now)
				if drive.Intn(3) == 0 {
					memA.deliverOldest(now)
					memB.deliverOldest(now)
				}
				if step%1000 == 0 {
					compareHier(t, step, flat, ref)
				}
			}
			// Drain every outstanding fill and compare the final state.
			for memA.deliverOldest(1 << 20) {
				memB.deliverOldest(1 << 20)
			}
			compareHier(t, -1, flat, ref)
			if len(memA.reads) != len(memB.reads) || len(memA.writes) != len(memB.writes) {
				t.Fatalf("memory traffic diverged: %d/%d reads, %d/%d writes",
					len(memA.reads), len(memB.reads), len(memA.writes), len(memB.writes))
			}
			for i := range memA.writes {
				if memA.writes[i] != memB.writes[i] {
					t.Fatalf("write %d: flat %#x ref %#x", i, memA.writes[i], memB.writes[i])
				}
			}
			for i := range memA.reads {
				if memA.reads[i].addr != memB.reads[i].addr || memA.reads[i].at != memB.reads[i].at {
					t.Fatalf("read %d: flat %#x@%d ref %#x@%d", i,
						memA.reads[i].addr, memA.reads[i].at, memB.reads[i].addr, memB.reads[i].at)
				}
			}
			if !reflect.DeepEqual(waitA.dones, waitB.dones) {
				t.Fatalf("waiter completion cycles diverged (%d vs %d entries)",
					len(waitA.dones), len(waitB.dones))
			}
		})
	}
}

func compareHier(t *testing.T, step int, flat, ref *Hierarchy) {
	t.Helper()
	for c := 0; c < flat.cfg.Cores; c++ {
		if flat.L1Stats(c) != ref.L1Stats(c) {
			t.Fatalf("step %d: core %d L1 stats: flat %+v ref %+v", step, c, flat.L1Stats(c), ref.L1Stats(c))
		}
		if flat.L2Stats(c) != ref.L2Stats(c) {
			t.Fatalf("step %d: core %d L2 stats: flat %+v ref %+v", step, c, flat.L2Stats(c), ref.L2Stats(c))
		}
	}
	if flat.LLCStats() != ref.LLCStats() {
		t.Fatalf("step %d: LLC stats: flat %+v ref %+v", step, flat.LLCStats(), ref.LLCStats())
	}
	if flat.Stats() != ref.Stats() {
		t.Fatalf("step %d: hierarchy stats: flat %+v ref %+v", step, flat.Stats(), ref.Stats())
	}
	if flat.OutstandingMisses() != ref.OutstandingMisses() {
		t.Fatalf("step %d: outstanding misses: flat %d ref %d", step,
			flat.OutstandingMisses(), ref.OutstandingMisses())
	}
}

// warmRef is the composed Touch/Insert warm walk, one probe and one
// install scan per level: the reference the fused Warm is held to.
func warmRef(h *Hierarchy, core int, addr uint64, write bool) {
	line := addr & h.lineMask
	if h.l1[core].Touch(line, write) {
		return
	}
	if !h.l2[core].Touch(line, false) && !h.llc.Touch(line, false) {
		h.llc.Insert(line, false, false)
	}
	if ev, ok := h.l2[core].Insert(line, false, false); ok && ev.Dirty {
		if !h.llc.Touch(ev.Addr, true) {
			h.llc.Insert(ev.Addr, true, false)
		}
	}
	if ev, ok := h.l1[core].Insert(line, write, false); ok && ev.Dirty {
		if !h.l2[core].Touch(ev.Addr, true) {
			if ev2, ok2 := h.l2[core].Insert(ev.Addr, true, false); ok2 && ev2.Dirty {
				if !h.llc.Touch(ev2.Addr, true) {
					h.llc.Insert(ev2.Addr, true, false)
				}
			}
		}
	}
}

// sameLayout requires two caches to hold the same line with the same
// flags in every way of every set, and the ways of each set in the same
// recency order. The stamps themselves may differ: warmRef ticks the
// clock twice for an install.
func sameLayout(t *testing.T, what string, got, want *Cache) {
	t.Helper()
	const flags = metaDirty | metaPrefetched
	ways := got.cfg.Ways
	for i := range want.slots {
		g, w := got.slots[i], want.slots[i]
		if g.enc != w.enc || g.meta&flags != w.meta&flags {
			t.Fatalf("%s set %d way %d: slot %#x/%#x, reference %#x/%#x",
				what, i/ways, i%ways, g.enc, g.meta&flags, w.enc, w.meta&flags)
		}
		for j := i - i%ways; j < i; j++ {
			if (g.meta < got.slots[j].meta) != (w.meta < want.slots[j].meta) {
				t.Fatalf("%s set %d: ways %d and %d in the other recency order", what, i/ways, j, i%ways)
			}
		}
	}
}

// TestWarmMatchesReference drives the fused Warm and the composed
// reference walk with an identical randomized stream — dirty-eviction
// cascades included, and invalidations so that sets have holes — over
// associativities with odd tails and way indexes wider than five bits.
// It requires the same line in the same way of every set (an install
// lands in the lowest-index empty way, else on the LRU one), the same
// eviction statistics, and identical behavior of a demand-access phase
// over the warmed state.
func TestWarmMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 8, 11, 16, 32, 64} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			const cores = 2
			cfg := HierConfig{
				Cores:        cores,
				L1:           Config{Name: "L1", SizeBytes: 4 * ways * 64, Ways: ways, LineBytes: 64, Latency: 4},
				L2:           Config{Name: "L2", SizeBytes: 8 * ways * 64, Ways: ways, LineBytes: 64, Latency: 14},
				LLC:          Config{Name: "LLC", SizeBytes: 32 * ways * 64, Ways: ways, LineBytes: 64, Latency: 44},
				MSHRs:        8,
				PerCoreMSHRs: 4,
			}
			memA := &flakyMem{rng: rand.New(rand.NewSource(9))}
			memB := &flakyMem{rng: rand.New(rand.NewSource(9))}
			fused := MustNewHierarchy(cfg, memA)
			ref := MustNewHierarchy(cfg, memB)
			levels := func(h *Hierarchy) []*Cache { return append(append([]*Cache{h.llc}, h.l1...), h.l2...) }
			fusedLv, refLv := levels(fused), levels(ref)

			drive := rand.New(rand.NewSource(0x9a12))
			pool := 80 * ways // lines: 2.5 LLCs
			for step := 0; step < 30_000+400*ways; step++ {
				core := drive.Intn(cores)
				line := uint64(drive.Intn(pool)) * 64
				write := drive.Intn(3) == 0 // plenty of dirty lines → cascades
				fused.Warm(core, line, write)
				warmRef(ref, core, line, write)
				if step%5 == 0 {
					// Punch a hole, in a burst now and then so that sets
					// have several at once.
					for n := 1 + step%25/20*ways; n > 0; n-- {
						lv, gone := drive.Intn(len(refLv)), uint64(drive.Intn(pool))*64
						fusedLv[lv].Invalidate(gone)
						refLv[lv].Invalidate(gone)
					}
				}
			}
			compareHier(t, 0, fused, ref)
			for i, c := range fusedLv {
				sameLayout(t, fmt.Sprintf("level %d", i), c, refLv[i])
			}
			// A demand phase over the warmed state exposes any LRU-order or
			// dirtiness divergence once more, through what a run observes.
			for step := 0; step < 20_000; step++ {
				now := int64(step)
				core := drive.Intn(cores)
				line := uint64(drive.Intn(pool)) * 64
				write := drive.Intn(4) == 0
				oA := fused.Access(now, core, line, write, nil)
				oB := accessRef(ref, now, core, line, write, nil)
				if oA != oB {
					t.Fatalf("demand step %d: outcome mismatch: fused %+v ref %+v", step, oA, oB)
				}
				fused.Tick(now)
				ref.Tick(now)
				if drive.Intn(3) == 0 {
					memA.deliverOldest(now)
					memB.deliverOldest(now)
				}
			}
			compareHier(t, -1, fused, ref)
		})
	}
}

// sameState requires two caches to be identical: every slot word, the
// clock and the statistics.
func sameState(t *testing.T, what string, got, want *Cache) {
	t.Helper()
	if got.clock != want.clock {
		t.Fatalf("%s: clock %d, want %d", what, got.clock, want.clock)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, want %+v", what, got.stats, want.stats)
	}
	for i := range want.slots {
		if got.slots[i] != want.slots[i] {
			t.Fatalf("%s set %d way %d: slot %#x, want %#x",
				what, i/want.cfg.Ways, i%want.cfg.Ways, got.slots[i], want.slots[i])
		}
	}
}

// TestWarmPrivateMatchesWarm drives two hierarchies with the same
// round-robin warm stream: one through Warm directly, the other through
// the recorded form — WarmPrivate per item, then the rounds' LLC
// operations replayed in the same global order by one WarmLLC, the
// decomposition the concurrent prewarm path uses. Every level must end
// in the identical state: slots, clock, statistics.
func TestWarmPrivateMatchesWarm(t *testing.T) {
	const cores = 3
	cfg := HierConfig{
		Cores:        cores,
		L1:           Config{Name: "L1", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64, Latency: 4},
		L2:           Config{Name: "L2", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, Latency: 14},
		LLC:          Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Latency: 44},
		MSHRs:        8,
		PerCoreMSHRs: 4,
	}
	direct := MustNewHierarchy(cfg, &flakyMem{rng: rand.New(rand.NewSource(9))})
	recorded := MustNewHierarchy(cfg, &flakyMem{rng: rand.New(rand.NewSource(9))})
	drive := rand.New(rand.NewSource(41))

	var ops []LLCOp
	for round := 0; round < 12_000; round++ {
		// One item per core per round, like prewarm's round-robin.
		for c := 0; c < cores; c++ {
			addr, write := uint64(drive.Intn(500))*64, drive.Intn(3) == 0
			direct.Warm(c, addr, write)
			ops = recorded.WarmPrivate(c, addr, write, ops)
		}
		// Replay after a varying number of rounds, on 1 to 4 shards.
		if round%7 == 0 || round == 11_999 {
			recorded.WarmLLC(ops, 1+round%4)
			ops = ops[:0]
			sameState(t, "LLC", recorded.llc, direct.llc)
		}
	}
	for c := 0; c < cores; c++ {
		sameState(t, fmt.Sprintf("L1[%d]", c), recorded.l1[c], direct.l1[c])
		sameState(t, fmt.Sprintf("L2[%d]", c), recorded.l2[c], direct.l2[c])
	}
}
