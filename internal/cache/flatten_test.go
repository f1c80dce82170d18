package cache

import (
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

// warmRef is the composed Touch/Insert warm walk the fused Warm
// replaces (the pair-per-level form it had before warmAccess).
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

// TestWarmMatchesReference drives the fused Warm and the composed
// reference walk with an identical randomized stream — dirty-eviction
// cascades included — then requires identical cache content, dirtiness
// and eviction statistics, and identical behavior of a demand-access
// phase over the warmed state (which is sensitive to LRU order).
func TestWarmMatchesReference(t *testing.T) {
	const cores = 2
	cfg := HierConfig{
		Cores:        cores,
		L1:           Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Latency: 4},
		L2:           Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 14},
		LLC:          Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Latency: 44},
		MSHRs:        8,
		PerCoreMSHRs: 4,
	}
	memA := &flakyMem{rng: rand.New(rand.NewSource(9))}
	memB := &flakyMem{rng: rand.New(rand.NewSource(9))}
	fused := MustNewHierarchy(cfg, memA)
	ref := MustNewHierarchy(cfg, memB)

	drive := rand.New(rand.NewSource(0x9a12))
	for step := 0; step < 30_000; step++ {
		core := drive.Intn(cores)
		line := uint64(drive.Intn(600)) * 64
		write := drive.Intn(3) == 0 // plenty of dirty lines → cascades
		fused.Warm(core, line, write)
		warmRef(ref, core, line, write)
	}
	compareHier(t, 0, fused, ref)
	for c := 0; c < cores; c++ {
		for line := uint64(0); line < 600*64; line += 64 {
			if fused.l1[c].Contains(line) != ref.l1[c].Contains(line) {
				t.Fatalf("core %d line %#x: L1 presence diverged", c, line)
			}
			if fused.l2[c].Contains(line) != ref.l2[c].Contains(line) {
				t.Fatalf("core %d line %#x: L2 presence diverged", c, line)
			}
		}
	}
	for line := uint64(0); line < 600*64; line += 64 {
		if fused.llc.Contains(line) != ref.llc.Contains(line) {
			t.Fatalf("line %#x: LLC presence diverged", line)
		}
	}
	// A demand phase over the warmed state exposes any LRU-order or
	// dirtiness divergence the presence check can't see.
	for step := 0; step < 20_000; step++ {
		now := int64(step)
		core := drive.Intn(cores)
		line := uint64(drive.Intn(600)) * 64
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
}

// TestWarmPrivateMatchesWarm drives two hierarchies with the same
// round-robin warm stream: one through Warm directly, the other through
// the recorded form — WarmPrivate per item with the LLC operations
// replayed in the same global order via WarmLLC, the decomposition the
// concurrent prewarm path uses. State must match exactly, including
// dirty-writeback cascades and eviction statistics.
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

	type item struct {
		core  int
		addr  uint64
		write bool
	}
	var ops []LLCOp
	for round := 0; round < 12_000; round++ {
		// One item per core per round, like prewarm's round-robin.
		items := make([]item, cores)
		for c := range items {
			items[c] = item{c, uint64(drive.Intn(500)) * 64, drive.Intn(3) == 0}
		}
		for _, it := range items {
			direct.Warm(it.core, it.addr, it.write)
		}
		// Recorded form: private phases first (per core), LLC replay in
		// the same (item, core) order afterwards.
		ops = ops[:0]
		for _, it := range items {
			ops = recorded.WarmPrivate(it.core, it.addr, it.write, ops)
		}
		for _, op := range ops {
			recorded.WarmLLC(op)
		}
		if round%4000 == 0 {
			compareHier(t, round, recorded, direct)
		}
	}
	compareHier(t, -1, recorded, direct)
	for line := uint64(0); line < 500*64; line += 64 {
		for c := 0; c < cores; c++ {
			if a, b := direct.l1[c].Contains(line), recorded.l1[c].Contains(line); a != b {
				t.Fatalf("L1[%d] diverges on %#x: direct %v recorded %v", c, line, a, b)
			}
			if a, b := direct.l2[c].Contains(line), recorded.l2[c].Contains(line); a != b {
				t.Fatalf("L2[%d] diverges on %#x: direct %v recorded %v", c, line, a, b)
			}
		}
		if a, b := direct.llc.Contains(line), recorded.llc.Contains(line); a != b {
			t.Fatalf("LLC diverges on %#x: direct %v recorded %v", line, a, b)
		}
	}
}
