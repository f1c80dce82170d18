package cache

import (
	"testing"

	"dramstacks/internal/prefetch"
)

// TestReach pins the reach of the paper's levels, 2^29 ways' worth of
// bytes each, and the hierarchy's, the smallest of them.
func TestReach(t *testing.T) {
	hc := DefaultHierConfig(4)
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{{hc.L1, 2 << 40}, {hc.L2, 32 << 40}, {hc.LLC, 512 << 40}} {
		if got := tc.cfg.Reach(); got != tc.want {
			t.Errorf("%s: reach %#x, want %#x", tc.cfg.Name, got, tc.want)
		}
	}
	if got := hc.Reach(); got != 2<<40 {
		t.Errorf("hierarchy: reach %#x, want the L1's %#x", got, uint64(2<<40))
	}
}

// mustPanicBeyond runs f, which must panic with the beyond-the-reach
// error for addr.
func mustPanicBeyond(t *testing.T, what string, addr uint64, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if e, ok := recover().(beyondReach); !ok || e.addr != addr {
			t.Errorf("%s(%#x) did not panic for an address beyond the reach", what, addr)
		}
	}()
	f()
}

// TestBeyondReachPanics: every entry point that forms a tag panics on an
// address at or beyond the reach instead of aliasing it to a lower one —
// the hierarchy's on its reach before any level sees the address, each
// level's methods on the level's own — and takes the last line below it.
func TestBeyondReachPanics(t *testing.T) {
	cfg := DefaultHierConfig(1)
	mem := &fakeMem{}
	h := MustNewHierarchy(cfg, mem)
	reach := cfg.Reach()
	for _, addr := range []uint64{reach, reach + 63, reach + 64<<20, ^uint64(0)} {
		mustPanicBeyond(t, "Access", addr, func() { h.Access(0, 0, addr, false, nopWaiter{}) })
		mustPanicBeyond(t, "Warm", addr, func() { h.Warm(0, addr, true) })
		mustPanicBeyond(t, "WarmPrivate", addr, func() { h.WarmPrivate(0, addr, true, nil) })
		mustPanicBeyond(t, "Prefetch", addr, func() { h.Prefetch(0, 0, addr) })
	}
	empty := MustNewHierarchy(cfg, &fakeMem{})
	sameHierarchy(t, h, empty)
	if h.Stats() != empty.Stats() || len(mem.reads) != 0 {
		t.Fatalf("the refused addresses changed the hierarchy: %+v, %d reads", h.Stats(), len(mem.reads))
	}

	last := reach - 64
	h.Warm(0, last, true)
	if ops := h.WarmPrivate(0, last+64-1, false, nil); len(ops) != 0 {
		t.Errorf("WarmPrivate of a line Warm installed: LLC operations %v", ops)
	}
	if o := h.Access(1, 0, last, false, nopWaiter{}); o.Level != 1 {
		t.Errorf("Access of the last line below the reach: %+v, want an L1 hit", o)
	}
	h.Prefetch(2, 0, last-64)
	if len(mem.reads) != 1 || mem.reads[0].addr != last-64 {
		t.Errorf("Prefetch below the reach: reads %+v", mem.reads)
	}

	for _, c := range []*Cache{h.l1[0], h.l2[0], h.llc} {
		r := c.reach
		mustPanicBeyond(t, c.cfg.Name+" Lookup", r, func() { c.Lookup(r, true, false) })
		mustPanicBeyond(t, c.cfg.Name+" Touch", r, func() { c.Touch(r, false) })
		mustPanicBeyond(t, c.cfg.Name+" Contains", r, func() { c.Contains(r) })
		mustPanicBeyond(t, c.cfg.Name+" Insert", r, func() { c.Insert(r, true, false) })
		mustPanicBeyond(t, c.cfg.Name+" Invalidate", r, func() { c.Invalidate(r) })
		mustPanicBeyond(t, c.cfg.Name+" warmAccess", r, func() { c.warmAccess(r, false) })
		if c.Insert(r-64, false, false); !c.Contains(r - 64) {
			t.Errorf("%s: the last line below its reach was not installed", c.cfg.Name)
		}
	}
	r := h.llc.reach
	mustPanicBeyond(t, "WarmLLC", r, func() { h.WarmLLC([]WarmLog{{Ops: []LLCOp{LLCOp(r)}, Cnt: []uint8{1}}}) })
}

// TestPrefetchStopsAtTheEnds: a stream the prefetcher follows up to the
// reach, or down to line 0, asks for lines past the end of the address
// space; none of them is fetched, and nothing panics.
func TestPrefetchStopsAtTheEnds(t *testing.T) {
	cfg := DefaultHierConfig(1)
	cfg.Prefetch = prefetch.DefaultConfig()
	reach := cfg.Reach()
	for _, lines := range [][]uint64{
		{reach - 8*64, reach - 7*64, reach - 6*64, reach - 5*64, reach - 4*64, reach - 3*64, reach - 2*64, reach - 64},
		{7 * 64, 6 * 64, 5 * 64, 4 * 64, 3 * 64, 2 * 64, 64, 0},
	} {
		mem := &fakeMem{}
		h := MustNewHierarchy(cfg, mem)
		for i, a := range lines {
			h.Access(int64(i), 0, a, false, nopWaiter{})
			for mem.delivered < len(mem.reads) {
				mem.deliver(0)
			}
		}
		if h.Stats().PrefetchesToMem == 0 {
			t.Fatalf("stream from %#x: no prefetches, the test proves nothing", lines[0])
		}
		for _, r := range mem.reads {
			if r.addr >= reach {
				t.Errorf("stream from %#x: read of %#x, beyond the reach", lines[0], r.addr)
			}
		}
	}
}

// TestTopTagBitNeverAliases: at every level of the paper's machine, two
// lines of one set whose tags differ only in the top bit a tag word keeps
// (tag bit 28) are two lines — both resident at once, each evicted under
// its own address — and through the hierarchy's flattened Access the
// second misses every level though the first is in all three.
func TestTopTagBitNeverAliases(t *testing.T) {
	hc := DefaultHierConfig(1)
	for _, cfg := range []Config{hc.L1, hc.L2, hc.LLC} {
		t.Run(cfg.Name, func(t *testing.T) {
			c := New(cfg)
			stride := uint64(1) << c.tagShift // the next tag, same set
			a := uint64(5 * cfg.LineBytes)
			b := a | stride<<(tagBits-1)
			c.Insert(a, true, false)
			if c.Contains(b) || c.Lookup(b, true, false) {
				t.Fatalf("%#x is found after installing %#x", b, a)
			}
			if _, had := c.Insert(b, false, false); had || !c.Contains(a) || !c.Contains(b) {
				t.Fatalf("%#x and %#x are not both resident", a, b)
			}
			for k := uint64(1); k <= uint64(cfg.Ways-2); k++ {
				c.Insert(a+k*stride, false, false)
			}
			want := []Eviction{{Addr: a, Dirty: true}, {Addr: b}}
			for i, w := range want {
				if ev, had := c.Insert(a+uint64(cfg.Ways+i)*stride, false, false); !had || ev != w {
					t.Errorf("eviction %d: %+v (%v), want %+v", i, ev, had, w)
				}
			}
		})
	}

	mem := &fakeMem{}
	h := MustNewHierarchy(hc, mem)
	a := uint64(5 * 64)
	b := a | uint64(1)<<(tagBits-1+h.l1[0].tagShift)
	for i, addr := range []uint64{a, a, b, b, a} {
		o := h.Access(int64(i), 0, addr, false, nopWaiter{})
		if first := i == 0 || i == 2; first != (o.Status == Pending) || !first && o.Level != 1 {
			t.Fatalf("access %d to %#x: %+v", i, addr, o)
		}
		for mem.delivered < len(mem.reads) {
			mem.deliver(0)
		}
	}
	if len(mem.reads) != 2 || mem.reads[0].addr != a || mem.reads[1].addr != b {
		t.Errorf("memory reads %+v, want one of %#x and one of %#x", mem.reads, a, b)
	}
}
