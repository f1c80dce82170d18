package cache

import (
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{Name: "T", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 3}
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SizeBytes = 0 },
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.LineBytes, c.SizeBytes = 1, 16 },   // no bit for LLCOp's dirty flag
		func(c *Config) { c.LineBytes, c.SizeBytes = 48, 768 }, // not a power of two
		func(c *Config) { c.Latency = 0 },
		func(c *Config) { c.SizeBytes = 1000 },       // not divisible
		func(c *Config) { c.SizeBytes = 64 * 2 * 3 }, // 3 sets
	}
	for i, mutate := range bad {
		cfg := smallCfg()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if got := smallCfg().Sets(); got != 8 {
		t.Errorf("sets = %d, want 8", got)
	}
}

func TestLookupInsertBasics(t *testing.T) {
	c := New(smallCfg())
	if c.Lookup(0x1000, true, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000, false, false)
	if !c.Lookup(0x1000, true, false) {
		t.Fatal("miss after insert")
	}
	// Same line, different byte offset.
	if !c.Lookup(0x1004, true, false) {
		t.Fatal("miss within the inserted line")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(smallCfg()) // 8 sets, 2 ways; same set every 8*64=512 bytes
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Insert(a, false, false)
	c.Insert(b, false, false)
	c.Lookup(a, true, false) // a is now MRU
	ev, had := c.Insert(d, false, false)
	if !had || ev.Addr != b {
		t.Errorf("evicted %+v (had=%v), want line %#x", ev, had, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("wrong lines resident after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, true, false)
	c.Insert(512, false, false)
	ev, had := c.Insert(1024, false, false)
	if !had || !ev.Dirty || ev.Addr != 0 {
		t.Errorf("dirty eviction not reported: %+v had=%v", ev, had)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d", c.Stats().DirtyEvictions)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, false, false)
	c.Lookup(0, true, true) // write hit
	c.Insert(512, false, false)
	ev, _ := c.Insert(1024, false, false)
	if !ev.Dirty {
		t.Error("written line evicted clean")
	}
}

func TestPrefetchedFlagLifecycle(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, false, true)
	if c.Stats().PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d", c.Stats().PrefetchFills)
	}
	c.Lookup(0, true, false)
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("prefetch hits = %d", c.Stats().PrefetchHits)
	}
	// Second demand hit does not double count.
	c.Lookup(0, true, false)
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("prefetch hits double counted: %d", c.Stats().PrefetchHits)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0x40, true, false)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("invalidate = %v,%v want true,true", present, dirty)
	}
	if c.Contains(0x40) {
		t.Error("line still present after invalidate")
	}
	if present, _ := c.Invalidate(0x40); present {
		t.Error("double invalidate reported present")
	}
}

func TestReinsertMergesDirty(t *testing.T) {
	c := New(smallCfg())
	c.Insert(0, true, false)
	c.Insert(0, false, false) // reinsert clean must not clear dirty
	c.Insert(512, false, false)
	ev, _ := c.Insert(1024, false, false)
	if !ev.Dirty {
		t.Error("dirty bit lost on reinsert")
	}
}

// TestCapacityInvariant: a cache never holds more distinct lines than its
// capacity, and every inserted line is findable until evicted.
func TestCapacityInvariant(t *testing.T) {
	f := func(addrs []uint64) bool {
		c := New(smallCfg())
		resident := map[uint64]bool{}
		for _, a := range addrs {
			a &= (1 << 20) - 1
			line := a &^ 63
			ev, had := c.Insert(line, false, false)
			resident[line] = true
			if had {
				if !resident[ev.Addr] {
					return false // evicted something never inserted
				}
				delete(resident, ev.Addr)
			}
			if len(resident) > 16 { // 8 sets × 2 ways
				return false
			}
			if !c.Contains(line) {
				return false
			}
		}
		//dramvet:allow detrange(pure membership checks; order cannot matter)
		for line := range resident {
			if !c.Contains(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTouch(t *testing.T) {
	c := New(smallCfg())
	if c.Touch(0x100, false) {
		t.Fatal("touch hit in empty cache")
	}
	c.Insert(0x100, false, false)
	before := c.Stats()
	if !c.Touch(0x100, true) {
		t.Fatal("touch missed resident line")
	}
	if c.Stats() != before {
		t.Error("touch changed statistics")
	}
	// Touch marked the line dirty: when it is eventually evicted, the
	// eviction carries the dirty bit.
	c.Insert(0x100+512, false, false)
	ev, had := c.Insert(0x100+1024, false, false)
	if !had || ev.Addr != 0x100 || !ev.Dirty {
		t.Fatalf("eviction = %+v (had=%v), want dirty 0x100", ev, had)
	}
	// Recency: touch beats an older untouched line.
	d := New(smallCfg())
	d.Insert(0, false, false)
	d.Insert(512, false, false)
	d.Touch(0, false) // 0 is now more recent than 512
	ev, _ = d.Insert(1024, false, false)
	if ev.Addr != 512 {
		t.Errorf("evicted %#x, want the untouched 512", ev.Addr)
	}
}
