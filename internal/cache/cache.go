// Package cache implements the processor-side cache hierarchy: set
// associative write-back, write-allocate caches with LRU replacement,
// MSHRs with miss merging, and dirty-eviction writebacks that eventually
// become DRAM writes. It reproduces the paper's §VI setup: 32 KB private
// L1s, 1 MB private L2s with a stream prefetcher, and a shared LLC kept at
// a constant size across core counts.
//
// The caches are timing-functional: they track presence, dirtiness and
// recency, not data. Hits complete after a fixed latency; misses travel
// down the hierarchy and, on an LLC miss, to the memory controller, whose
// per-request latency is dynamic.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// Name labels the level in statistics ("L1", "L2", "LLC").
	Name string
	// SizeBytes is the total capacity; it must be a power-of-two
	// multiple of Ways × LineBytes.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache line size (64 in the paper), a power of
	// two of at least 2.
	LineBytes int
	// Latency is the load-to-use latency of a hit at this level, in CPU
	// cycles, measured from the core (absolute, not additive).
	Latency int
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache %s: size/ways/line must be positive, got %d/%d/%d",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	case c.LineBytes < 2 || c.LineBytes&(c.LineBytes-1) != 0:
		// Line addresses are formed by masking, and bit 0 of one is the
		// dirty flag of a warm writeback (LLCOp).
		return fmt.Errorf("cache %s: line size %d not a power of two of at least 2", c.Name, c.LineBytes)
	case c.Latency < 1:
		return fmt.Errorf("cache %s: latency must be at least 1, got %d", c.Name, c.Latency)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*line %d",
			c.Name, c.SizeBytes, c.Ways*c.LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// LevelStats counts one level's activity.
type LevelStats struct {
	Accesses       int64
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
	PrefetchFills  int64
	PrefetchHits   int64 // demand hits on prefetched lines
}

// HitRate returns hits/accesses (0 when idle).
func (s LevelStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Way state is packed into two 64-bit words per way, kept adjacent in
// one slot array: a whole set is a short contiguous run of memory (two
// hardware cache lines for an 8-way set) instead of a spread of padded
// structs. The layout matters most during functional warming of
// DRAM-sized footprints, where every access lands in a random set and
// the probe + LRU victim scan cost is pure memory traffic.
const (
	// slot.enc holds tag<<1 | tagValid; an invalid way is 0.
	tagValid = 1
	// slot.meta holds used<<metaUsedShift | flags. The LRU clock
	// assigns each valid way a distinct used value, so packed metadata
	// words of valid ways compare exactly like their used fields.
	metaPrefetched = 1 << 0
	metaDirty      = 1 << 1
	metaUsedShift  = 2
)

type slot struct {
	enc  uint64 // tag<<1 | tagValid
	meta uint64 // used<<2 | dirty<<1 | prefetched
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg      Config
	slots    []slot // sets × ways, flattened
	setShift uint
	setMask  uint64
	wayKey   uint64 // power of two >= Ways: a warmStamp victim key is meta*wayKey + way
	clock    int64
	stats    LevelStats
}

// New returns a cache level; it panics on invalid configuration
// (a construction-time programming error).
func New(cfg Config) *Cache { return newCache(cfg, nil) }

// newCache is New with the slot array taken from a (nil: allocated).
func newCache(cfg Config, a *Arena) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		slots:    a.slots(sets * cfg.Ways),
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		wayKey:   1 << bits.Len(uint(cfg.Ways-1)),
	}
}

// Cfg returns the level's configuration.
func (c *Cache) Cfg() Config { return c.cfg }

// Stats returns the level's counters.
func (c *Cache) Stats() LevelStats { return c.stats }

// set returns addr's set as a slice of the slot array.
func (c *Cache) set(addr uint64) []slot {
	b := ((addr >> c.setShift) & c.setMask) * uint64(c.cfg.Ways)
	return c.slots[b : b+uint64(c.cfg.Ways)]
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.setShift }

// Lookup probes the cache for the line containing addr. When demand is
// true the access is counted and LRU state updated; write marks the line
// dirty on a hit.
func (c *Cache) Lookup(addr uint64, demand, write bool) bool {
	if demand {
		c.stats.Accesses++
	}
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	for i := range set {
		if set[i].enc == enc {
			m := &set[i].meta
			if demand {
				c.clock++
				nm := uint64(c.clock)<<metaUsedShift | *m&(metaDirty|metaPrefetched)
				if nm&metaPrefetched != 0 {
					c.stats.PrefetchHits++
					nm &^= metaPrefetched
				}
				c.stats.Hits++
				*m = nm
			}
			if write {
				*m |= metaDirty
			}
			return true
		}
	}
	if demand {
		c.stats.Misses++
	}
	return false
}

// Touch probes for the line without touching statistics; on a hit it
// updates recency (and dirtiness for writes) and reports true. Used by
// functional cache warming.
func (c *Cache) Touch(addr uint64, write bool) bool {
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	for i := range set {
		if set[i].enc == enc {
			c.clock++
			nm := uint64(c.clock)<<metaUsedShift | set[i].meta&(metaDirty|metaPrefetched)
			if write {
				nm |= metaDirty
			}
			set[i].meta = nm
			return true
		}
	}
	return false
}

// Contains reports presence without disturbing statistics or recency.
func (c *Cache) Contains(addr uint64) bool {
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	for i := range set {
		if set[i].enc == enc {
			return true
		}
	}
	return false
}

// Eviction describes a line pushed out by an Insert.
type Eviction struct {
	Addr  uint64
	Dirty bool
}

// Insert places the line containing addr into the cache and returns the
// eviction it caused, if any. If the line is already present it is
// refreshed in place (dirty/prefetched flags are OR-ed/overwritten).
func (c *Cache) Insert(addr uint64, dirty, prefetched bool) (Eviction, bool) {
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	c.clock++
	for i := range set {
		if set[i].enc == enc {
			m := set[i].meta
			nm := uint64(c.clock) << metaUsedShift
			if dirty || m&metaDirty != 0 {
				nm |= metaDirty
			}
			if prefetched && m&metaPrefetched != 0 {
				nm |= metaPrefetched
			}
			set[i].meta = nm
			return Eviction{}, false
		}
	}
	// First minimum of meta: an empty way is all zero and a valid way's
	// metadata is at least 1<<metaUsedShift (the clock is incremented
	// before every install), so empty ways sort first, lowest index
	// first, without a validity branch. warmStamp picks the same way.
	victim, min := 0, set[0].meta
	for i := 1; i < len(set); i++ {
		if m := set[i].meta; m < min {
			victim, min = i, m
		}
	}
	var ev Eviction
	had := false
	if v := set[victim]; v.enc&tagValid != 0 {
		c.stats.Evictions++
		had = true
		ev = Eviction{Addr: v.enc >> 1 << c.setShift, Dirty: v.meta&metaDirty != 0}
		if v.meta&metaDirty != 0 {
			c.stats.DirtyEvictions++
		}
	}
	nm := uint64(c.clock) << metaUsedShift
	if dirty {
		nm |= metaDirty
	}
	if prefetched {
		nm |= metaPrefetched
		c.stats.PrefetchFills++
	}
	set[victim] = slot{enc: enc, meta: nm}
	return ev, had
}

// warmAccess is one functional-warm access: a present line is refreshed
// (Touch's hit effects), an absent one installed over the LRU victim
// (Insert's miss effects, eviction statistics included, with dirty=write
// and prefetched=false). Only a dirty eviction matters to warming: wb is
// then the evicted line's address with bit 0 set, a dirty LLCOp, and
// otherwise 0. The clock ticks exactly once, hit or miss; WarmLLC derives
// every stamp of a batch from that.
func (c *Cache) warmAccess(addr uint64, write bool) (wb uint64, hit bool) {
	c.clock++
	return c.warmStamp(addr, write, c.clock, &c.stats)
}

// warmStamp is warmAccess with the recency stamp and the statistics
// target supplied by the caller; it reads and writes addr's set only.
//
// One pass over the set compares tags, leaving early on a hit, and folds
// each way's key meta*wayKey + way into a running minimum without a
// data-dependent branch: on random streams the victim is unpredictable,
// and Go compiles both `if k < best` and min() in this loop to a branch.
// Two alternating accumulators halve the dependency chain. Valid ways
// carry distinct used stamps and an empty way is all zero, so the minimum
// key names the way a strict-< first-minimum scan of meta (Insert's)
// picks: the least recently used, or while any is empty the lowest-index
// empty one.
func (c *Cache) warmStamp(addr uint64, write bool, stamp int64, st *LevelStats) (wb uint64, hit bool) {
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	nm := uint64(stamp) << metaUsedShift
	if write {
		nm |= metaDirty
	}
	key := c.wayKey
	best, other := ^uint64(0), ^uint64(0)
	for i := range set {
		s := set[i]
		if s.enc == enc {
			set[i].meta = nm | s.meta&(metaDirty|metaPrefetched)
			return 0, true
		}
		// lt is 1 exactly when the key is below other, which then takes it.
		d, lt := bits.Sub64(s.meta*key+uint64(i), other, 0)
		best, other = other+d&-lt, best
	}
	d, lt := bits.Sub64(other, best, 0)
	v := &set[(best+d&-lt)&(key-1)]
	if v.enc&tagValid != 0 {
		st.Evictions++
		if v.meta&metaDirty != 0 {
			st.DirtyEvictions++
			wb = v.enc>>1<<c.setShift | 1
		}
	}
	*v = slot{enc: enc, meta: nm}
	return wb, false
}

// Invalidate removes the line containing addr, reporting whether it was
// present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	for i := range set {
		if set[i].enc == enc {
			present, dirty = true, set[i].meta&metaDirty != 0
			// Clearing the metadata keeps the victim-scan invariant: an
			// invalid slot is all zero, a valid way's metadata is >= 1<<2.
			set[i] = slot{}
			return
		}
	}
	return
}
