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
	// Ways is the set associativity, at most 16.
	Ways int
	// LineBytes is the cache line size (64 in the paper), a power of
	// two of at least 8.
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
	case c.Ways > 16:
		// The recency word has one nibble per way.
		return fmt.Errorf("cache %s: %d ways, at most 16 supported", c.Name, c.Ways)
	case c.LineBytes < 8 || c.LineBytes&(c.LineBytes-1) != 0:
		// Line addresses are formed by masking, a warm writeback keeps its
		// dirty flag in bit 0 of its line address (LLCOp), and no line is
		// shorter than a word.
		return fmt.Errorf("cache %s: line size %d not a power of two of at least 8", c.Name, c.LineBytes)
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

// Reach is the level's first address it cannot tell apart from a lower
// one: a tag word keeps tagBits of the line address above the set index,
// so the reach is 2^tagBits ways' worth of bytes. Every method of a
// level panics on an address at or beyond it rather than alias it.
func (c Config) Reach() uint64 { return uint64(c.SizeBytes/c.Ways) << tagBits }

// ArrayBytes is the size of the level's arrays: a set is a 4-byte tag
// word a way and an 8-byte recency word.
func (c Config) ArrayBytes() int64 { return int64(c.Sets()) * int64(4*c.Ways+8) }

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

// Way state lives in two arrays per level. The tags are a []uint32, a set
// being Ways adjacent tag words, one per way; the recency words are a
// []uint64, one per set. A set's tags are a short contiguous run of memory
// (32 bytes for the 8-way L1, 64 for the 16-way L2, 44 for the 11-way
// LLC, plus 8 for the recency word), which matters most during functional
// warming of DRAM-sized footprints, where every access lands in a random
// set and the probe is pure memory traffic.
//
// A tag word is the line's tag, the address above the set index
// (addr >> tagShift), shifted over three flags: valid, dirty and
// prefetched. The tag has tagBits bits, so a level tells apart the
// addresses below its reach (Config.Reach) and panics on any other. An
// invalid way is 0; a tag compare masks out dirty and prefetched; an
// eviction rebuilds the line's address from the tag and the set index.
//
// The recency word orders the ways: nibble k holds the way at recency rank
// k, rank 0 the most recently used, so the least recent of Ways ways sits
// in nibble Ways-1. It is stored XOR the level's base, whose nibble k is
// Ways-1-k below Ways and k from Ways up, so that a zeroed array is a valid
// state and neither make nor the arena's clear needs an initialisation
// pass: in a zeroed set rank k holds way Ways-1-k. Nibbles at and above
// Ways keep their own way forever: the word is a permutation of 0-15, and
// every way appears in exactly one nibble.
//
// Invalid ways are always the least recent, in descending index order:
// a zeroed set starts that way, a way only becomes valid by being claimed
// from rank Ways-1 and moved to the front, and Invalidate puts the way it
// clears back into that bottom run. The way at rank Ways-1 is therefore
// the lowest-index invalid way while there is one and the least recently
// used otherwise, which is the victim either way: a miss reads it off the
// word.
const (
	tagValid      = 1 << 0
	tagDirty      = 1 << 1
	tagPrefetched = 1 << 2
	tagFlags      = tagDirty | tagPrefetched
	flagBits      = 3
	tagBits       = 32 - flagBits

	identity  = 0xfedcba9876543210 // nibble k is k
	nibbleLSB = 0x1111111111111111
	nibbleMSB = 0x8888888888888888
)

// Cache is one set-associative cache level.
type Cache struct {
	cfg      Config
	tags     []uint32 // sets × Ways tag words
	orders   []uint64 // one stored recency word per set
	setShift uint     // the line offset's bits
	setMask  uint64
	tagShift uint   // the line offset's and the set index's bits
	reach    uint64 // Config.Reach
	ways     uint64
	lruShift uint   // 4 × (Ways-1): the least recent way's nibble
	ranks    uint64 // the nibbles of ranks 0 to Ways-1
	base     uint64 // stored XOR into a recency word
	stats    LevelStats
}

// New returns a cache level; it panics on invalid configuration
// (a construction-time programming error).
func New(cfg Config) *Cache { return newCache(cfg, nil) }

// newCache is New with the arrays taken from a (nil: allocated).
func newCache(cfg Config, a *Arena) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	arrays := a.arrays(cfg)
	c := &Cache{
		cfg:      cfg,
		tags:     arrays.tags,
		orders:   arrays.orders,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		tagShift: uint(bits.TrailingZeros(uint(cfg.LineBytes * sets))),
		reach:    cfg.Reach(),
		ways:     uint64(cfg.Ways),
		lruShift: uint(4 * (cfg.Ways - 1)),
		ranks:    uint64(1)<<(4*cfg.Ways) - 1,
		base:     identity,
	}
	for k := range cfg.Ways {
		c.base ^= uint64(k^(cfg.Ways-1-k)) << (4 * k)
	}
	return c
}

// Cfg returns the level's configuration.
func (c *Cache) Cfg() Config { return c.cfg }

// Stats returns the level's counters.
func (c *Cache) Stats() LevelStats { return c.stats }

// locate returns addr's set — its tag words and its stored recency word —
// and the tag word of a clean, valid copy of its line. It panics on an
// address at or beyond the level's reach.
func (c *Cache) locate(addr uint64) (set []uint32, r *uint64, key uint32) {
	if addr >= c.reach {
		panic(beyondReach{c.cfg.Name, c.reach, addr})
	}
	i := c.setIndex(addr)
	return c.set(i), &c.orders[i], c.key(addr)
}

// setIndex returns the number of addr's set.
func (c *Cache) setIndex(addr uint64) uint64 { return addr >> c.setShift & c.setMask }

// set returns the tag words of set number i.
func (c *Cache) set(i uint64) []uint32 { return c.tags[i*c.ways:][:c.ways] }

// key returns the tag word of a clean, valid copy of addr's line, which
// must be below the level's reach.
func (c *Cache) key(addr uint64) uint32 { return uint32(addr>>c.tagShift)<<flagBits | tagValid }

// lineOf returns the address of the line whose tag word is t in the set
// of addr.
func (c *Cache) lineOf(t uint32, addr uint64) uint64 {
	return uint64(t>>flagBits)<<c.tagShift | addr&(c.setMask<<c.setShift)
}

// beyondReach is the panic of an address a cache cannot tell apart from a
// lower one.
type beyondReach struct {
	level       string
	reach, addr uint64
}

func (e beyondReach) Error() string {
	return fmt.Sprintf("cache %s: address %#x at or beyond the reach %#x", e.level, e.addr, e.reach)
}

// find returns the way of set whose tag word holds key, or -1.
func find(set []uint32, key uint32) int {
	for i, t := range set {
		if t&^tagFlags == key {
			return i
		}
	}
	return -1
}

// claim returns the way of set that is to hold key's line, already moved
// to the front of the recency word r: the way holding it (hit), else the
// way at the bottom rank — the lowest-index invalid way, or the least
// recently used.
func (c *Cache) claim(set []uint32, r *uint64, key uint32) (way int, hit bool) {
	if i := find(set, key); i >= 0 {
		c.promote(r, i)
		return i, true
	}
	o := *r ^ c.base
	w := o >> c.lruShift & 0xf
	*r = c.rotate(o, w, c.ranks)
	return int(w), false
}

// promote moves way to rank 0 of the recency word r, every way that was
// more recent down one rank. A way already at the front costs no store.
func (c *Cache) promote(r *uint64, way int) {
	o, w := *r^c.base, uint64(way)
	if o&0xf == w {
		return
	}
	// x is the order o with the way XOR-ed into every nibble:
	// its only zero nibble is at the way's rank. Below the first zero
	// nibble the SWAR test has no false positives, so the lowest flag of z
	// is the top bit of that nibble, and z ^ (z-1) covers the ranks from 0
	// to the way's.
	x := o ^ w*nibbleLSB
	z := (x - nibbleLSB) &^ x & nibbleMSB
	*r = c.rotate(o, w, z^(z-1))
}

// rotate returns the stored recency word of order o with way w moved to
// rank 0 from the highest rank m covers; the ranks below move down one.
func (c *Cache) rotate(o, w, m uint64) uint64 { return (o&^m | o<<4&m | w) ^ c.base }

// hit counts a demand hit on way of set and updates the way's flags: a
// prefetched line's first use is counted and the flag cleared, a write
// marks the line dirty. The caller moves the way to the front.
func (c *Cache) hit(set []uint32, way int, write bool) {
	c.stats.Hits++
	t := set[way]
	nt := t &^ tagPrefetched
	if nt != t {
		c.stats.PrefetchHits++
	}
	if write {
		nt |= tagDirty
	}
	if nt != t {
		set[way] = nt
	}
}

// Lookup probes the cache for the line containing addr. When demand is
// true the access is counted and LRU state updated; write marks the line
// dirty on a hit.
func (c *Cache) Lookup(addr uint64, demand, write bool) bool {
	if demand {
		c.stats.Accesses++
	}
	set, r, key := c.locate(addr)
	i := find(set, key)
	switch {
	case i < 0:
		if demand {
			c.stats.Misses++
		}
		return false
	case demand:
		c.hit(set, i, write)
		c.promote(r, i)
	case write:
		set[i] |= tagDirty
	}
	return true
}

// Touch probes for the line without touching statistics; on a hit it
// updates recency (and dirtiness for writes) and reports true. Used by
// functional cache warming.
func (c *Cache) Touch(addr uint64, write bool) bool {
	set, r, key := c.locate(addr)
	i := find(set, key)
	if i < 0 {
		return false
	}
	if write {
		set[i] |= tagDirty
	}
	c.promote(r, i)
	return true
}

// Contains reports presence without disturbing statistics or recency.
func (c *Cache) Contains(addr uint64) bool {
	set, _, key := c.locate(addr)
	return find(set, key) >= 0
}

// has is Contains for an address the caller knows to be below the
// level's reach.
func (c *Cache) has(addr uint64) bool { return find(c.set(c.setIndex(addr)), c.key(addr)) >= 0 }

// Eviction describes a line pushed out by an Insert.
type Eviction struct {
	Addr  uint64
	Dirty bool
}

// Insert places the line containing addr into the cache and returns the
// eviction it caused, if any. If the line is already present it is
// refreshed in place: dirty is OR-ed in, and the line stays prefetched
// only if it was and the insert is a prefetch too.
func (c *Cache) Insert(addr uint64, dirty, prefetched bool) (Eviction, bool) {
	set, r, key := c.locate(addr)
	i, hit := c.claim(set, r, key)
	var ev Eviction
	had := false
	nt := key
	if dirty {
		nt |= tagDirty
	}
	if t := set[i]; hit {
		nt |= t & tagDirty
		if prefetched {
			nt |= t & tagPrefetched
		}
	} else {
		if t != 0 {
			c.stats.Evictions++
			had = true
			ev = Eviction{Addr: c.lineOf(t, addr), Dirty: t&tagDirty != 0}
			if ev.Dirty {
				c.stats.DirtyEvictions++
			}
		}
		if prefetched {
			nt |= tagPrefetched
			c.stats.PrefetchFills++
		}
	}
	set[i] = nt
	return ev, had
}

// warmAccess is one functional-warm access: a present line is refreshed
// (Touch's hit effects), an absent one installed over the LRU victim
// (Insert's miss effects, eviction statistics included, with dirty=write
// and prefetched=false). Only a dirty eviction matters to warming: wb is
// then the evicted line's address with bit 0 set, a dirty LLCOp, and
// otherwise 0.
func (c *Cache) warmAccess(addr uint64, write bool) (wb uint64, hit bool) {
	set, r, key := c.locate(addr)
	i, hit := c.claim(set, r, key)
	if write {
		key |= tagDirty
	}
	if t := set[i]; hit {
		set[i] = t | key&tagDirty
	} else {
		if t != 0 {
			c.stats.Evictions++
			if t&tagDirty != 0 {
				c.stats.DirtyEvictions++
				wb = c.lineOf(t, addr) | 1
			}
		}
		set[i] = key
	}
	return wb, hit
}

// Invalidate removes the line containing addr, reporting whether it was
// present and dirty. The way joins the invalid ways at the bottom of the
// recency order, below every valid way and above the invalid ways of lower
// index. Only the tests call it.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, r, key := c.locate(addr)
	i := find(set, key)
	if i < 0 {
		return false, false
	}
	dirty = set[i]&tagDirty != 0
	set[i] = 0
	// Rewrite the ranks: the valid ways in their order, then the invalid
	// ones from the highest index down.
	o, order, k := *r^c.base, uint64(0), 0
	for j := range c.cfg.Ways {
		if w := o >> (4 * j) & 0xf; set[w] != 0 {
			order |= w << (4 * k)
			k++
		}
	}
	for w := c.cfg.Ways - 1; w >= 0; w-- {
		if set[w] == 0 {
			order |= uint64(w) << (4 * k)
			k++
		}
	}
	*r = (o&^c.ranks | order) ^ c.base
	return true, dirty
}
