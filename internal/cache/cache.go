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
		// Line addresses are formed by masking, and a tag word keeps three
		// flags in the line offset's bits (bit 0 is also the dirty flag of
		// a warm writeback, LLCOp).
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

// Way state lives in one []uint64 per level, a set being Ways+1 adjacent
// words: a recency word, then one tag word per way. A whole set is a short
// contiguous run of memory (72 bytes for the 8-way L1, 136 for the 16-way
// L2, 96 for the 11-way LLC), which matters most during functional warming
// of DRAM-sized footprints, where every access lands in a random set and
// the probe is pure memory traffic.
//
// A tag word is the line's address with three flags in the low bits the
// line offset leaves free (Validate keeps lines at least 8 bytes long).
// An invalid way is 0; a tag compare masks out dirty and prefetched.
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

	identity  = 0xfedcba9876543210 // nibble k is k
	nibbleLSB = 0x1111111111111111
	nibbleMSB = 0x8888888888888888
)

// Cache is one set-associative cache level.
type Cache struct {
	cfg      Config
	words    []uint64 // sets × (1+Ways): recency word, tag words
	setShift uint
	setMask  uint64
	stride   uint64 // words per set, 1+Ways
	lruShift uint   // 4 × (Ways-1): the least recent way's nibble
	ranks    uint64 // the nibbles of ranks 0 to Ways-1
	base     uint64 // stored XOR into a recency word
	stats    LevelStats
}

// New returns a cache level; it panics on invalid configuration
// (a construction-time programming error).
func New(cfg Config) *Cache { return newCache(cfg, nil) }

// newCache is New with the word array taken from a (nil: allocated).
func newCache(cfg Config, a *Arena) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		words:    a.words(sets * (1 + cfg.Ways)),
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		stride:   uint64(1 + cfg.Ways),
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

// set returns addr's set: its recency word, then its tag words.
func (c *Cache) set(addr uint64) []uint64 {
	b := (addr >> c.setShift & c.setMask) * c.stride
	return c.words[b : b+c.stride]
}

// key returns the tag word of a clean, valid copy of addr's line.
func (c *Cache) key(addr uint64) uint64 { return addr>>c.setShift<<c.setShift | tagValid }

// find returns the way of set whose tag word holds key, or -1.
func find(set []uint64, key uint64) int {
	for i, t := range set[1:] {
		if t&^tagFlags == key {
			return i
		}
	}
	return -1
}

// claim returns the way of set that is to hold key's line, already moved
// to the front: the way holding it (hit), else the way at the bottom rank
// — the lowest-index invalid way, or the least recently used.
func (c *Cache) claim(set []uint64, key uint64) (way int, hit bool) {
	if i := find(set, key); i >= 0 {
		c.promote(set, i)
		return i, true
	}
	o := set[0] ^ c.base
	w := o >> c.lruShift & 0xf
	set[0] = c.rotate(o, w, c.ranks)
	return int(w), false
}

// promote moves way to recency rank 0, every way that was more recent
// down one rank. A way already at the front costs no store.
func (c *Cache) promote(set []uint64, way int) {
	o, w := set[0]^c.base, uint64(way)
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
	set[0] = c.rotate(o, w, z^(z-1))
}

// rotate returns the stored recency word of order o with way w moved to
// rank 0 from the highest rank m covers; the ranks below move down one.
func (c *Cache) rotate(o, w, m uint64) uint64 { return (o&^m | o<<4&m | w) ^ c.base }

// hit counts a demand hit on way of set and updates the way's flags: a
// prefetched line's first use is counted and the flag cleared, a write
// marks the line dirty. The caller moves the way to the front.
func (c *Cache) hit(set []uint64, way int, write bool) {
	c.stats.Hits++
	t := set[1+way]
	nt := t &^ tagPrefetched
	if nt != t {
		c.stats.PrefetchHits++
	}
	if write {
		nt |= tagDirty
	}
	if nt != t {
		set[1+way] = nt
	}
}

// Lookup probes the cache for the line containing addr. When demand is
// true the access is counted and LRU state updated; write marks the line
// dirty on a hit.
func (c *Cache) Lookup(addr uint64, demand, write bool) bool {
	if demand {
		c.stats.Accesses++
	}
	set := c.set(addr)
	i := find(set, c.key(addr))
	switch {
	case i < 0:
		if demand {
			c.stats.Misses++
		}
		return false
	case demand:
		c.hit(set, i, write)
		c.promote(set, i)
	case write:
		set[1+i] |= tagDirty
	}
	return true
}

// Touch probes for the line without touching statistics; on a hit it
// updates recency (and dirtiness for writes) and reports true. Used by
// functional cache warming.
func (c *Cache) Touch(addr uint64, write bool) bool {
	set := c.set(addr)
	i := find(set, c.key(addr))
	if i < 0 {
		return false
	}
	if write {
		set[1+i] |= tagDirty
	}
	c.promote(set, i)
	return true
}

// Contains reports presence without disturbing statistics or recency.
func (c *Cache) Contains(addr uint64) bool { return find(c.set(addr), c.key(addr)) >= 0 }

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
	set := c.set(addr)
	key := c.key(addr)
	i, hit := c.claim(set, key)
	var ev Eviction
	had := false
	nt := key
	if dirty {
		nt |= tagDirty
	}
	if t := set[1+i]; hit {
		nt |= t & tagDirty
		if prefetched {
			nt |= t & tagPrefetched
		}
	} else {
		if t != 0 {
			c.stats.Evictions++
			had = true
			ev = Eviction{Addr: t &^ (tagValid | tagFlags), Dirty: t&tagDirty != 0}
			if ev.Dirty {
				c.stats.DirtyEvictions++
			}
		}
		if prefetched {
			nt |= tagPrefetched
			c.stats.PrefetchFills++
		}
	}
	set[1+i] = nt
	return ev, had
}

// warmAccess is one functional-warm access: a present line is refreshed
// (Touch's hit effects), an absent one installed over the LRU victim
// (Insert's miss effects, eviction statistics included, with dirty=write
// and prefetched=false). Only a dirty eviction matters to warming: wb is
// then the evicted line's address with bit 0 set, a dirty LLCOp, and
// otherwise 0.
func (c *Cache) warmAccess(addr uint64, write bool) (wb uint64, hit bool) {
	set := c.set(addr)
	key := c.key(addr)
	i, hit := c.claim(set, key)
	if write {
		key |= tagDirty
	}
	if t := set[1+i]; hit {
		set[1+i] = t | key&tagDirty
	} else {
		if t != 0 {
			c.stats.Evictions++
			if t&tagDirty != 0 {
				c.stats.DirtyEvictions++
				wb = t &^ tagFlags // the line with tagValid, bit 0, set
			}
		}
		set[1+i] = key
	}
	return wb, hit
}

// Invalidate removes the line containing addr, reporting whether it was
// present and dirty. The way joins the invalid ways at the bottom of the
// recency order, below every valid way and above the invalid ways of lower
// index. Only the tests call it.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.set(addr)
	i := find(set, c.key(addr))
	if i < 0 {
		return false, false
	}
	dirty = set[1+i]&tagDirty != 0
	set[1+i] = 0
	// Rewrite the ranks: the valid ways in their order, then the invalid
	// ones from the highest index down.
	r, order, k := set[0]^c.base, uint64(0), 0
	for j := range c.cfg.Ways {
		if w := r >> (4 * j) & 0xf; set[1+w] != 0 {
			order |= w << (4 * k)
			k++
		}
	}
	for w := c.cfg.Ways - 1; w >= 0; w-- {
		if set[1+w] == 0 {
			order |= uint64(w) << (4 * k)
			k++
		}
	}
	set[0] = (r&^c.ranks | order) ^ c.base
	return true, dirty
}
