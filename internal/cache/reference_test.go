package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refCache is the two-word, clock-stamped cache level that the one-word
// layout replaced, its code unchanged, kept as the independent oracle of
// TestCacheMatchesReference: every way is a slot of a tag word and a
// metadata word whose high bits are an LRU timestamp. Nothing outside the
// tests uses it.

// Way state is packed into two 64-bit words per way, kept adjacent in
// one slot array.
const (
	// slot.enc holds tag<<1 | tagValid; an invalid way is 0.
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

type refCache struct {
	cfg      Config
	slots    []slot // sets × ways, flattened
	setShift uint
	setMask  uint64
	wayKey   uint64 // power of two >= Ways: a warmStamp victim key is meta*wayKey + way
	clock    int64
	stats    LevelStats
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &refCache{
		cfg:      cfg,
		slots:    make([]slot, sets*cfg.Ways),
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		wayKey:   1 << bits.Len(uint(cfg.Ways-1)),
	}
}

// set returns addr's set as a slice of the slot array.
func (c *refCache) set(addr uint64) []slot {
	b := ((addr >> c.setShift) & c.setMask) * uint64(c.cfg.Ways)
	return c.slots[b : b+uint64(c.cfg.Ways)]
}

func (c *refCache) tag(addr uint64) uint64 { return addr >> c.setShift }

func (c *refCache) Lookup(addr uint64, demand, write bool) bool {
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

func (c *refCache) Touch(addr uint64, write bool) bool {
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

func (c *refCache) Contains(addr uint64) bool {
	set := c.set(addr)
	enc := c.tag(addr)<<1 | tagValid
	for i := range set {
		if set[i].enc == enc {
			return true
		}
	}
	return false
}

func (c *refCache) Insert(addr uint64, dirty, prefetched bool) (Eviction, bool) {
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

// warmAccess ticks the clock exactly once, hit or miss.
func (c *refCache) warmAccess(addr uint64, write bool) (wb uint64, hit bool) {
	c.clock++
	return c.warmStamp(addr, write, c.clock, &c.stats)
}

// warmStamp folds each way's key meta*wayKey + way into a running minimum
// without a data-dependent branch, over two alternating accumulators.
// Valid ways carry distinct used stamps and an empty way is all zero, so
// the minimum key names the way a strict-< first-minimum scan of meta
// (Insert's) picks.
func (c *refCache) warmStamp(addr uint64, write bool, stamp int64, st *LevelStats) (wb uint64, hit bool) {
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

func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
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

// sameAsRef requires c and ref to agree on everything a caller can
// observe and on where each line lives: the statistics, and in every set
// each way's 32-bit tag word — the reference line's tag with its valid,
// dirty and prefetched flags — and the valid ways in recency order, from
// the stamps on ref's side, from the recency word on c's. The line a tag
// word rebuilds, the way an eviction does, must be the reference's whole
// 64-bit line: a tag that lost a bit fails here. It also holds c to the
// recency word's invariant: the invalid ways sit below every valid way,
// in descending index order.
func sameAsRef(t *testing.T, step int, c *Cache, ref *refCache) {
	t.Helper()
	if c.stats != ref.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, c.stats, ref.stats)
	}
	ways := c.cfg.Ways
	for s := 0; s < c.cfg.Sets(); s++ {
		set, o, rs := c.tags[s*ways:][:ways], c.orders[s]^c.base, ref.slots[s*ways:][:ways]
		var order, refOrder []int
		invalid := -1 // the last invalid way met going down the ranks
		for k := 0; k < ways; k++ {
			switch w := int(o>>(4*k)) & 0xf; {
			case set[w] == 0 && invalid >= 0 && w > invalid:
				t.Fatalf("step %d: set %d invalid way %d at rank %d below invalid way %d", step, s, w, k, invalid)
			case set[w] == 0:
				invalid = w
			case invalid >= 0:
				t.Fatalf("step %d: set %d valid way %d at rank %d below invalid way %d", step, s, w, k, invalid)
			default:
				order = append(order, w)
			}
			g, r := set[k], rs[k]
			want := uint32(0)
			if r.enc != 0 {
				line := r.enc >> 1 << c.setShift
				want = uint32(line>>c.tagShift)<<flagBits | tagValid
				if r.meta&metaDirty != 0 {
					want |= tagDirty
				}
				if r.meta&metaPrefetched != 0 {
					want |= tagPrefetched
				}
				if got := c.lineOf(g, line); got != line {
					t.Fatalf("step %d: set %d way %d tag word %#x rebuilds line %#x, reference %#x", step, s, k, g, got, line)
				}
				refOrder = append(refOrder, k)
			}
			if g != want {
				t.Fatalf("step %d: set %d way %d holds %#x, reference %#x", step, s, k, g, want)
			}
		}
		sort.Slice(refOrder, func(i, j int) bool { return rs[refOrder[i]].meta > rs[refOrder[j]].meta })
		if !slices.Equal(order, refOrder) {
			t.Fatalf("step %d: set %d recency order %v, reference %v", step, s, order, refOrder)
		}
	}
}

// TestCacheMatchesReference drives a Cache and the stamped refCache
// through one randomized stream of every operation that changes a level —
// Lookup (demand or not, read or write), Touch, Insert (dirty, prefetched),
// Invalidate, warmAccess and WarmLLC of 1 to 4 cores' logs, which the
// reference applies one by one in (item, core) order — at every
// associativity from 1 to 16 ways and 1 to 64 sets, on a few more lines
// per set than there are ways and at unaligned addresses. Half the lines
// of a set have the lowest tags and half the highest, up to the last line
// below the level's reach, so every bit of a tag word is exercised. After
// every operation the results, the statistics and every set (sameAsRef)
// must agree.
func TestCacheMatchesReference(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	for ways := 1; ways <= 16; ways++ {
		for sets := 1; sets <= 64; sets *= 2 {
			t.Run(fmt.Sprintf("%d-way-%d-sets", ways, sets), func(t *testing.T) {
				hc := DefaultHierConfig(1)
				hc.LLC = Config{Name: "LLC", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, Latency: 44}
				h := MustNewHierarchy(hc, &fakeMem{})
				c, ref := h.llc, newRefCache(hc.LLC)
				rng := rand.New(rand.NewSource(int64(ways*100 + sets)))
				addr := func() uint64 {
					tag := uint64(rng.Intn(ways + 3))
					if tag%2 == 1 {
						tag = 1<<tagBits - 1 - tag/2
					}
					return (tag*uint64(sets)+uint64(rng.Intn(sets)))*64 + uint64(rng.Intn(64))
				}
				flip := func() bool { return rng.Intn(2) == 0 }
				var ops []LLCOp
				for step := 0; step < steps; step++ {
					a := addr()
					switch op := rng.Intn(13); {
					case op < 3:
						demand, write := op != 0, flip()
						if got, want := c.Lookup(a, demand, write), ref.Lookup(a, demand, write); got != want {
							t.Fatalf("step %d: Lookup(%#x, %v, %v) = %v, reference %v", step, a, demand, write, got, want)
						}
					case op < 5:
						write := flip()
						if got, want := c.Touch(a, write), ref.Touch(a, write); got != want {
							t.Fatalf("step %d: Touch(%#x, %v) = %v, reference %v", step, a, write, got, want)
						}
					case op < 8:
						dirty, prefetched := flip(), rng.Intn(3) == 0
						ev, had := c.Insert(a, dirty, prefetched)
						rev, rhad := ref.Insert(a, dirty, prefetched)
						if ev != rev || had != rhad {
							t.Fatalf("step %d: Insert(%#x, %v, %v) = %+v, %v, reference %+v, %v",
								step, a, dirty, prefetched, ev, had, rev, rhad)
						}
					case op < 9:
						p, d := c.Invalidate(a)
						rp, rd := ref.Invalidate(a)
						if p != rp || d != rd {
							t.Fatalf("step %d: Invalidate(%#x) = %v, %v, reference %v, %v", step, a, p, d, rp, rd)
						}
					case op < 12:
						write := flip()
						wb, hit := c.warmAccess(a, write)
						rwb, rhit := ref.warmAccess(a, write)
						if wb != rwb || hit != rhit {
							t.Fatalf("step %d: warmAccess(%#x, %v) = %#x, %v, reference %#x, %v",
								step, a, write, wb, hit, rwb, rhit)
						}
					default:
						logs := make([]WarmLog, 1+rng.Intn(4))
						items := make([]int, len(logs))
						for i := range items {
							items[i] = rng.Intn(sets + 1)
						}
						ops = ops[:0]
						for j := range slices.Max(items) {
							for i := range logs {
								if j >= items[i] {
									continue
								}
								n := rng.Intn(4)
								for range n {
									op := LLCOp(addr()&^63) | LLCOp(rng.Intn(2))
									logs[i].Ops = append(logs[i].Ops, op)
									ops = append(ops, op)
								}
								logs[i].Cnt = append(logs[i].Cnt, uint8(n))
							}
						}
						h.WarmLLC(logs)
						for _, op := range ops {
							ref.warmAccess(uint64(op), op&1 != 0)
						}
					}
					if got, want := c.Contains(a), ref.Contains(a); got != want {
						t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, a, got, want)
					}
					sameAsRef(t, step, c, ref)
				}
			})
		}
	}
}
