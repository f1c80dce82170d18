// Package lineidx is a fixed-capacity index from line addresses to small
// values, for the simulated memory path's lookups by line: the cache
// hierarchy's in-flight fills (MSHRs) and a memory controller's queued
// writes. Both hold at most a configured number of lines, so the index
// is sized once and never grows: its table is the smallest power of two
// of at least twice the capacity, probed linearly from a key's home slot,
// and a delete shifts the rest of its cluster back instead of leaving a
// tombstone that later lookups would have to walk past.
package lineidx

import "math/bits"

// golden is 2^64 divided by the golden ratio, rounded to odd: the
// multiplier of Fibonacci hashing, which spreads keys that differ only in
// their high bits (line addresses share their low, offset bits) over the
// table. Being odd, it is invertible modulo 2^64.
const golden = 0x9e3779b97f4a7c15

// Index maps up to a fixed number of keys to values of type V. New makes
// one.
type Index[V any] struct {
	slots []slot[V]
	mask  uint64 // len(slots)-1
	shift uint   // 64 - log2(len(slots)): a home slot is the hash's top bits
	n     int
	cap   int
}

type slot[V any] struct {
	key  uint64
	used bool
	val  V
}

// MaxCap is the largest capacity New accepts: the largest whose table
// size, a power of two of at least twice the capacity, is an int.
const MaxCap = 1 << (bits.UintSize - 3)

// New returns an empty index for up to capacity keys; it panics on a
// capacity outside 1..MaxCap. The table is allocated here, so a caller
// bounds the capacity by what it can afford.
func New[V any](capacity int) Index[V] {
	if capacity < 1 || capacity > MaxCap {
		panic("lineidx: capacity out of range")
	}
	size := 1 << bits.Len(uint(2*capacity-1)) // the least power of two >= 2 × capacity
	return Index[V]{
		slots: make([]slot[V], size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		cap:   capacity,
	}
}

// Len returns the number of keys in the index.
func (x *Index[V]) Len() int { return x.n }

// home returns key's home slot.
func (x *Index[V]) home(key uint64) uint64 { return key * golden >> x.shift }

// find returns the slot holding key, or the empty slot that ends its
// probe sequence.
func (x *Index[V]) find(key uint64) (i uint64, ok bool) {
	for i = x.home(key); x.slots[i].used; i = (i + 1) & x.mask {
		if x.slots[i].key == key {
			return i, true
		}
	}
	return i, false
}

// Get returns key's value and whether key is in the index.
func (x *Index[V]) Get(key uint64) (V, bool) {
	i, ok := x.find(key)
	return x.slots[i].val, ok
}

// Put sets key's value, adding key when it is absent. Adding a key to an
// index that holds Cap keys panics: the callers bound what they index.
func (x *Index[V]) Put(key uint64, v V) {
	i, ok := x.find(key)
	if !ok {
		if x.n == x.cap {
			panic("lineidx: Put on a full index")
		}
		x.n++
		x.slots[i].key, x.slots[i].used = key, true
	}
	x.slots[i].val = v
}

// Delete removes key and reports whether it was there. The keys after it
// in its cluster whose probe sequence passes its slot move back, so every
// remaining key is still reached from its home without a gap.
func (x *Index[V]) Delete(key uint64) bool {
	i, ok := x.find(key)
	if !ok {
		return false
	}
	x.n--
	for j := (i + 1) & x.mask; x.slots[j].used; j = (j + 1) & x.mask {
		// The key at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then its probe never passes i.
		if h := x.home(x.slots[j].key); (j-h)&x.mask < (j-i)&x.mask {
			continue
		}
		x.slots[i] = x.slots[j]
		i = j
	}
	x.slots[i] = slot[V]{}
	return true
}
