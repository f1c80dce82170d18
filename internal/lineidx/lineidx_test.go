package lineidx

import (
	"math"
	"math/bits"
	"testing"
)

// inverse is golden's inverse modulo 2^64 (Newton's iteration doubles the
// correct low bits each step, from the 3 that x·x ≡ 1 mod 8 gives).
var inverse = func() uint64 {
	inv := uint64(golden)
	for range 5 {
		inv *= 2 - golden*inv
	}
	return inv
}()

// keyAt returns the key number s of those whose home slot is home in a
// table of size slots.
func keyAt(size int, home, s uint64) uint64 {
	shift := 64 - bits.TrailingZeros(uint(size))
	return (home<<shift | s) * inverse
}

func TestKeyAtLandsHome(t *testing.T) {
	if golden*inverse != 1 {
		t.Fatalf("inverse %#x is not golden's", inverse)
	}
	x := New[int](5) // 16 slots
	for home := range uint64(16) {
		for s := range uint64(40) {
			if got := x.home(keyAt(16, home, s)); got != home {
				t.Fatalf("keyAt(16, %d, %d) has home %d", home, s, got)
			}
		}
	}
}

func TestSize(t *testing.T) {
	for _, c := range []struct{ capacity, slots int }{{1, 2}, {2, 4}, {3, 8}, {4, 8}, {5, 16}, {32, 64}, {64, 128}, {65, 256}} {
		if x := New[struct{}](c.capacity); len(x.slots) != c.slots {
			t.Errorf("capacity %d: %d slots, want %d", c.capacity, len(x.slots), c.slots)
		}
	}
}

// TestCapacityOutOfRange checks that New refuses, before allocating, a
// capacity whose table size would overflow an int, as well as one below 1.
func TestCapacityOutOfRange(t *testing.T) {
	for _, capacity := range []int{0, -1, MaxCap + 1, math.MaxInt/2 + 1, math.MaxInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", capacity)
				}
			}()
			New[struct{}](capacity)
		}()
	}
}

// FuzzLineIndex runs a sequence of puts, gets and deletes on an index and
// on a Go map and requires the same answers after every step: every key
// of the sequence's universe is looked up, Len is compared, and a put
// beyond the capacity must panic. The first three bytes pick the capacity
// (1–16) and where the keys' home slots lie: from slot base, over spread
// consecutive slots, so a spread of 1 forces every key onto one home slot
// and a base near the table's end makes the probes wrap around. Each
// further pair of bytes is an operation and a key number.
func FuzzLineIndex(f *testing.F) {
	// One home slot, the last: every probe wraps to slot 0.
	f.Add([]byte{7, 15, 1, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 1, 1, 1, 3, 0, 4, 2, 2, 1, 0})
	// One home slot, the first, filled to the capacity and past it.
	f.Add([]byte{3, 0, 1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 1, 0, 5, 2, 0, 1, 2, 1, 3})
	// Two home slots at the end of an eight-slot table, deletes from the
	// middle of a wrapped cluster.
	f.Add([]byte{4, 6, 2, 0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 1, 0, 1, 2, 1, 3, 0, 1, 2, 0, 2, 2, 1, 3})
	// A full table of 16, its keys over four home slots, emptied again.
	f.Add([]byte{16, 13, 4,
		0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0, 16,
		2, 5, 2, 0, 2, 15, 2, 9, 1, 4, 2, 1, 2, 2, 2, 3, 2, 4, 2, 6, 2, 7, 2, 8, 2, 10, 2, 11, 2, 12, 2, 13, 2, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		capacity := int(data[0]%16) + 1
		x := New[int](capacity)
		size := uint64(len(x.slots))
		base, spread := uint64(data[1])&x.mask, uint64(data[2])%size+1
		key := func(s byte) uint64 { return keyAt(int(size), (base+uint64(s)%spread)&x.mask, uint64(s)) }
		universe := 2*capacity + 3
		want := map[uint64]int{}
		for step, ops := 0, data[3:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			k := key(ops[1] % byte(universe))
			switch ops[0] % 3 {
			case 0:
				_, had := want[k]
				full := !had && len(want) == capacity
				if panicked := putPanics(&x, k, step); panicked != full {
					t.Fatalf("step %d: put of %#x with %d of %d keys: panicked %v", step, k, len(want), capacity, panicked)
				}
				if !full {
					want[k] = step
				}
			case 1:
			case 2:
				_, had := want[k]
				if got := x.Delete(k); got != had {
					t.Fatalf("step %d: Delete(%#x) = %v, want %v", step, k, got, had)
				}
				delete(want, k)
			}
			if x.Len() != len(want) {
				t.Fatalf("step %d: Len %d, want %d", step, x.Len(), len(want))
			}
			for s := range universe {
				k := key(byte(s))
				v, ok := x.Get(k)
				if w, had := want[k]; ok != had || v != w {
					t.Fatalf("step %d: Get(%#x) = %d, %v, want %d, %v", step, k, v, ok, w, had)
				}
			}
		}
	})
}

// putPanics puts key with value v and reports whether Put panicked.
func putPanics(x *Index[int], key uint64, v int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	x.Put(key, v)
	return false
}
