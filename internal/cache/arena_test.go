package cache

import (
	"math/rand"
	"testing"
	"unsafe"
)

// warmRandomly drives h with a seeded stream of functional accesses from
// every core, dirtying lines at every level.
func warmRandomly(h *Hierarchy, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		h.Warm(i%h.cfg.Cores, uint64(rng.Intn(1<<16))*64, rng.Intn(3) == 0)
	}
}

// sameHierarchy requires every level of got and want in the identical
// state: slots, clock, statistics.
func sameHierarchy(t *testing.T, got, want *Hierarchy) {
	t.Helper()
	sameState(t, "LLC", got.llc, want.llc)
	for c := range want.l1 {
		sameState(t, "L1", got.l1[c], want.l1[c])
		sameState(t, "L2", got.l2[c], want.l2[c])
	}
}

// TestArenaHierarchyMatchesFresh builds hierarchies one after another on
// one arena — a larger machine after a smaller, a smaller after a larger,
// another geometry in between — each after its predecessor has filled its
// arrays with dirty lines, and holds each to a freshly allocated hierarchy
// given the same accesses. The arena must stop growing once it has served
// the largest machine, and every array after that is one reused.
func TestArenaHierarchyMatchesFresh(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != slotBytes {
		t.Fatalf("a slot is %d bytes, slotBytes says %d", got, slotBytes)
	}
	tiny := func(cores int) HierConfig {
		cfg := DefaultHierConfig(cores)
		cfg.L1.SizeBytes, cfg.L1.Ways = 1<<10, 2
		cfg.L2.SizeBytes, cfg.L2.Ways = 4<<10, 4
		cfg.LLC.SizeBytes, cfg.LLC.Ways = 4<<10, 4 // the length of tiny's L2 array
		return cfg
	}
	arena := new(Arena)
	var peak int64
	for i, cfg := range []HierConfig{
		DefaultHierConfig(2), DefaultHierConfig(4), tiny(3), DefaultHierConfig(1),
		DefaultHierConfig(4), tiny(1), DefaultHierConfig(3),
	} {
		arena.Reset()
		bytes, reuses := arena.Bytes(), arena.Reuses()
		got, err := NewHierarchyIn(arena, cfg, &fakeMem{})
		if err != nil {
			t.Fatal(err)
		}
		want := MustNewHierarchy(cfg, &fakeMem{})
		sameHierarchy(t, got, want) // all empty: the arrays were cleared
		warmRandomly(got, int64(i), 20_000)
		warmRandomly(want, int64(i), 20_000)
		sameHierarchy(t, got, want)

		arrays := int64(1 + 2*cfg.Cores)
		switch i {
		case 0, 1, 2:
			if arena.Bytes() <= bytes {
				t.Errorf("machine %d: a larger machine or a new geometry did not grow the arena (%d bytes)", i, arena.Bytes())
			}
			peak = arena.Bytes()
		default:
			if arena.Bytes() != peak || arena.Reuses()-reuses != arrays {
				t.Errorf("machine %d: the arena holds %d bytes (peak %d) and reused %d of %d arrays",
					i, arena.Bytes(), peak, arena.Reuses()-reuses, arrays)
			}
		}
	}
	llc, l2, l1 := int64(11<<20/64), int64(1<<20/64), int64(32<<10/64)
	tinyArrays := int64(3*16+4*64) * slotBytes // tiny(3): three L1s; three L2s and the LLC
	if want := (llc+4*(l2+l1))*slotBytes + tinyArrays; peak != want {
		t.Errorf("the arena peaked at %d bytes, want %d: the arrays of its largest machine of each geometry", peak, want)
	}
}
