package cache

import (
	"math/rand"
	"testing"
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
// state: words and statistics.
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
	if want := DefaultHierConfig(4).ArrayBytes() + tiny(3).ArrayBytes(); peak != want {
		t.Errorf("the arena peaked at %d bytes, want %d: the arrays of its largest machine of each geometry", peak, want)
	}
}

// TestArenaMachineBytes pins the cache arrays of the paper's machine as an
// exact count. A set is a 4-byte tag word per way and an 8-byte recency
// word: the 11 MB LLC is 16 384 sets × 52 bytes = 851 968 bytes at every
// core count, and a core adds an L1 of 64 sets × 40 bytes (2 560 bytes)
// and an L2 of 1 024 sets × 72 bytes (73 728 bytes), 76 288 bytes in all.
// HierConfig.ArrayBytes, which the other arena tests read, must give the
// same count.
func TestArenaMachineBytes(t *testing.T) {
	for _, tc := range []struct {
		cores int
		bytes int64
	}{{1, 928_256}, {4, 1_157_120}, {8, 1_462_272}} {
		a := new(Arena)
		cfg := DefaultHierConfig(tc.cores)
		if _, err := NewHierarchyIn(a, cfg, &fakeMem{}); err != nil {
			t.Fatal(err)
		}
		if a.Bytes() != tc.bytes || cfg.ArrayBytes() != tc.bytes {
			t.Errorf("%d cores: the arena holds %d bytes and ArrayBytes is %d, want %d",
				tc.cores, a.Bytes(), cfg.ArrayBytes(), tc.bytes)
		}
	}
}
