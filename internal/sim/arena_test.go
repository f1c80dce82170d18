package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/workload"
)

// runOn runs sp's machine to its end on arena (nil: freshly allocated).
func runOn(t *testing.T, sp randSpec, arena *Arena) *Result {
	t.Helper()
	sys, err := New(standard.Default(), WithConfig(sp.cfg), WithSources(sp.sources()...), WithArena(arena))
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return sys.Run()
}

// cancelOn leaves arena as a run cancelled mid-flight leaves it: a
// prewarmed four-core machine stopped at the poll after 3000 memory
// cycles (runCancelled), fills outstanding.
func cancelOn(t *testing.T, arena *Arena) {
	t.Helper()
	cfg := Default(4)
	cfg.PrewarmOps = 1 << 12
	mk := func() []cpu.Source { return SyntheticSources(workload.Random, 4, 0.3) }
	if _, sys := runCancelled(t, cfg, mk, false, WithArena(arena)); !sys.hier.Pending() {
		t.Fatal("the run was cancelled with nothing in flight")
	}
}

// TestArenaDifferentialRandomizedSpecs runs every spec of
// TestGoldenRandomizedSpecs freshly allocated and then on one arena that
// has just served another machine — the previous spec's, or a run
// cancelled mid-flight — and requires the identical Result. Over the
// fifty the predecessors must have included a larger machine, a smaller
// one, a prewarmed one and a cancelled one, or the suite proves less than
// it says.
func TestArenaDifferentialRandomizedSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed7))
	arena := new(Arena)
	var after struct{ larger, smaller, prewarmed, cancelled int }
	var prev randSpec
	for i := 0; i < 50; i++ {
		sp := drawSpec(rng, i)
		fresh := runOn(t, sp, nil)
		switch {
		case i%7 == 3:
			cancelOn(t, arena)
			after.cancelled++
		case i > 0:
			if prev.cores > sp.cores {
				after.larger++
			}
			if prev.cores < sp.cores {
				after.smaller++
			}
			if prev.cfg.PrewarmOps > 0 {
				after.prewarmed++
			}
		}
		if reused := runOn(t, sp, arena); !reflect.DeepEqual(fresh, reused) {
			ft, fv, rv := reflect.TypeOf(*fresh), reflect.ValueOf(*fresh), reflect.ValueOf(*reused)
			for f := 0; f < ft.NumField(); f++ {
				if !reflect.DeepEqual(fv.Field(f).Interface(), rv.Field(f).Interface()) {
					t.Errorf("%s: Result.%s differs on a reused arena:\n fresh:  %+v\n reused: %+v",
						sp.name, ft.Field(f).Name, fv.Field(f).Interface(), rv.Field(f).Interface())
				}
			}
		}
		prev = sp
	}
	if after.larger == 0 || after.smaller == 0 || after.prewarmed == 0 || after.cancelled == 0 {
		t.Errorf("the predecessors lack a kind: %+v", after)
	}
	// Four cores at most, and the cancelled run's are four.
	if want := Default(4).Hier.ArrayBytes(); arena.slots.Bytes() != want || arena.Reuses() < 100 {
		t.Errorf("the arena holds %d bytes of cache arrays after %d reuses, want %d: its largest machine's",
			arena.slots.Bytes(), arena.Reuses(), want)
	}
}

// TestArenaPrewarmBuffers: the parallel prewarm's two record sets come
// from the arena too. A second machine finds them sized and allocates
// none, and both warm exactly as a machine without an arena.
func TestArenaPrewarmBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sp := randSpec{name: "prewarmed", cfg: Default(4), seed: 7, cores: 4,
		pattern: workload.Random, chains: 2, footprint: 1 << 26, storeFrac: 0.3}
	sp.cfg.MaxMemCycles = 8_000
	sp.cfg.PrewarmOps = 4*warmChunk + 77 // five chunks, the last a short one
	fresh := runOn(t, sp, nil)

	arena := new(Arena)
	first := runOn(t, sp, arena)
	held := arena.Bytes()
	if min := arena.slots.Bytes() + 2*4*warmChunk*(8+1); held < min {
		t.Fatalf("the arena holds %d bytes after a 4-core parallel prewarm, want at least %d", held, min)
	}
	second := runOn(t, sp, arena)
	if arena.Bytes() != held {
		t.Errorf("the second machine grew the arena from %d to %d bytes", held, arena.Bytes())
	}
	if !reflect.DeepEqual(fresh, first) || !reflect.DeepEqual(fresh, second) {
		t.Error("a prewarmed run on an arena differs from one without")
	}
}

// TestWarmBuffersQuotaSized: a quota shorter than a chunk sizes a record
// set; any other quota gets a chunk.
func TestWarmBuffersQuotaSized(t *testing.T) {
	var b warmBuffers
	quota := int64(warmChunk - 37)
	b.set(0, 4, quota)
	if got, want := b.bytes(), 4*quota*(8+1); got != want {
		t.Errorf("a record set for 4 cores and a quota of %d: %d bytes, want %d", quota, got, want)
	}
	b = warmBuffers{}
	b.set(0, 4, 1<<20)
	b.set(1, 4, 1<<20)
	if got, want := b.bytes(), int64(2*4*warmChunk*(8+1)); got != want {
		t.Errorf("both record sets for 4 cores and a quota of 1<<20: %d bytes, want %d", got, want)
	}
}

// TestArenaStaleSystemPanics: building a second System on an arena ends
// the first one's tenancy, and running the first then must panic rather
// than walk the cache arrays the second now owns.
func TestArenaStaleSystemPanics(t *testing.T) {
	arena := new(Arena)
	build := func() *System {
		cfg := Default(1)
		cfg.MaxMemCycles = 2_000
		sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 1, 0)...), WithArena(arena))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	stale, live := build(), build()
	func() {
		defer func() {
			if v := recover(); v == nil || !strings.Contains(v.(string), "arena") {
				t.Errorf("running a System whose arena was re-issued: recovered %v, want the tenancy panic", v)
			}
		}()
		stale.Run()
	}()
	if res := live.Run(); res.MemCycles != 2_000 {
		t.Errorf("the arena's tenant ran %d cycles, want 2000", res.MemCycles)
	}
}
