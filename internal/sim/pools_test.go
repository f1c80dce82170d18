package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/workload"
)

// storeHeavy returns a saturated, store-heavy four-core machine: random
// and sequential streams over 64 MB each, half of their operations
// stores, prewarmed so that dirty LLC evictions reach the write queue
// from the first cycle. The sequential streams' demands merge into their
// prefetches' fills.
func storeHeavy(t *testing.T, cycles int64) *System {
	t.Helper()
	cfg := Default(4)
	cfg.MaxMemCycles = cycles
	cfg.PrewarmOps = 1 << 16
	srcs := make([]cpu.Source, 4)
	for c := range srcs {
		w := workload.DefaultRandom()
		if c%2 == 1 {
			w = workload.DefaultSequential()
		}
		w.StoreFrac = 0.5
		w.BaseAddr = uint64(c) << 28
		w.Seed = int64(c + 1)
		srcs[c] = workload.MustSynthetic(w)
	}
	sys, err := newSystem(cfg, srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWorkPools pins System.Work().Pools for one short store-heavy run:
// the MSHR file's peak occupancy and the sizes the cores' ticket pools
// and the controller's request pool reached. Before the run nothing is
// in use.
func TestWorkPools(t *testing.T) {
	sys := storeHeavy(t, 20_000)
	if got := sys.Work().Pools; got != (Pools{}) {
		t.Errorf("before the run: Pools %+v, want zero", got)
	}
	res := sys.Run()
	want := Pools{MSHRPeak: 39, Tickets: 132, Requests: 57}
	if got := sys.Work().Pools; !reflect.DeepEqual(got, want) {
		t.Errorf("Pools %+v, want %+v", got, want)
	}
	if res.HierStats.MSHRMerges == 0 || res.CtrlStats.EnqueuedWrites == 0 {
		t.Errorf("the run merged %d misses and wrote %d lines: it no longer exercises the pools",
			res.HierStats.MSHRMerges, res.CtrlStats.EnqueuedWrites)
	}
}

// TestStoreHeavyRunAllocs bounds the heap allocations of a saturated,
// store-heavy run. The MSHR file and the indexes by line of the in-flight
// fills and the queued writes are sized when the machine is built, so
// what RunContext allocates is the cores' load tickets and the
// controller's requests (Work().Pools: 132 and 61 here), their free
// lists, and a few FIFOs and waiter arrays reaching their working sizes:
// 236 to 238 allocations. With a Go map for each lookup and the MSHR
// entries pooled, the same run made 350. The limit lies midway, so what
// else the process allocates meanwhile (MemStats counts every goroutine's
// allocations) does not decide the result.
func TestStoreHeavyRunAllocs(t *testing.T) {
	const limit = 290
	sys := storeHeavy(t, 200_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys.RunContext(context.Background())
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > limit {
		t.Errorf("RunContext made %d heap allocations, want at most %d (Pools %+v)", n, limit, sys.Work().Pools)
	}
}
