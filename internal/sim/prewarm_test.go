package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/workload"
)

// plainSource hides the NextBatch fast path, forcing prewarm's serial
// round-robin loop (and per-item Next draining) for the wrapped source.
type plainSource struct{ src cpu.Source }

func (p plainSource) Next() (cpu.Instr, bool) { return p.src.Next() }

// prewarmSources is a store-heavy multi-core mix with footprints beyond
// the caches: warm ops run the full install cascade and the dirty
// evictions exercise the recorded-LLC writeback ordering. A bounded
// greater than 0 ends core 1's stream after that many operations.
func prewarmSources(cores int, stores float64, bounded int64, wrap bool) []cpu.Source {
	var out []cpu.Source
	for c := 0; c < cores; c++ {
		cfg := workload.SyntheticConfig{
			Pattern:        workload.Random,
			StoreFrac:      stores,
			WorkPerOp:      5,
			FootprintBytes: 1 << 22,
			StrideBytes:    64,
			Chains:         2,
			BaseAddr:       uint64(c) * (256 << 20),
			Seed:           int64(c + 7),
		}
		if c%2 == 1 {
			cfg.Pattern = workload.Sequential
			cfg.Chains = 0
		}
		if c == 1 {
			cfg.Ops = bounded
		}
		var src cpu.Source = workload.MustSynthetic(cfg)
		if wrap {
			src = plainSource{src}
		}
		out = append(out, src)
	}
	return out
}

// TestPrewarmParallelMatchesSerial pins the concurrent warm path: the
// per-core private warming plus merged, sharded LLC replay must leave the
// machine in exactly the state the serial round-robin loop produces —
// the same eviction counts at every level of every core straight after
// construction, and field-identical Results from a run off either warm
// start — whatever GOMAXPROCS is, for quotas that are one chunk, end
// inside a chunk or a batch, and with one stream running dry mid-chunk
// while the others go on. GOMAXPROCS is set explicitly so the parallel
// path is taken even on a single-processor host (where prewarm otherwise
// stays serial); the serial reference is forced by hiding the sources'
// batch interface.
func TestPrewarmParallelMatchesSerial(t *testing.T) {
	// A hierarchy small enough for 1<<14 operations to evict from the LLC.
	small := cache.DefaultHierConfig(4)
	small.L1.SizeBytes, small.L2.SizeBytes, small.LLC.SizeBytes = 4<<10, 32<<10, 256*11*64
	type shape struct {
		cores, procs int
		ops          int64
		stores       float64
		bounded      int64
		hier         cache.HierConfig
	}
	shapes := []shape{
		{cores: 4, procs: 4, ops: 1 << 14, stores: 0.3, hier: cache.DefaultHierConfig(4)},
		{cores: 8, procs: 2, ops: 3 << 13, stores: 0.5, bounded: 20_000, hier: cache.DefaultHierConfig(8)},
	}
	for _, procs := range []int{2, 3, 8} {
		for _, ops := range []int64{1 << 14, 1<<14 + 37, 3 << 13, 63} {
			shapes = append(shapes, shape{cores: 4, procs: procs, ops: ops, stores: 0.5, bounded: ops * 5 / 6, hier: small})
		}
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%dc-p%d-ops%d", sh.cores, sh.procs, sh.ops), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sh.procs))
			type levels struct {
				l1, l2 []cache.LevelStats
				llc    cache.LevelStats
			}
			run := func(wrap bool) (levels, *Result) {
				cfg := Default(sh.cores)
				cfg.Hier = sh.hier
				cfg.MaxMemCycles = 20_000
				cfg.SampleInterval = 3_000
				cfg.PrewarmOps = sh.ops
				sys, err := newSystem(cfg, prewarmSources(sh.cores, sh.stores, sh.bounded, wrap), nil)
				if err != nil {
					t.Fatal(err)
				}
				warmed := levels{llc: sys.hier.LLCStats()}
				for c := 0; c < sh.cores; c++ {
					warmed.l1 = append(warmed.l1, sys.hier.L1Stats(c))
					warmed.l2 = append(warmed.l2, sys.hier.L2Stats(c))
				}
				res := sys.Run()
				res.Cfg.Trace = nil
				return warmed, res
			}
			parWarm, parallel := run(false)
			serWarm, serial := run(true)
			if !reflect.DeepEqual(parWarm, serWarm) {
				t.Errorf("level statistics after prewarm: parallel %+v, serial %+v", parWarm, serWarm)
			}
			if !reflect.DeepEqual(parallel, serial) {
				ft, pv, sv := reflect.TypeOf(*parallel), reflect.ValueOf(*parallel), reflect.ValueOf(*serial)
				for i := 0; i < ft.NumField(); i++ {
					if !reflect.DeepEqual(pv.Field(i).Interface(), sv.Field(i).Interface()) {
						t.Errorf("Result.%s differs between parallel and serial prewarm", ft.Field(i).Name)
					}
				}
			}
		})
	}
}

// TestPrewarmQuotaExactWithBatching: the buffered feed must warm exactly
// PrewarmOps memory operations per core even when the quota is not a
// multiple of the batch size — the refill guard falls back to per-item
// draining near the quota so no generated item is ever dropped. The
// emitted count is quota plus the core's first unwarmed instructions
// only after the timed run consumes them, so it is checked before Run.
func TestPrewarmQuotaExactWithBatching(t *testing.T) {
	for _, quota := range []int64{1, 63, 64, 65, 129} {
		srcs := []cpu.Source{workload.MustSynthetic(workload.SyntheticConfig{
			Pattern:        workload.Sequential,
			FootprintBytes: 1 << 20,
			StrideBytes:    64,
			Seed:           3,
		})}
		cfg := DefaultFor(standard.Default(), 1)
		cfg.MaxMemCycles = 100
		cfg.PrewarmOps = quota
		sys, err := newSystem(cfg, srcs, nil)
		if err != nil {
			t.Fatal(err)
		}
		syn := srcs[0].(*workload.Synthetic)
		if got := syn.Emitted(); got != quota {
			t.Errorf("quota %d: %d ops emitted after prewarm", quota, got)
		}
		_ = sys
	}
}
