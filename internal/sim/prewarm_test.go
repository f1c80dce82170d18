package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/workload"
)

// plainSource hides the NextBatch fast path, forcing prewarm's serial
// round-robin loop (and per-item Next draining) for the wrapped source.
type plainSource struct{ src cpu.Source }

func (p plainSource) Next() (cpu.Instr, bool) { return p.src.Next() }

// prewarmSources is a store-heavy multi-core mix with footprints beyond
// the caches: warm ops run the full install cascade and the dirty
// evictions exercise the recorded-LLC writeback ordering. A bounded
// greater than 0 ends core dry's stream after that many operations.
func prewarmSources(cores int, stores float64, bounded int64, dry int, wrap bool) []cpu.Source {
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
		if c == dry {
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
// per-core private warming plus the pipelined LLC replay must leave the
// machine in exactly the state the serial round-robin loop produces —
// the same eviction counts at every level of every core straight after
// construction, and field-identical Results from a run off either warm
// start — whatever GOMAXPROCS is, for quotas of one chunk and of 8 192,
// 16 384 and 24 576 items (4, 8 and 12 chunks), 37 items either side of
// each, and 63 (inside a batch), and with one stream running dry mid-chunk
// while the others go on: core 1's, and core 0's, whose log is then not
// the longest. GOMAXPROCS is set explicitly so the parallel path is taken
// even on a single-processor host (where prewarm otherwise stays serial);
// the serial reference is forced by hiding the sources' batch interface.
func TestPrewarmParallelMatchesSerial(t *testing.T) {
	// A hierarchy small enough for a chunk of operations to evict from the
	// LLC.
	small := cache.DefaultHierConfig(4)
	small.L1.SizeBytes, small.L2.SizeBytes, small.LLC.SizeBytes = 4<<10, 32<<10, 256*11*64
	type shape struct {
		cores, procs int
		ops          int64
		stores       float64
		bounded      int64
		dry0         bool // bounded ends core 0's stream, not core 1's
		hier         cache.HierConfig
	}
	shapes := []shape{
		{cores: 4, procs: 4, ops: 16_384, stores: 0.3, hier: cache.DefaultHierConfig(4)},
		{cores: 8, procs: 2, ops: 24_576, stores: 0.5, bounded: 20_000, hier: cache.DefaultHierConfig(8)},
	}
	for _, procs := range []int{2, 3, 8} {
		for _, at := range []int64{warmChunk, 8_192, 16_384, 24_576} {
			for _, ops := range []int64{at - 37, at, at + 37} {
				shapes = append(shapes, shape{cores: 4, procs: procs, ops: ops, stores: 0.5, bounded: ops * 5 / 6, hier: small})
			}
		}
		shapes = append(shapes, shape{cores: 4, procs: procs, ops: 63, stores: 0.5, bounded: 63 * 5 / 6, hier: small})
		ops := int64(3*warmChunk + 37)
		shapes = append(shapes, shape{cores: 4, procs: procs, ops: ops, stores: 0.5, bounded: ops * 5 / 6, dry0: true, hier: small})
	}
	for _, sh := range shapes {
		name, dry := fmt.Sprintf("%dc-p%d-ops%d", sh.cores, sh.procs, sh.ops), 1
		if sh.dry0 {
			name, dry = name+"-dry0", 0
		}
		t.Run(name, func(t *testing.T) {
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
				sys, err := newSystem(cfg, prewarmSources(sh.cores, sh.stores, sh.bounded, dry, wrap), nil)
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

// TestPrewarmWork pins System.Work for one small four-core spec whose
// second stream runs dry: the items each core's prewarm consumed, and on
// the parallel path the LLC operations it recorded and replayed, the
// chunks it took and the bytes its record sets reached. The serial loop
// consumes the same items and replays nothing. The quota is stated in
// items, so that the second stream runs dry whatever warmChunk is. A warm
// that fits in one chunk takes one chunk and one record set of the arena.
func TestPrewarmWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Default(4)
	cfg.Hier.L1.SizeBytes, cfg.Hier.L2.SizeBytes, cfg.Hier.LLC.SizeBytes = 4<<10, 32<<10, 256*11*64
	cfg.MaxMemCycles = 1_000
	cfg.PrewarmOps = 24_576
	for _, serial := range []bool{false, true} {
		sys, err := newSystem(cfg, prewarmSources(4, 0.5, 20_000, 1, serial), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := Work{WarmItems: []int64{24_576, 20_000, 24_576, 24_576}, LLCOps: 139_103, Chunks: 12, WarmBytes: 253_952,
			CacheBytes: cfg.Hier.ArrayBytes()}
		if serial {
			want.LLCOps, want.Chunks, want.WarmBytes = 0, 0, 0
		}
		if got := sys.Work(); !reflect.DeepEqual(got, want) {
			t.Errorf("serial %v: Work %+v, want %+v", serial, got, want)
		}
	}

	arena := new(Arena)
	cfg.PrewarmOps = warmChunk
	sys, err := newSystem(cfg, prewarmSources(4, 0.5, 0, 1, false), arena)
	if err != nil {
		t.Fatal(err)
	}
	if w := sys.Work(); w.Chunks != 1 || arena.warm.sets[1] != nil {
		t.Errorf("a one-chunk warm took %d chunks and %d logs of the second record set, want 1 and none",
			w.Chunks, len(arena.warm.sets[1]))
	}
}

// TestControllerWork pins the controllers' slice of System.Work for one
// small run: two channels, a closed-page policy and two sparse streams,
// so the controllers tick, replay quiet gaps in closed form and land
// auto-precharges. Every memory cycle of a channel is either ticked or
// replayed.
func TestControllerWork(t *testing.T) {
	cfg := Default(2)
	cfg.Channels = 2
	cfg.Ctrl.Policy = memctrl.ClosedPage
	cfg.MaxMemCycles = 40_000
	var sources []cpu.Source
	for c, pattern := range []workload.Pattern{workload.Random, workload.Sequential} {
		sources = append(sources, workload.MustSynthetic(workload.SyntheticConfig{
			Pattern: pattern, StoreFrac: 0.3, WorkPerOp: 2000, FootprintBytes: 1 << 22,
			StrideBytes: 64, Chains: 1, BaseAddr: uint64(c) << 28, Seed: int64(c + 1),
		}))
	}
	sys, err := newSystem(cfg, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	got := sys.Work().Ctrl
	var cycles int64
	for _, ctrl := range sys.ctrls {
		cycles += ctrl.Stats().Cycles
	}
	if got.Ticks+got.Replayed != cycles {
		t.Errorf("%d ticks and %d replayed cycles, but the channels saw %d cycles", got.Ticks, got.Replayed, cycles)
	}
	want := memctrl.Work{Ticks: 29_289, Replayed: 50_711, Rebuilds: 1_356, Retimes: 1_802, Asks: 2_744}
	if got != want {
		t.Errorf("controller work %+v, want %+v", got, want)
	}
}

// panickySource is a batch source that panics in NextBatch once it has
// generated after items.
type panickySource struct {
	*workload.Synthetic
	after, n int
}

// errSourceBroke is what a panickySource panics with.
var errSourceBroke = errors.New("source broke")

func (p *panickySource) NextBatch(buf []cpu.Instr) int {
	if p.n >= p.after {
		panic(errSourceBroke)
	}
	n := p.Synthetic.NextBatch(buf)
	p.n += n
	return n
}

// panickySources is prewarmSources(cores, 0.5, 0, -1, false) with core's
// source panicking after the given number of items.
func panickySources(cores, core, after int) []cpu.Source {
	srcs := prewarmSources(cores, 0.5, 0, -1, false)
	srcs[core] = &panickySource{Synthetic: srcs[core].(*workload.Synthetic), after: after}
	return srcs
}

// newRecovered builds cfg's machine from srcs on arena (nil: none) on a
// goroutine of its own, and returns the value newSystem panicked with,
// nil if it returned. It fails the test if newSystem has not come back
// within ten seconds: a worker whose panic is lost leaves its chunk
// unfinished.
func newRecovered(t *testing.T, cfg Config, srcs []cpu.Source, arena *Arena) any {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		if _, err := newSystem(cfg, srcs, arena); err != nil {
			panic(err)
		}
	}()
	select {
	case v := <-got:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("sim.New did not return within ten seconds")
		return nil
	}
}

// TestPrewarmPanicReachesCaller: a panic in a source that a prewarm worker
// drains reaches the goroutine that called New, as a *warmPanic carrying
// the source's value and the worker's stack, in the first chunk (core 0,
// after 1 000 items) and in a later one (core 1, after 5 000), on a fresh
// machine and on an arena.
func TestPrewarmPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Default(2)
	cfg.MaxMemCycles = 1_000
	cfg.PrewarmOps = 1 << 14
	for _, c := range []struct{ core, after int }{{0, 1_000}, {1, 5_000}} {
		for _, arena := range []*Arena{nil, new(Arena)} {
			v := newRecovered(t, cfg, panickySources(2, c.core, c.after), arena)
			p, ok := v.(*warmPanic)
			if !ok {
				t.Fatalf("core %d after %d items, arena %v: recovered %v (%T), want a *warmPanic", c.core, c.after, arena != nil, v, v)
			}
			if p.value != errSourceBroke || p.core != c.core {
				t.Errorf("core %d after %d items: panic of core %d with %v, want core %d with %v", c.core, c.after, p.core, p.value, c.core, errSourceBroke)
			}
			if !strings.Contains(string(p.stack), "panickySource).NextBatch") || !strings.Contains(p.Error(), errSourceBroke.Error()) {
				t.Errorf("core %d after %d items: the panic does not carry the worker's value and stack:\n%s", c.core, c.after, p.Error())
			}
		}
	}
}

// TestPrewarmAllocsFlatInChunks: the pipelined warm allocates per warm,
// not per chunk — a four-core machine of store-free sequential sources
// (one LLC operation an item, so no log grows) makes nearly the same
// number of heap allocations in New at a quota of 16 chunks as at 2.
// testing.AllocsPerRun is not used: it sets GOMAXPROCS to 1, where
// prewarm takes the serial loop.
func TestPrewarmAllocsFlatInChunks(t *testing.T) {
	// What the runtime itself may allocate during New, apart from the warm.
	const slack = 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	mallocs := func(chunks int64) uint64 {
		cfg := Default(4)
		cfg.MaxMemCycles = 1_000
		cfg.PrewarmOps = chunks * warmChunk
		srcs := make([]cpu.Source, 4)
		for c := range srcs {
			srcs[c] = workload.MustSynthetic(workload.SyntheticConfig{
				Pattern:        workload.Sequential,
				FootprintBytes: 1 << 22,
				StrideBytes:    64,
				BaseAddr:       uint64(c) * (256 << 20),
				Seed:           int64(c + 1),
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := newSystem(cfg, srcs, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if w := sys.Work(); w.Chunks != chunks {
			t.Fatalf("a quota of %d chunks took %d", chunks, w.Chunks)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(2) // first-use allocations of the runtime and the packages
	few, many := mallocs(2), mallocs(16)
	if many > few+slack {
		t.Errorf("New made %d heap allocations at 16 chunks and %d at 2: %d more, want at most %d", many, few, many-few, slack)
	}
}

// TestPrewarmWorkersExit: no prewarm worker outlives New — the goroutine
// count returns to what it was after a pipelined warm, after one whose
// core 0 runs dry mid-chunk, and after one whose worker panicked, on
// fresh machines and on an arena.
func TestPrewarmWorkersExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Default(4)
	cfg.MaxMemCycles = 1_000
	cfg.PrewarmOps = 3*warmChunk + 37
	for _, arena := range []*Arena{nil, new(Arena)} {
		for _, c := range []struct {
			name string
			srcs []cpu.Source
		}{
			{"pipelined", prewarmSources(4, 0.5, 0, -1, false)},
			{"dry0", prewarmSources(4, 0.5, cfg.PrewarmOps*5/6, 0, false)},
			{"panic", panickySources(4, 2, 5_000)},
		} {
			base := runtime.NumGoroutine()
			v := newRecovered(t, cfg, c.srcs, arena)
			if _, ok := v.(*warmPanic); (c.name == "panic") != ok {
				t.Fatalf("%s, arena %v: New panicked with %v", c.name, arena != nil, v)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("%s, arena %v: %d goroutines a second after New returned, %d before it", c.name, arena != nil, n, base)
			}
		}
	}
}
