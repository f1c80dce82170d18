package main

import (
	"fmt"
	"time"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/gap"
	"dramstacks/internal/graph"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sim"
	wl "dramstacks/internal/workload"
)

// defaultSeed is the seed the golden outputs are pinned at. With it the
// synthetic sources are exactly sim.SyntheticSources.
const defaultSeed = 1

// A workload is one set of inputs the benchmark runs. Five simulate one
// machine per repetition (sim != nil); svc-sweep drives the service.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	sim  *simCase
}

// simCase describes one simulated machine and how its instruction
// sources are made from the seed. The program under test only ever sees
// the generated sources and the configuration.
type simCase struct {
	standard string
	cores    int
	policy   memctrl.PagePolicy
	prewarm  int64 // functional warm-up operations per core
	cycles   int64 // memory-cycle budget, 0 = run to completion
	sources  func(seed int64, cores int) ([]cpu.Source, sourceTimes, error)
}

// sourceTimes splits the host time of building the sources, for the
// per-layer set-up metrics; zero for the synthetic generators.
type sourceTimes struct {
	graphBuild, gapPrepare time.Duration
}

// config returns the machine description both sim.New and the
// benchmark-owned machine are assembled from. Verify stays on, as
// sim.DefaultFor sets it; sim.SlowTick is never touched.
func (c *simCase) config() (standard.Standard, sim.Config, error) {
	std, err := standard.Lookup(c.standard)
	if err != nil {
		return standard.Standard{}, sim.Config{}, err
	}
	cfg := sim.DefaultFor(std, c.cores)
	cfg.Ctrl.Policy = c.policy
	cfg.PrewarmOps = c.prewarm
	cfg.MaxMemCycles = c.cycles
	return std, cfg, nil
}

// synthetic mirrors sim.SyntheticSources with the seed as an argument:
// core i gets Seed = seed+i, so the default seed 1 reproduces it exactly.
func synthetic(base func() wl.SyntheticConfig, stores float64) func(int64, int) ([]cpu.Source, sourceTimes, error) {
	return func(seed int64, cores int) ([]cpu.Source, sourceTimes, error) {
		out := make([]cpu.Source, cores)
		for i := range out {
			wc := base()
			wc.StoreFrac = stores
			wc.BaseAddr = uint64(i)*(256<<20) + uint64(i)*8192
			wc.Seed = seed + int64(i)
			src, err := wl.NewSynthetic(wc)
			if err != nil {
				return nil, sourceTimes{}, err
			}
			out[i] = src
		}
		return out, sourceTimes{}, nil
	}
}

// cacheResident is cmd/simbench's low-utilisation stream: a 16 KiB
// footprint with 60 plain uops between memory operations.
func cacheResident(seed int64, cores int) ([]cpu.Source, sourceTimes, error) {
	out := make([]cpu.Source, cores)
	for i := range out {
		src, err := wl.NewSynthetic(wl.SyntheticConfig{
			Pattern:        wl.Sequential,
			WorkPerOp:      60,
			FootprintBytes: 1 << 14,
			StrideBytes:    64,
			BaseAddr:       uint64(i) * (256 << 20),
			Seed:           seed + int64(i),
		})
		if err != nil {
			return nil, sourceTimes{}, err
		}
		out[i] = src
	}
	return out, sourceTimes{}, nil
}

// gapBFS generates the graph on every call: graph generation is this
// workload's set-up, as prewarm is the others'. It does what gap.Build
// does after graph.Kronecker(16, 16, 1) and gap.Prepare, and nothing
// else, so set-up time and allocations are the program's own. The seed
// moves the kernel's arrays in the address space by whole pages, which
// changes the banks and rows every access lands on; the default seed gives
// gap.Build's base 0. A different graph or search source per seed would
// move every total of a run-to-completion kernel (cycles, allocations) by
// tens of percent between seeds and drown the bounds the count metrics
// have.
func gapBFS(seed int64, cores int) ([]cpu.Source, sourceTimes, error) {
	var st sourceTimes
	t0 := time.Now()
	g := graph.Kronecker(16, 16, defaultSeed)
	st.graphBuild = time.Since(t0)
	t1 := time.Now()
	if err := gap.Prepare("bfs", g); err != nil {
		return nil, st, err
	}
	off := (seed - defaultSeed) % gapSeeds
	if off < 0 {
		off += gapSeeds
	}
	lay := gap.NewLayout(uint64(off) * 4096)
	runner, err := gap.NewRunner(gap.NewBFS(g, cores, lay, []int32{gap.PickSource(g)}), cores)
	st.gapPrepare = time.Since(t1)
	if err != nil {
		return nil, st, err
	}
	return runner.Sources(), st, nil
}

// gapSeeds is how many seeds give gap-bfs-4c distinct inputs.
const gapSeeds = 64

var workloads = []workload{
	{
		name: "sat-seq-8c",
		why:  "Paper Fig. 2 saturated corner: every memory cycle really runs, 24 CPUCycle calls per cycle, page hits, FR-FCFS memo at its best; cpu, cache hit path and memctrl steady state work, skip logic idles.",
		sim: &simCase{standard: "ddr4-2400", cores: 8, policy: memctrl.OpenPage, prewarm: 1 << 20, cycles: 600_000,
			sources: synthetic(wl.DefaultSequential, 0)},
	},
	{
		name: "rw-random-4c",
		why:  "Same memctrl/dram/cache layers used the opposite way: page misses, write-queue drains, dirty evictions, memo constantly invalidated; a read-path gain that costs the write path shows here.",
		sim: &simCase{standard: "ddr4-2400", cores: 4, policy: memctrl.OpenPage, prewarm: 1 << 20, cycles: 600_000,
			sources: synthetic(wl.DefaultRandom, 0.5)},
	},
	{
		name: "hbm2-seq-4c",
		why:  "Non-default standard: two pseudo-channel controllers, device fan-out and address routing per request; owns ROADMAP's open question about its allocations per run.",
		sim: &simCase{standard: "hbm2-2000", cores: 4, policy: memctrl.OpenPage, prewarm: 1 << 20, cycles: 400_000,
			sources: synthetic(wl.DefaultSequential, 0.2)},
	},
	{
		name: "lowutil-4c",
		why:  "Cache-resident compute: memctrl/dram idle; the event wheel, sprint/skipWindow and FastForward do the work. A memctrl or cache change must predict no change here; a loop deletion shows here first.",
		sim: &simCase{standard: "ddr4-2400", cores: 4, policy: memctrl.OpenPage, prewarm: 1 << 12, cycles: 4_000_000,
			sources: cacheResident},
	},
	{
		name: "gap-bfs-4c",
		why:  "The paper's real workload class: unbatched barrier-coupled gap sources generate addresses while simulating, phases alternate saturated and idle, set-up is graph building, runs to completion.",
		sim: &simCase{standard: "ddr4-2400", cores: 4, policy: memctrl.ClosedPage, prewarm: 0, cycles: 0,
			sources: gapBFS},
	},
	{
		name: "svc-sweep",
		why:  "The dramstacksd path users wait on: a cold 24-point sweep streamed over HTTP (simulator-bound), then 300 cached submit+stacks round trips (simulator-independent); one closed-loop pkg/client.",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
