// Package exp defines the paper's experiments (every figure of the
// evaluation) on top of the simulator, shared by cmd/paperfigs, the
// benchmark harness in the repository root, and the examples.
package exp

import (
	"fmt"
	"runtime"
	"sync"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/extrapolate"
	"dramstacks/internal/gap"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// Row is one labeled experiment result (one bar group in a figure).
type Row struct {
	Label string
	Res   *sim.Result
}

// SynthSpec describes a synthetic-stream experiment.
type SynthSpec struct {
	Pattern   workload.Pattern
	Cores     int
	Channels  int // memory channels (0 = 1)
	StoreFrac float64
	Map       sim.Mapping
	Policy    memctrl.PagePolicy
	Budget    int64 // memory cycles
	Prewarm   int64 // functional warmup memory ops per core
	Sample    int64 // through-time sample interval (0 = off)
	// Trace, if non-nil, receives every DRAM command.
	Trace func(cycle int64, cmd dram.Command)
}

// RunSynth runs one synthetic experiment.
func RunSynth(spec SynthSpec) (*sim.Result, error) {
	sys, err := sim.New(standard.Default(),
		sim.WithSources(sim.SyntheticSources(spec.Pattern, spec.Cores, spec.StoreFrac)...),
		sim.WithChannels(spec.Channels),
		sim.WithMapping(spec.Map),
		sim.WithCtrl(func(c *memctrl.Config) { c.Policy = spec.Policy }),
		sim.WithMaxMemCycles(spec.Budget),
		sim.WithPrewarmOps(spec.Prewarm),
		sim.WithSampleInterval(spec.Sample),
		sim.WithTrace(spec.Trace))
	if err != nil {
		return nil, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return nil, fmt.Errorf("exp: DRAM timing violation: %v", res.Violations[0])
	}
	return res, nil
}

// StreamSpec describes a STREAM kernel experiment.
type StreamSpec struct {
	Kind     workload.StreamKind
	Cores    int
	Channels int
	Map      sim.Mapping
	Policy   memctrl.PagePolicy
	Budget   int64
	Prewarm  int64
	Sample   int64
}

// RunStream runs one STREAM kernel experiment.
func RunStream(spec StreamSpec) (*sim.Result, error) {
	sys, err := sim.New(standard.Default(),
		sim.WithSources(workload.StreamSources(spec.Kind, spec.Cores)...),
		sim.WithChannels(spec.Channels),
		sim.WithMapping(spec.Map),
		sim.WithCtrl(func(c *memctrl.Config) { c.Policy = spec.Policy }),
		sim.WithMaxMemCycles(spec.Budget),
		sim.WithPrewarmOps(spec.Prewarm),
		sim.WithSampleInterval(spec.Sample))
	if err != nil {
		return nil, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return nil, fmt.Errorf("exp: DRAM timing violation: %v", res.Violations[0])
	}
	return res, nil
}

// GapSpec describes a GAP benchmark experiment.
type GapSpec struct {
	Bench  string
	Cores  int
	Scale  int // Kronecker scale (2^Scale vertices)
	Degree int // edges per vertex before symmetrization
	Seed   int64
	Map    sim.Mapping
	Policy memctrl.PagePolicy
	// WriteQueue overrides the write buffer capacity when positive
	// (the paper's wq128 variant).
	WriteQueue int
	Budget     int64
	Sample     int64
	// Trace, if non-nil, receives every DRAM command.
	Trace func(cycle int64, cmd dram.Command)
}

// DefaultGap returns the benchmark at the scale used by the paper-figure
// harness: a Kronecker graph whose CSR comfortably exceeds the 11 MB LLC.
// The paper runs GAP with the closed page policy (better for the
// irregular kernels), except tc, which favors open.
func DefaultGap(bench string, cores int) GapSpec {
	spec := GapSpec{
		Bench:  bench,
		Cores:  cores,
		Scale:  17,
		Degree: 16,
		Seed:   42,
		Policy: memctrl.ClosedPage,
		Budget: 1_500_000,
	}
	if bench == "tc" {
		spec.Policy = memctrl.OpenPage
	}
	return spec
}

// RunGap runs one GAP benchmark experiment.
func RunGap(spec GapSpec) (*sim.Result, error) {
	g, err := buildGraph(spec)
	if err != nil {
		return nil, err
	}
	runner, _, err := gap.Build(spec.Bench, g, spec.Cores)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(standard.Default(),
		sim.WithSources(runner.Sources()...),
		sim.WithMapping(spec.Map),
		sim.WithCtrl(func(c *memctrl.Config) {
			c.Policy = spec.Policy
			if spec.WriteQueue > 0 {
				c.WriteQueueCap = spec.WriteQueue
				c.WriteHi = spec.WriteQueue * 3 / 4
				c.WriteLo = spec.WriteQueue / 4
			}
		}),
		sim.WithMaxMemCycles(spec.Budget),
		sim.WithSampleInterval(spec.Sample),
		sim.WithTrace(spec.Trace))
	if err != nil {
		return nil, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return nil, fmt.Errorf("exp: DRAM timing violation: %v", res.Violations[0])
	}
	return res, nil
}

// runRows runs n labeled experiments concurrently (bounded by the CPU
// count; each simulation is single-threaded) and returns them in order.
func runRows(n int, run func(i int) (Row, error)) ([]Row, error) {
	rows := make([]Row, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = run(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig2 reproduces the read-only core-count sweep: sequential and random,
// 1 to 8 cores (paper Fig. 2).
func Fig2(budget int64) ([]Row, error) {
	type cfg struct {
		pat   workload.Pattern
		cores int
	}
	var cfgs []cfg
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, cores := range []int{1, 2, 4, 8} {
			cfgs = append(cfgs, cfg{pat, cores})
		}
	}
	return runRows(len(cfgs), func(i int) (Row, error) {
		c := cfgs[i]
		res, err := RunSynth(SynthSpec{
			Pattern: c.pat, Cores: c.cores, Budget: budget, Prewarm: 1 << 20,
		})
		return Row{fmt.Sprintf("%s %dc", c.pat, c.cores), res}, err
	})
}

// Fig3 reproduces the store-fraction sweep on one core (paper Fig. 3).
func Fig3(budget int64) ([]Row, error) {
	type cfg struct {
		pat workload.Pattern
		w   float64
	}
	var cfgs []cfg
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, w := range []float64{0, 0.1, 0.2, 0.5} {
			cfgs = append(cfgs, cfg{pat, w})
		}
	}
	return runRows(len(cfgs), func(i int) (Row, error) {
		c := cfgs[i]
		res, err := RunSynth(SynthSpec{
			Pattern: c.pat, Cores: 1, StoreFrac: c.w, Budget: budget, Prewarm: 1 << 20,
		})
		return Row{fmt.Sprintf("%s w%d", c.pat, int(c.w*100)), res}, err
	})
}

// Fig4 reproduces the page-policy comparison on two cores (paper Fig. 4).
func Fig4(budget int64) ([]Row, error) {
	type cfg struct {
		pat workload.Pattern
		pol memctrl.PagePolicy
	}
	var cfgs []cfg
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, pol := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.ClosedPage} {
			cfgs = append(cfgs, cfg{pat, pol})
		}
	}
	return runRows(len(cfgs), func(i int) (Row, error) {
		c := cfgs[i]
		res, err := RunSynth(SynthSpec{
			Pattern: c.pat, Cores: 2, Policy: c.pol, Budget: budget, Prewarm: 1 << 20,
		})
		return Row{fmt.Sprintf("%s %s", c.pat, c.pol), res}, err
	})
}

// Fig6 reproduces the bank-indexing comparison for the two conflict
// cases (paper Fig. 6): sequential with 50% stores on one core (open
// pages), and the read-only sequential pattern on two cores with closed
// pages.
func Fig6(budget int64) ([]Row, error) {
	specs := []struct {
		label string
		spec  SynthSpec
	}{
		{"seq w50 1c open def", SynthSpec{Pattern: workload.Sequential, Cores: 1, StoreFrac: 0.5, Map: sim.MapDefault, Budget: budget, Prewarm: 1 << 20}},
		{"seq w50 1c open int", SynthSpec{Pattern: workload.Sequential, Cores: 1, StoreFrac: 0.5, Map: sim.MapInterleaved, Budget: budget, Prewarm: 1 << 20}},
		{"seq w0 2c closed def", SynthSpec{Pattern: workload.Sequential, Cores: 2, Policy: memctrl.ClosedPage, Map: sim.MapDefault, Budget: budget, Prewarm: 1 << 20}},
		{"seq w0 2c closed int", SynthSpec{Pattern: workload.Sequential, Cores: 2, Policy: memctrl.ClosedPage, Map: sim.MapInterleaved, Budget: budget, Prewarm: 1 << 20}},
	}
	return runRows(len(specs), func(i int) (Row, error) {
		res, err := RunSynth(specs[i].spec)
		return Row{specs[i].label, res}, err
	})
}

// Fig7 reproduces the through-time cycle / bandwidth / latency stacks
// for bfs on 8 cores (paper Fig. 7). The result carries BWSamples and
// CycleSamples.
func Fig7(budget, sampleInterval int64) (*sim.Result, error) {
	spec := DefaultGap("bfs", 8)
	spec.Budget = budget
	spec.Sample = sampleInterval
	return RunGap(spec)
}

// Fig8 reproduces the latency-stack variants (paper Fig. 8): bfs on 8
// cores with the default mapping, cache-line interleaving, and a
// 128-entry write queue; tc on one core with default and interleaved
// mapping.
func Fig8(budget int64) ([]Row, error) {
	variants := []struct {
		label string
		mod   func(*GapSpec)
	}{
		{"bfs 8c def", func(*GapSpec) {}},
		{"bfs 8c int", func(s *GapSpec) { s.Map = sim.MapInterleaved }},
		{"bfs 8c wq128", func(s *GapSpec) { s.WriteQueue = 128 }},
	}
	type job struct {
		label string
		spec  GapSpec
	}
	var jobs []job
	for _, v := range variants {
		spec := DefaultGap("bfs", 8)
		spec.Budget = budget
		v.mod(&spec)
		jobs = append(jobs, job{v.label, spec})
	}
	for _, m := range []sim.Mapping{sim.MapDefault, sim.MapInterleaved} {
		spec := DefaultGap("tc", 1)
		spec.Budget = budget
		spec.Map = m
		spec.Policy = memctrl.ClosedPage // the paper's Fig. 8 tc case
		jobs = append(jobs, job{fmt.Sprintf("tc 1c %s", m), spec})
	}
	// Prepare shared graphs before the parallel fan-out.
	for _, j := range jobs {
		if _, err := buildGraph(j.spec); err != nil {
			return nil, err
		}
	}
	return runRows(len(jobs), func(i int) (Row, error) {
		res, err := RunGap(jobs[i].spec)
		return Row{jobs[i].label, res}, err
	})
}

// Fig9 reproduces the bandwidth extrapolation study (paper Fig. 9):
// for each GAP benchmark, measure 1-core and 8-core bandwidth, then
// predict the 8-core value from the 1-core through-time samples with the
// naive and the stack-based method.
func Fig9(budget, sampleInterval int64) ([]extrapolate.Prediction, error) {
	benches := gap.Benchmarks()
	rows, err := runRows(2*len(benches), func(i int) (Row, error) {
		bench := benches[i/2]
		spec := DefaultGap(bench, 1)
		spec.Budget = budget * 4 // one core needs longer to cover phases
		spec.Sample = sampleInterval
		if i%2 == 1 {
			spec = DefaultGap(bench, 8)
			spec.Budget = budget
		}
		res, err := RunGap(spec)
		return Row{bench, res}, err
	})
	if err != nil {
		return nil, err
	}
	var preds []extrapolate.Prediction
	for i, bench := range benches {
		r1 := rows[2*i].Res
		r8 := rows[2*i+1].Res
		geo := r1.Cfg.Geom
		preds = append(preds, extrapolate.Prediction{
			Name:     bench,
			Measured: r8.AchievedGBps(),
			Naive:    extrapolate.NaiveSamples(r1.BWSamples, 8, geo),
			Stack:    extrapolate.StackSamples(r1.BWSamples, 8, geo),
		})
	}
	return preds, nil
}

// Stacks extracts the bandwidth and latency stacks of rows for plotting.
func Stacks(rows []Row) (labels []string, bw []stacks.BandwidthStack, lat []stacks.LatencyStack) {
	for _, r := range rows {
		labels = append(labels, r.Label)
		bw = append(bw, r.Res.BW)
		lat = append(lat, r.Res.Lat)
	}
	return
}
