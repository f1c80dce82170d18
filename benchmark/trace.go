package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dramstacks/internal/exp"
	"dramstacks/internal/service"
	"dramstacks/internal/sim"
)

// traceWorkload is the traced run of one workload: it produces every
// per-layer metric (those that do not apply to the workload read 0) and
// never an end-to-end one. An error or panic in the tracing or in a
// layer driver lands in the record's TraceError field, not in the
// operations counted.
func traceWorkload(ctx context.Context, w workload, seed int64, budget time.Duration) record {
	r := record{Workload: w.name, Seed: seed, Trace: 1, Seconds: budget.Seconds()}
	var t traced
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.err = fmt.Errorf("panic in the traced run: %v", p)
			}
		}()
		if w.sim != nil {
			t = traceSim(ctx, w, seed, budget)
		} else {
			t = traceService(ctx, seed, budget)
		}
	}()
	r.Reps = t.rounds
	r.Attempted, r.Failed, r.Notes = max(t.attempted, 1), t.failed, t.notes
	if t.attempted == 0 {
		r.Failed = 1
	}
	if t.err != nil {
		r.TraceError = t.err.Error()
	}
	r.Metrics = metricRecords(perLayer, t.samples)
	r.Correct = r.Failed == 0
	return r
}

// traced is what a traced run hands back: samples per per-layer metric
// (one per round, or a single one), and the operations it checked.
type traced struct {
	samples   map[string][]float64
	rounds    int
	attempted int
	failed    int
	notes     []string
	err       error
}

// add records one sample; a ratio whose base was 0 is left out.
func (t *traced) add(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		t.samples[name] = append(t.samples[name], v)
	}
}

func (t *traced) addAll(m map[string]float64) {
	for k, v := range m {
		t.add(k, v)
	}
}

// spansPerRun bounds the spans one traced run keeps in memory; the
// sampling period follows from it.
const spansPerRun = 300_000

// samplePeriod picks N for "1 of every N memory cycles is traced": an
// odd number, so that it does not lock onto an even period of the
// workload, large enough that a run keeps about spansPerRun spans.
func samplePeriod(cfg sim.Config, cycles int64) int64 {
	perCycle := int64(1 + cfg.Cores*cfg.CPUMult*3 + cfg.CPUMult + 4)
	return max(15, cycles*perCycle/spansPerRun) | 1
}

// traceSim runs rounds of: the real sim run (the reference), the
// benchmark-owned machine untraced, and the same machine traced; then the
// isolated drivers. Rounds repeat while they fit in the budget.
func traceSim(ctx context.Context, w workload, seed int64, budget time.Duration) traced {
	t := traced{samples: map[string][]float64{}}
	t.err = t.simRounds(ctx, w, seed, budget)
	return t
}

func (t *traced) simRounds(ctx context.Context, w workload, seed int64, budget time.Duration) error {
	c := w.sim
	std, cfg, err := c.config()
	if err != nil {
		return err
	}
	best := calibrate()

	var spans []span
	var last *sim.Result
	start := time.Now()
	for t.rounds == 0 || time.Since(start) < budget*6/10 && ctx.Err() == nil {
		t.rounds++

		// The reference: sim.New and System.Run, as the end-to-end run
		// does them.
		srcs, st, err := c.sources(seed, c.cores)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...))
		newWall := time.Since(t0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res := sys.RunContext(ctx)
		runWall := time.Since(t1)
		t.attempted++
		if err := checkResult(res); err != nil {
			t.failed++
			t.notes = append(t.notes, err.Error())
			return nil
		}
		last = res
		var unattributed float64
		for _, cs := range res.CycleStacks {
			unattributed += unattributedCycles(cs)
		}
		t.add("cpu.unattributed_cycles", unattributed)
		runNS := float64(runWall) / float64(res.MemCycles)
		t.add("sim.run_ns_per_cycle", runNS)
		t.add("graph.build_s", st.graphBuild.Seconds())
		t.add("gap.prepare_s", st.gapPrepare.Seconds())
		assemble := newWall
		if cfg.PrewarmOps > 0 {
			bare := cfg
			bare.PrewarmOps = 0
			if srcs, _, err = c.sources(seed, c.cores); err != nil {
				return err
			}
			t0 = time.Now()
			if _, err = sim.New(std, sim.WithConfig(bare), sim.WithSources(srcs...)); err != nil {
				return err
			}
			assemble = time.Since(t0)
		}
		t.add("sim.assemble_s", assemble.Seconds())
		t.add("sim.prewarm_s", max(newWall-assemble, 0).Seconds())

		// The same machine, owned by the benchmark: untraced, then traced.
		ref, refWall, err := runMachine(ctx, c, cfg, seed, nil, 0)
		if err != nil {
			return err
		}
		rec := newRecorder(spansPerRun + spansPerRun/4)
		period := samplePeriod(cfg, res.MemCycles)
		tm, tracedWall, err := runMachine(ctx, c, cfg, seed, rec, period)
		if err != nil {
			return err
		}
		spans = rec.spans

		match := 0.0
		if ref.matches(res) && tm.matches(res) {
			match = 1
		}
		t.add("trace.match", match)
		refNS := float64(refWall) / float64(ref.memCycle)
		t.add("sim.ref_ns_per_cycle", refNS)
		t.add("sim.fast_gain", refNS/runNS)
		t.add("trace.overhead_ratio", float64(tracedWall)/float64(refWall))
		t.add("trace.sample_period", float64(period))
		t.addAll(tm.layerCounts())

		a := analyze(rec.spans, best, refNS)
		for l, ns := range a.selfNS {
			t.add(layerNames[l]+".self_ns", ns)
		}
		t.add("trace.timer_ns", a.timerNS)
		t.add("trace.coverage", a.coverage)
	}

	iso, err := isolatedLayers(c, seed)
	if err != nil {
		return err
	}
	t.addAll(iso)
	t.add("exp.encode_us", perOp(func() int {
		const n = 200
		for i := 0; i < n; i++ {
			if _, err := exp.ResultJSONRow(w.name, last); err != nil {
				return 0
			}
		}
		return n
	})/1e3)
	return saveSpans(spans)
}

// runMachine builds the benchmark-owned machine from the seed, prewarms
// it serially and runs it, recording spans when rec is non-nil. It
// returns the wall time of the run alone.
func runMachine(ctx context.Context, c *simCase, cfg sim.Config, seed int64, rec *recorder, period int64) (*machine, time.Duration, error) {
	srcs, _, err := c.sources(seed, c.cores)
	if err != nil {
		return nil, 0, err
	}
	m, err := newMachine(cfg, srcs)
	if err != nil {
		return nil, 0, err
	}
	m.prewarm()
	if rec != nil {
		m.trace(rec, period)
	}
	runtime.GC()
	t0 := time.Now()
	m.run(ctx)
	return m, time.Since(t0), nil
}

// saveSpans writes the spans out now that the run has ended, under
// os.TempDir(), and removes the file again.
func saveSpans(spans []span) error {
	dir, err := os.MkdirTemp("", "dramstacks-bench-spans-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "spans.ndjson")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceService runs svc-sweep repetitions alternately plain and behind
// the observer, then the isolated drivers of the request path.
func traceService(ctx context.Context, seed int64, budget time.Duration) traced {
	t := traced{samples: map[string][]float64{}}
	start := time.Now()
	for t.rounds == 0 || time.Since(start) < budget*7/10 && ctx.Err() == nil {
		t.rounds++
		plain, _ := serviceRep(ctx, seed, false)
		obs, layers := serviceRep(ctx, seed, true)
		t.attempted += plain.attempted + obs.attempted
		t.failed += plain.failed + obs.failed
		t.notes = append(t.notes, append(plain.notes, obs.notes...)...)
		if plain.failed+obs.failed > 0 {
			return t
		}
		t.addAll(layers)
		match := 0.0
		if plain.facts == obs.facts {
			match = 1
		}
		t.add("trace.match", match)
		t.add("trace.overhead_ratio", obs.values["result_p50_us"]/plain.values["result_p50_us"])
	}
	iso, err := requestPathLayers(ctx, seed)
	if err != nil {
		t.err = err
	}
	t.addAll(iso)
	return t
}

// requestPathLayers times, in isolation, the stages a cached request
// passes through: decoding the spec, hashing it, the content-addressed
// cache lookup — and encoding a result, which a cold job pays once.
func requestPathLayers(ctx context.Context, seed int64) (map[string]float64, error) {
	spec := hitSpec(seed)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	res, err := exp.RunSpec(ctx, spec, exp.RunOptions{})
	if err != nil {
		return nil, err
	}
	doc, err := exp.ResultJSON(spec, res)
	if err != nil {
		return nil, err
	}
	hash, err := spec.Normalized().Hash()
	if err != nil {
		return nil, err
	}
	cache := service.NewCache(64 << 20)
	cache.Put(hash, doc, true)
	const n = 2000
	out := map[string]float64{
		"exp.decode_us": perOp(func() int {
			for i := 0; i < n; i++ {
				if _, err := exp.DecodeSpec(body); err != nil {
					return 0
				}
			}
			return n
		}) / 1e3,
		"exp.hash_us": perOp(func() int {
			for i := 0; i < n; i++ {
				if _, err := spec.Normalized().Hash(); err != nil {
					return 0
				}
			}
			return n
		}) / 1e3,
		"exp.encode_us": perOp(func() int {
			for i := 0; i < n/10; i++ {
				if _, err := exp.ResultJSON(spec, res); err != nil {
					return 0
				}
			}
			return n / 10
		}) / 1e3,
		"service.cache_get_ns": perOp(func() int {
			for i := 0; i < 100*n; i++ {
				if _, ok := cache.Get(hash); !ok {
					return 0
				}
			}
			return 100 * n
		}),
	}
	return out, nil
}
