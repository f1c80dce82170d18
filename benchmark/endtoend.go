package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"dramstacks/internal/cyclestack"
	"dramstacks/internal/dram"
	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
)

// facts are the outputs of one repetition that must repeat exactly: the
// hash of the result document and, for a simulated machine, the counters
// that say which layer moved when the hash does. golden.json pins them
// at the default seed.
type facts struct {
	SHA256    string     `json:"sha256"`
	MemCycles int64      `json:"mem_cycles,omitempty"`
	Retired   int64      `json:"retired,omitempty"`
	DRAM      dram.Stats `json:"dram"`
	// Unattributed is the sum over the cores of unattributedCycles.
	Unattributed float64 `json:"unattributed_cpu_cycles,omitempty"`
}

// repOutcome is what one repetition hands its session: one sample per
// end-to-end metric, the operations attempted and failed, and the facts.
type repOutcome struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string // why operations failed
	facts     facts
}

func (o *repOutcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// rep runs one repetition of a simulated workload: a fresh machine from
// the seed (a System is single-use), one System.Run, the result document.
// It is one operation; it fails if any output check does.
func (c *simCase) rep(ctx context.Context, name string, seed int64) repOutcome {
	out := repOutcome{attempted: 1, values: map[string]float64{}}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	t0 := time.Now()
	sys, err := c.assemble(seed)
	setup := time.Since(t0)
	if err != nil {
		out.fail("set-up: %v", err)
		return out
	}

	runtime.ReadMemStats(&mid)
	t1 := time.Now()
	res := sys.RunContext(ctx)
	run := time.Since(t1)
	runtime.ReadMemStats(&after)

	t2 := time.Now()
	doc, err := exp.ResultJSONRow(name, res)
	encode := time.Since(t2)
	if err != nil {
		out.fail("encoding result: %v", err)
		return out
	}
	if err := checkResult(res); err != nil {
		out.fail("%v", err)
	}
	out.facts = simFacts(doc, res)
	out.values["setup_s"] = setup.Seconds()
	out.values["sim_cycles_per_s"] = float64(res.MemCycles) / run.Seconds()
	out.values["points_per_s"] = 1 / (setup + run + encode).Seconds()
	out.values["result_p50_us"] = float64(run+encode) / 1e3
	out.values["allocs_per_run"] = float64(after.Mallocs - mid.Mallocs)
	out.values["alloc_mb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return out
}

// assemble goes from the seed to a machine ready to run: sources, then
// sim.New including prewarm. This is the set-up a dramstacks or RunSpec
// caller pays on every call.
func (c *simCase) assemble(seed int64) (*sim.System, error) {
	std, cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	srcs, _, err := c.sources(seed, c.cores)
	if err != nil {
		return nil, err
	}
	return sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...))
}

// checkResult applies the paper's accounting identities and the DRAM
// timing verifier's verdict to one result.
//
// The cycle-stack identity is exact only for a run that ends by itself:
// cpu charges a DRAM stall to the total at once and splits it over the
// components when the load retires, so a run cut off at its cycle budget
// leaves the stall of each core's head-of-ROB load unattributed (see
// unattributedCycles; cyclestack.Stack.CheckSum fails on every such
// result at the commit this benchmark was added on, in both loops). For
// those runs the check is that nothing is attributed twice and that a
// core's shortfall is no more than one load's stall can be: twice the
// longest read the run completed. The exact count is one of the facts.
func checkResult(res *sim.Result) error {
	if res.Cancelled {
		return fmt.Errorf("deadline expired after %d memory cycles", res.MemCycles)
	}
	if n := len(res.Violations); n > 0 {
		return fmt.Errorf("%d DRAM timing violations, first: %v", n, res.Violations[0])
	}
	if err := res.BW.CheckSum(); err != nil {
		return fmt.Errorf("bandwidth stack: %w", err)
	}
	cutOff := res.Cfg.MaxMemCycles > 0 && res.MemCycles >= res.Cfg.MaxMemCycles
	oneStall := 2 * float64(res.LatHist.Max()) * float64(res.Cfg.CPUMult)
	for i, cs := range res.CycleStacks {
		err := cs.CheckSum()
		if err != nil && cutOff {
			if short := unattributedCycles(cs); short >= 0 && short <= oneStall && allNonNegative(cs) {
				continue
			}
		}
		if err != nil {
			return fmt.Errorf("cycle stack of core %d: %w", i, err)
		}
	}
	return nil
}

// unattributedCycles is the part of a cycle stack's total no component
// accounts for.
func unattributedCycles(cs cyclestack.Stack) float64 {
	sum := 0.0
	for _, v := range cs.Cycles {
		sum += v
	}
	return math.Round((float64(cs.Total)-sum)*1e6) / 1e6
}

func allNonNegative(cs cyclestack.Stack) bool {
	for _, v := range cs.Cycles {
		if v < -1e-6 {
			return false
		}
	}
	return true
}

func simFacts(doc []byte, res *sim.Result) facts {
	f := facts{
		SHA256:    digest(doc),
		MemCycles: res.MemCycles,
		Retired:   res.TotalRetired(),
		DRAM:      res.DevStats,
	}
	for _, cs := range res.CycleStacks {
		f.Unattributed += unattributedCycles(cs)
	}
	return f
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// rep runs one end-to-end repetition of the workload, tracing off.
func (w workload) rep(ctx context.Context, seed int64) repOutcome {
	if w.sim != nil {
		return w.sim.rep(ctx, w.name, seed)
	}
	o, _ := serviceRep(ctx, seed, false)
	return o
}

// session accumulates the repetitions of one workload in one invocation.
type session struct {
	w    workload
	seed int64

	samples   map[string][]float64 // measured repetitions only
	attempted int
	failed    int
	notes     []string
	first     *facts // of the first repetition; every later one must equal it
	tries     int    // repetitions started, warm-up and failed ones included
	measured  time.Duration
}

func newSession(w workload, seed int64) *session {
	return &session{w: w, seed: seed, samples: map[string][]float64{}}
}

// repeat runs one repetition. The first of a session is a warm-up: its
// outputs are checked like any other, its timings are discarded.
func (s *session) repeat(ctx context.Context, warmup bool) {
	t0 := time.Now()
	s.tries++
	o := s.w.rep(ctx, s.seed)
	s.attempted += o.attempted
	s.failed += o.failed
	s.notes = append(s.notes, o.notes...)
	if o.failed == 0 {
		s.checkFacts(o.facts)
	}
	if warmup || o.failed > 0 {
		return
	}
	s.measured += time.Since(t0)
	for k, v := range o.values {
		s.samples[k] = append(s.samples[k], v)
	}
}

// checkFacts fails one operation when a repetition's outputs differ from
// the first repetition's or, at the default seed, from golden.json.
func (s *session) checkFacts(f facts) {
	if s.first == nil {
		s.first = &f
		if want, ok := golden[s.w.name]; ok && s.seed == defaultSeed && f != want {
			s.failed++
			s.notes = append(s.notes, fmt.Sprintf("outputs differ from golden.json: got %+v, want %+v", f, want))
		}
		return
	}
	if f != *s.first {
		s.failed++
		s.notes = append(s.notes, fmt.Sprintf("outputs differ between repetitions: got %+v, first %+v", f, *s.first))
	}
}

func (s *session) reps() int { return len(s.samples["setup_s"]) }

// minReps is the fewest measured repetitions a median is taken over,
// whatever --seconds says; a record with fewer counts as failed.
const minReps = 9

// wantsMore reports whether another measured repetition brings the
// session's measuring time closer to the budget than stopping now does.
func (s *session) wantsMore(budget time.Duration) bool {
	n := s.reps()
	if n < minReps {
		return s.tries <= 2*minReps // failing repetitions do not loop forever
	}
	perRep := s.measured / time.Duration(n)
	return s.measured+perRep/2 < budget
}

// runSessions interleaves the sessions' repetitions round-robin, so a
// noisy minute on the host is shared by every workload in the invocation.
func runSessions(ctx context.Context, sessions []*session, budget time.Duration) {
	for _, s := range sessions {
		s.repeat(ctx, true)
	}
	active := sessions
	for len(active) > 0 && ctx.Err() == nil {
		var next []*session
		for _, s := range active {
			s.repeat(ctx, false)
			if s.wantsMore(budget) {
				next = append(next, s)
			}
		}
		active = next
	}
}
