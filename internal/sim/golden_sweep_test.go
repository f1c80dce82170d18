package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sim"
	"dramstacks/internal/workload"
)

// TestGoldenSweepJSON is the end-to-end golden-equivalence gate for the
// event loop: the full Fig. 2/Fig. 4 grid (sequential/random × 1..8 cores
// × open/closed pages, reduced budget) must serialize to byte-identical
// SweepJSON — spec hashes, stacks, through-time samples and
// extrapolations — whether its points run through exp.RunSweep on the
// event loop or on the reference per-cycle loop. The reference side
// assembles each point's machine as exp.RunSpec does for a synthetic
// spec, so a drift between the two assemblies fails here too.
func TestGoldenSweepJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid equivalence sweep skipped in -short")
	}
	sw := exp.Sweep{
		Base: exp.Spec{Workload: "seq", Budget: 30_000, Sample: 10_000},
		Axes: map[string][]any{
			"workload": {"seq", "random"},
			"cores":    {1, 2, 4, 8},
			"policy":   {"open", "closed"},
		},
	}
	fast, err := exp.RunSweep(context.Background(), sw, exp.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := *fast
	ref.Points = make([]exp.PointResult, len(fast.Points))
	for i, pr := range fast.Points {
		ref.Points[i] = exp.PointResult{Point: pr.Point, Res: runReference(t, pr.Point.Spec)}
	}
	fastJSON, refJSON := sweepJSON(t, fast), sweepJSON(t, &ref)
	if bytes.Equal(fastJSON, refJSON) {
		return
	}
	i := 0
	for i < len(fastJSON) && i < len(refJSON) && fastJSON[i] == refJSON[i] {
		i++
	}
	lo, hi := max(i-80, 0), i+80
	clip := func(b []byte) []byte { return b[lo:min(hi, len(b))] }
	t.Errorf("SweepJSON differs at byte %d:\n fast: ...%s...\n slow: ...%s...",
		i, clip(fastJSON), clip(refJSON))
}

// runReference runs a synthetic spec's machine, as exp.RunSpec assembles
// it, on the reference loop.
func runReference(t *testing.T, spec exp.Spec) *sim.Result {
	t.Helper()
	n := spec.Normalized()
	std := standard.Default()
	cfg := sim.DefaultFor(std, n.Cores)
	cfg.Channels = n.Channels
	if n.Policy == "closed" {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	cfg.MaxMemCycles = n.Budget
	cfg.SampleInterval = n.Sample
	cfg.PrewarmOps = 1 << 20
	pat := workload.Sequential
	if n.Workload == "random" {
		pat = workload.Random
	}
	sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(sim.SyntheticSources(pat, n.Cores, n.Stores)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.RunReference(context.Background())
	if len(res.Violations) > 0 {
		t.Fatalf("%s: DRAM timing violation: %v", spec.Label(), res.Violations[0])
	}
	return res
}

func sweepJSON(t *testing.T, res *exp.SweepResult) []byte {
	t.Helper()
	doc, err := res.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
