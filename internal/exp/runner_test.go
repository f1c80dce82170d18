package exp

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunSweepOrderedAndMatchesSingle runs a small sweep and checks the
// results arrive index-aligned with the expansion and identical to
// standalone RunSpec runs of the same specs.
func TestRunSweepOrderedAndMatchesSingle(t *testing.T) {
	sw := Sweep{
		Base: Spec{Workload: "seq", Budget: 20_000},
		Axes: map[string][]any{"cores": {1, 2}, "workload": {"seq", "random"}},
	}
	res, err := RunSweep(context.Background(), sw, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			t.Fatalf("point %d (%s): %v", i, pr.Point.Label(), pr.Err)
		}
		if pr.Point.Index != i {
			t.Errorf("point %d has Index %d", i, pr.Point.Index)
		}
		want, err := RunSpec(context.Background(), pr.Point.Spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Res.MemCycles != want.MemCycles || pr.Res.BW != want.BW {
			t.Errorf("point %d (%s): sweep result differs from standalone run", i, pr.Point.Label())
		}
	}
}

// TestRunSweepCancelPoint cancels one long point mid-sweep via the
// per-point context; the others complete normally.
func TestRunSweepCancelPoint(t *testing.T) {
	sw := Sweep{
		Base: Spec{Workload: "seq,random", Cores: 2},
		// The cycles axis makes point 2 effectively unbounded: the test
		// only terminates if CancelPoint reaches it.
		Axes: map[string][]any{"cycles": {10_000, 20_000, 4_000_000_000}},
	}
	r, err := NewRunner(sw, SweepOptions{
		Workers: 1,
		OnPoint: func(pr PointResult, done, total int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With one worker points run in index order; cancel the unbounded
	// one as soon as the first finishes.
	r.opt.OnPoint = func(pr PointResult, done, total int) {
		if done == 1 {
			r.CancelPoint(2)
		}
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res.Points[i].Err != nil || res.Points[i].Res == nil || res.Points[i].Res.Cancelled {
			t.Errorf("point %d should have completed normally: err=%v", i, res.Points[i].Err)
		}
	}
	last := res.Points[2]
	if last.Err != nil {
		t.Fatalf("cancelled point errored: %v", last.Err)
	}
	if last.Res == nil || !last.Res.Cancelled {
		t.Error("cancelled point should carry a partial result with Cancelled set")
	}
	if last.Res != nil && last.Res.MemCycles >= 4_000_000_000 {
		t.Error("cancelled point ran to its full budget")
	}
}

// TestRunSweepCancelAllMidSweep cancels the whole run from a progress
// callback; unstarted points are skipped with a context error.
func TestRunSweepCancelAllMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw := Sweep{
		Base: Spec{Workload: "seq,random", Cores: 2},
		Axes: map[string][]any{"cycles": {10_000, 4_000_000_000, 4_000_000_001, 4_000_000_002}},
	}
	opt := SweepOptions{Workers: 1, OnPoint: func(pr PointResult, done, total int) {
		if done == 1 {
			cancel()
		}
	}}
	start := time.Now()
	res, err := RunSweep(ctx, sw, opt)
	if err != nil {
		t.Fatalf("cancellation should not surface as a sweep error, got %v", err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Errorf("cancelled sweep took %v", wall)
	}
	if res.Points[0].Err != nil {
		t.Errorf("first point: %v", res.Points[0].Err)
	}
	for i := 1; i < len(res.Points); i++ {
		pr := res.Points[i]
		skipped := pr.Err != nil && pr.Res == nil
		partial := pr.Err == nil && pr.Res != nil && pr.Res.Cancelled
		if !skipped && !partial {
			t.Errorf("point %d should be skipped or partial after cancel-all (err=%v)", i, pr.Err)
		}
	}
}

// TestRunSweepKeepGoingWithCancelledPoint checks the keep-going policy:
// one point cancelled up front, the rest still run to completion.
func TestRunSweepKeepGoingWithCancelledPoint(t *testing.T) {
	sw := Sweep{
		Base: Spec{Workload: "seq", Budget: 10_000},
		Axes: map[string][]any{"cores": {1, 2, 4}},
	}
	r, err := NewRunner(sw, SweepOptions{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	r.CancelPoint(1) // before Run: the point starts pre-cancelled
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[1].Res == nil || !res.Points[1].Res.Cancelled {
		t.Error("pre-cancelled point should yield a Cancelled partial result")
	}
	for _, i := range []int{0, 2} {
		if res.Points[i].Err != nil || res.Points[i].Res == nil || res.Points[i].Res.Cancelled {
			t.Errorf("point %d should have completed (err=%v)", i, res.Points[i].Err)
		}
	}
}

// TestRunnerPointListFailsFast hands the Runner an explicit point list, as
// a figure does: results come back in list order, and a failing point
// cancels the one already running and skips the ones not yet started —
// the test ends only if it does.
func TestRunnerPointListFailsFast(t *testing.T) {
	specs := []Spec{
		{Workload: "seq,random", Cores: 2, Budget: 4_000_000_000},
		{Workload: "nope"}, // RunSpec rejects it
		{Workload: "seq,random", Cores: 2, Budget: 4_000_000_001},
		{Workload: "random", Budget: 10_000},
	}
	points := make([]Point, len(specs))
	for i, s := range specs {
		points[i] = Point{Index: i, Spec: s.Normalized()}
	}
	res, err := newRunner(points, SweepOptions{Workers: 2}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("the list's error is %v, want the failing point's", err)
	}
	if len(res.Points) != len(points) {
		t.Fatalf("%d results for %d points", len(res.Points), len(points))
	}
	for i, pr := range res.Points {
		if pr.Point.Index != i || pr.Point.Spec != points[i].Spec {
			t.Errorf("result %d is point %d (%s)", i, pr.Point.Index, pr.Point.Label())
		}
		switch {
		case i == 1:
			if pr.Err == nil || pr.Res != nil {
				t.Errorf("the failing point has result %v, error %v", pr.Res, pr.Err)
			}
		case pr.Res == nil:
			if !errors.Is(pr.Err, context.Canceled) {
				t.Errorf("point %d was skipped with %v", i, pr.Err)
			}
		case !pr.Res.Cancelled:
			t.Errorf("point %d ran to completion after the failure", i)
		}
	}
}

// TestSweepResultJSONDeterministic runs the same sweep twice and pins
// byte-identical aggregate documents (the simulator is deterministic
// and the aggregate holds no wall-clock fields).
func TestSweepResultJSONDeterministic(t *testing.T) {
	sw := Sweep{
		Base: Spec{Workload: "seq", Budget: 30_000, Sample: 10_000},
		Axes: map[string][]any{"cores": {1, 2}},
	}
	var docs [][]byte
	for i := 0; i < 2; i++ {
		res, err := RunSweep(context.Background(), sw, SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
	}
	if string(docs[0]) != string(docs[1]) {
		t.Error("aggregate sweep JSON differs between identical runs")
	}
	var doc SweepJSON
	if err := json.Unmarshal(docs[0], &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SweepHash == "" || len(doc.Points) != 2 || doc.Points[0].Result == nil {
		t.Errorf("aggregate document malformed: %s", docs[0])
	}
	// cores is an axis and the base is sampled: the 1-core run must
	// predict the 2-core bandwidth (paper Fig. 9 method).
	if len(doc.Extrapolations) != 1 || doc.Extrapolations[0].Name != "cores=2" {
		t.Errorf("extrapolations = %+v, want one cores=2 prediction", doc.Extrapolations)
	}
	if e := doc.Extrapolations[0]; e.MeasuredGBps <= 0 || e.StackGBps <= 0 {
		t.Errorf("degenerate extrapolation %+v", doc.Extrapolations[0])
	}
}

// sweep8 is the acceptance-criterion sweep: 8 points of equal cost.
func sweep8(cycles int64) Sweep {
	return Sweep{
		Base: Spec{Workload: "seq", Budget: cycles},
		Axes: map[string][]any{"cores": {1, 2, 4, 8}, "workload": {"seq", "random"}},
	}
}

// TestSweepParallelFasterThanSerial demonstrates the tentpole speedup:
// on a multi-core machine an 8-point sweep across the pool beats the
// same 8 points run one after another. Skipped where there is no
// parallel hardware to demonstrate it on.
func TestSweepParallelFasterThanSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: need >= 4 cores for a robust speedup measurement", runtime.GOMAXPROCS(0))
	}
	sw := sweep8(100_000)
	measure := func(workers int) time.Duration {
		start := time.Now()
		if _, err := RunSweep(context.Background(), sw, SweepOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure(1) // warm the allocator and caches once
	serial := measure(1)
	parallel := measure(runtime.GOMAXPROCS(0))
	t.Logf("8-point sweep: serial %v, parallel %v (%.1fx)", serial, parallel, float64(serial)/float64(parallel))
	if parallel >= serial*3/4 {
		t.Errorf("parallel sweep %v not measurably faster than serial %v", parallel, serial)
	}
}

// BenchmarkSweep8PointSerial and ...Parallel are the benchmark form of
// the same comparison (`go test -bench Sweep8Point -benchtime 1x ./internal/exp`).
func BenchmarkSweep8PointSerial(b *testing.B)   { benchSweep8(b, 1) }
func BenchmarkSweep8PointParallel(b *testing.B) { benchSweep8(b, runtime.GOMAXPROCS(0)) }

func benchSweep8(b *testing.B, workers int) {
	sw := sweep8(100_000)
	for i := 0; i < b.N; i++ {
		if _, err := RunSweep(context.Background(), sw, SweepOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}
