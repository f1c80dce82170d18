package main

import (
	"context"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every name in BENCHMARK.json is one the program knows, with the same
// unit, and the other way round.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
		if _, ok := golden[w.name]; !ok {
			t.Errorf("golden.json pins nothing for %q", w.name)
		}
	}

	type entry struct{ unit, better string }
	check := func(kind string, defs []metricDef, file map[string]entry) {
		seen := map[string]bool{}
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("%s metric %q is defined twice", kind, d.name)
			}
			seen[d.name] = true
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, d.name)
			}
			e, ok := file[d.name]
			if !ok {
				t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", kind, d.name)
				continue
			}
			if e.unit != d.unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in the program", kind, d.name, e.unit, d.unit)
			}
			if e.better != "lower" && e.better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, d.name, e.better)
			}
		}
		for name := range file {
			if !seen[name] {
				t.Errorf("%s metric %q is in BENCHMARK.json but never emitted", kind, name)
			}
		}
	}
	e2e := map[string]entry{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = entry{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is not in (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end-to-end", endToEnd, e2e)
	layers := map[string]entry{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = entry{m.Unit, m.Better}
	}
	check("per-layer", perLayer, layers)
	if e2e["setup_s"] != (entry{"s", "lower"}) {
		t.Errorf("setup_s must be in s, lower is better: %+v", e2e["setup_s"])
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > bf.EndToEnd[0].Bound || bf.EndToEnd[0].Name != "setup_s" {
			t.Errorf("setup_s must come first and have the largest bound (%s has %v)", m.Name, m.Bound)
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// A repetition of either kind yields exactly the end-to-end metrics; the
// traced runs of the two kinds together yield exactly the per-layer ones.
// Runs the real code on a tiny machine and on one real svc-sweep
// repetition.
func TestTheProgramEmitsExactlyTheNamedMetrics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want := map[string]bool{}
	for _, d := range endToEnd {
		want[d.name] = true
	}
	same := func(kind string, got map[string]float64) {
		t.Helper()
		for _, k := range keys(got) {
			if !want[k] {
				t.Errorf("%s repetition emits %q, not an end-to-end metric", kind, k)
			}
			if got[k] <= 0 {
				t.Errorf("%s repetition: %s = %v, end-to-end metrics are never 0", kind, k, got[k])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s repetition emits %v, want %v", kind, keys(got), keys(want))
		}
	}

	tiny := workload{name: "tiny", sim: tinyCases["ddr4-2400"]}
	o := tiny.sim.rep(ctx, tiny.name, 1)
	if o.failed != 0 || o.attempted != 1 {
		t.Fatalf("tiny repetition: %d of %d failed: %v", o.failed, o.attempted, o.notes)
	}
	same("sim", o.values)

	svc, layers := serviceRep(ctx, 1, true)
	if svc.failed != 0 || svc.attempted != sweepPoints+hitPairs {
		t.Fatalf("svc-sweep repetition: %d of %d failed: %v", svc.failed, svc.attempted, svc.notes)
	}
	same("svc-sweep", svc.values)
	if want := golden["svc-sweep"]; svc.facts != want {
		t.Errorf("svc-sweep outputs %+v differ from golden.json %+v", svc.facts, want)
	}

	emitted := map[string]bool{}
	for k := range layers {
		emitted[k] = true
	}
	iso, err := requestPathLayers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range iso {
		emitted[k] = true
	}
	emitted["trace.match"], emitted["trace.overhead_ratio"] = true, true // traceService adds these from two repetitions
	tr := traceSim(ctx, tiny, 1, 0)
	if tr.err != nil || tr.failed != 0 {
		t.Fatalf("traced tiny run: %v %v", tr.err, tr.notes)
	}
	if m := median(tr.samples["trace.match"]); m != 1 {
		t.Errorf("trace.match = %v on the tiny machine", m)
	}
	for k := range tr.samples {
		emitted[k] = true
	}
	for _, d := range perLayer {
		if !emitted[d.name] {
			t.Errorf("per-layer metric %q is named but no traced run emits it", d.name)
		}
		delete(emitted, d.name)
	}
	for k := range emitted {
		t.Errorf("a traced run emits %q, which is not a named per-layer metric", k)
	}
}

// The record of a traced run carries every per-layer metric, 0 where it
// does not apply, and an error in the tracing cannot fail an operation.
func TestTraceRecordHasEveryPerLayerMetric(t *testing.T) {
	broken := workload{name: "broken", sim: &simCase{standard: "no-such-standard"}}
	r := traceWorkload(context.Background(), broken, 1, 0)
	if r.TraceError == "" {
		t.Error("the broken traced run reported no error in its own field")
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d metrics in the record, want %d", len(r.Metrics), len(perLayer))
	}
	if r.Attempted < 1 {
		t.Errorf("attempted = %d, the result line needs at least 1", r.Attempted)
	}
}

// The metrics a workload reports only because every workload reports every
// metric are marked derived; the ones the issue defines for it are not.
func TestDerivedPairs(t *testing.T) {
	n := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			if !derived(w.name, d.name) {
				continue
			}
			n++
			native := d.name == "sim_cycles_per_s"
			if w.sim == nil {
				native = d.name == "points_per_s" || d.name == "result_p50_us"
			}
			if native || d.name == "setup_s" || d.name == "allocs_per_run" || d.name == "alloc_mb_per_job" {
				t.Errorf("%s %s is measured, not derived", w.name, d.name)
			}
		}
	}
	if n != 11 {
		t.Errorf("%d derived pairs, want 2 on each simulated workload and 1 on svc-sweep", n)
	}
}
