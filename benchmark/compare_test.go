package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func flat(v float64) summary { return summary{Median: v, Q1: v, Q3: v, Min: v, Max: v, N: 10} }

func TestJudge(t *testing.T) {
	noisy := func(v, half float64) summary {
		return summary{Median: v, Q1: v - half, Q3: v + half, Min: v - 2*half, Max: v + 2*half, N: 10}
	}
	cases := []struct {
		name   string
		a, b   summary
		better string
		bound  float64
		want   verdict
		dev    float64
	}{
		{"identical counts", flat(152142), flat(152142), "lower", 0.01, pass, 0},
		{"lower is better, slightly worse", flat(100), flat(104), "lower", 0.05, pass, 0.04},
		{"lower is better, too much worse", flat(100), flat(110), "lower", 0.05, fail, 0.10},
		{"higher is better, worse means smaller", flat(1000), flat(880), "higher", 0.10, fail, 0.12},
		{"higher is better, improved", flat(1000), flat(1500), "higher", 0.10, pass, -0.5},
		{"spread wider than the bound", noisy(100, 8), noisy(101, 8), "lower", 0.10, unresolved, 0.01},
		{"wide spread but every run better", noisy(100, 8), noisy(50, 6), "lower", 0.10, pass, -0.5},
		{"wide spread, higher is better, every run better", noisy(100, 8), noisy(200, 8), "higher", 0.10, pass, -1},
	}
	for _, c := range cases {
		got := judge(c.a, c.b, c.better, c.bound)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
		if d := got.deviation - c.dev; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: deviation %v, want %v", c.name, got.deviation, c.dev)
		}
	}
	if !judge(summary{Median: 10, Q1: 9, Q3: 11}, summary{Median: 11, Q1: 10.5, Q3: 12}, "lower", 1).overlap {
		t.Error("quartile ranges [9,11] and [10.5,12] overlap")
	}
	if judge(summary{Median: 10, Q1: 9, Q3: 11}, summary{Median: 13, Q1: 12, Q3: 14}, "lower", 1).overlap {
		t.Error("quartile ranges [9,11] and [12,14] are apart")
	}
}

func writeRecords(t *testing.T, path string, recs ...record) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func rec(workload string, cyclesPerS float64, failed int) record {
	m := metricRecord{Value: cyclesPerS, Unit: "1/s", Q1: cyclesPerS, Q3: cyclesPerS, Min: cyclesPerS, Max: cyclesPerS, N: 9}
	return record{Workload: workload, Attempted: 10, Failed: failed, Metrics: map[string]metricRecord{"sim_cycles_per_s": m}}
}

// compare reads two result files and applies BENCHMARK.json's bounds per
// (workload, metric) pair, failed/attempted included.
func TestCompareAppliesTheBounds(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	writeRecords(t, a, rec("sat-seq-8c", 1000, 0), rec("sat-seq-8c", 1010, 0), rec("lowutil-4c", 9000, 0))
	writeRecords(t, b, rec("sat-seq-8c", 600, 0), rec("sat-seq-8c", 610, 0), rec("lowutil-4c", 9100, 1))
	ra, err := readRecords(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 3 || len(rb) != 3 {
		t.Fatalf("read %d and %d records, want 3 and 3", len(ra), len(rb))
	}
	var out bytes.Buffer
	tally := compare(&out, bf, ra, rb)
	// sat-seq-8c got 40 % slower: fail. Its failed share stayed 0: pass.
	// lowutil-4c got faster: pass. One of its operations failed: fail.
	if tally[fail] != 2 || tally[pass] != 2 || tally[unresolved] != 0 {
		t.Errorf("tally %v, want 2 fail 2 pass\n%s", tally, out.String())
	}
	for _, want := range []string{"sat-seq-8c", "sim_cycles_per_s", "failed_share", "+39.80%", "2 pass, 2 fail, 0 unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if err := compareMain([]string{"--bench", "../BENCHMARK.json", a, b}); err == nil {
		t.Error("compare of a regressed set exits 0")
	}
	if err := compareMain([]string{"--bench", "../BENCHMARK.json", a, a}); err != nil {
		t.Errorf("compare of a set with itself: %v", err)
	}
}

// One invocation in a file falls back to the spread of its repetitions;
// several use the spread of their medians.
func TestSideSingleAndSeveralInvocations(t *testing.T) {
	one := record{Workload: "w", Metrics: map[string]metricRecord{"m": {Value: 5, Q1: 4, Q3: 7, Min: 3, Max: 9, N: 9}}}
	s, ok := side([]record{one}, "w", "m")
	if !ok || s != (summary{Median: 5, Q1: 4, Q3: 7, Min: 3, Max: 9, N: 9}) {
		t.Errorf("single invocation: %+v %v", s, ok)
	}
	two := one
	two.Metrics = map[string]metricRecord{"m": {Value: 7, Q1: 0, Q3: 100}}
	s, ok = side([]record{one, two}, "w", "m")
	if !ok || s.Median != 6 || s.Min != 5 || s.Max != 7 || s.N != 2 {
		t.Errorf("two invocations: %+v %v", s, ok)
	}
	traced := one
	traced.Trace = 1
	if _, ok := side([]record{traced}, "w", "m"); ok {
		t.Error("a traced record was used for an end-to-end comparison")
	}
	if _, ok := side([]record{one}, "other", "m"); ok {
		t.Error("found a metric of a workload that was not run")
	}
}
