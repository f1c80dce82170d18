package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode applies.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords reads an --out result file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// side is one result file's view of one (workload, metric) pair. With
// several invocations in the file the statistics run over their medians,
// which is what the driver's acceptance test looks at; a single
// invocation falls back to the spread of its own repetitions.
func side(recs []record, workload, metric string) (summary, bool) {
	var values []float64
	var one metricRecord
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			values = append(values, m.Value)
			one = m
		}
	}
	switch len(values) {
	case 0:
		return summary{}, false
	case 1:
		return summary{Median: one.Value, Q1: one.Q1, Q3: one.Q3, Min: one.Min, Max: one.Max, N: one.N}, true
	}
	return summarize(values), true
}

func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

type verdict string

const (
	pass       verdict = "pass"
	fail       verdict = "fail"
	unresolved verdict = "unresolved"
)

// comparison is one row of the compare table.
type comparison struct {
	deviation float64 // share of A's median by which B is worse (negative: better)
	spread    float64 // the wider of the two sides' quartile distances, as a share of the median
	overlap   bool    // the two sides' quartile ranges overlap
	verdict   verdict
}

// judge applies one bound. B passes when its median is no worse than A's
// by more than the bound. Where the run-to-run spread is wider than the
// bound the pair is unresolved, not unchanged — unless every run of B
// reads better than every run of A.
func judge(a, b summary, better string, bound float64) comparison {
	worse := func(x, y float64) float64 { // how much worse y is than x
		if better == "higher" {
			return x - y
		}
		return y - x
	}
	c := comparison{
		spread:  math.Max(a.spread(), b.spread()),
		overlap: a.Q1 <= b.Q3 && b.Q1 <= a.Q3,
	}
	if a.Median != 0 {
		c.deviation = worse(a.Median, b.Median) / math.Abs(a.Median)
	}
	bWorst, aBest := b.Max, a.Min
	if better == "higher" {
		bWorst, aBest = b.Min, a.Max
	}
	switch {
	case c.spread > bound && worse(aBest, bWorst) < 0:
		c.verdict = pass
	case c.spread > bound:
		c.verdict = unresolved
	case c.deviation <= bound:
		c.verdict = pass
	default:
		c.verdict = fail
	}
	return c
}

func failedShare(recs []record, workload string) (share float64, ok bool) {
	var attempted, failed int
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0, false
	}
	return float64(failed) / float64(attempted), true
}

// compare prints one row per (workload, end-to-end metric) and returns
// how many rows got each verdict. Rows that repeat setup_s and
// sim_cycles_per_s (see derived) are marked, so that one regression is
// not read as three.
func compare(w io.Writer, bf benchmarkFile, a, b []record) map[verdict]int {
	tally := map[verdict]int{}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tB worse by\tbound\tspread\tquartiles\tverdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			sa, okA := side(a, wl.Name, m.Name)
			sb, okB := side(b, wl.Name, m.Name)
			if !okA || !okB {
				continue
			}
			c := judge(sa, sb, m.Better, m.Bound)
			tally[c.verdict]++
			overlap := "apart"
			if c.overlap {
				overlap = "overlap"
			}
			note := ""
			if derived(wl.Name, m.Name) {
				note = " (derived)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.0f%%\t%.2f%%\t%s\t%s%s\n",
				wl.Name, m.Name, sa.Median, sb.Median, m.Unit, 100*c.deviation, 100*m.Bound, 100*c.spread, overlap, c.verdict, note)
		}
		// failed / attempted may not worsen at all.
		fa, okA := failedShare(a, wl.Name)
		fb, okB := failedShare(b, wl.Name)
		if okA && okB {
			v := pass
			if fb > fa {
				v = fail
			}
			tally[v]++
			fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t%.6g\tratio\t%+.6g\t0%%\t\t\t%s\n", wl.Name, fa, fb, fb-fa, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d pass, %d fail, %d unresolved\n", tally[pass], tally[fail], tally[unresolved])
	return tally
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "the file whose bounds are applied")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [--bench BENCHMARK.json] A.ndjson B.ndjson")
	}
	bf, err := readBenchmarkFile(*bench)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	if tally := compare(os.Stdout, bf, a, b); tally[fail] > 0 {
		return fmt.Errorf("%d pairs are worse than their bound", tally[fail])
	}
	return nil
}
