// Command benchmark is the repository benchmark (see README.md in this
// directory and BENCHMARK.json at the root). One invocation runs one or
// more workloads, checks their outputs, and prints every metric by name
// with its unit:
//
//	bash benchmark/run.sh --workload sat-seq-8c --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --out set-a.ndjson
//	bash benchmark/run.sh compare set-a.ndjson set-b.ndjson
//	bash benchmark/run.sh golden
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that produces the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// deadline bounds one invocation per workload: a hang becomes failed
// operations, not a stuck run.
const deadline = 150 * time.Second

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "golden":
		err = goldenMain(args[1:])
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// goldenMain rewrites golden.json; like every mode it runs from the root
// of the repository.
func goldenMain(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("golden takes no arguments")
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return writeGolden(ctx, "benchmark/golden.json")
}

// metricRecord is one metric of one invocation: the median over the
// repetitions, with quartiles, extremes and the sample count beside it.
type metricRecord struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// metricRecords summarises the samples of every metric in defs; a metric
// without samples reads 0.
func metricRecords(defs []metricDef, samples map[string][]float64) map[string]metricRecord {
	out := make(map[string]metricRecord, len(defs))
	for _, d := range defs {
		sum := summarize(samples[d.name])
		out[d.name] = metricRecord{Value: sum.Median, Unit: d.unit, Q1: sum.Q1, Q3: sum.Q3, Min: sum.Min, Max: sum.Max, N: sum.N}
	}
	return out
}

// record is one line of an --out result file: one workload of one
// invocation, stamped with where and how it was measured.
type record struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Trace      int                     `json:"trace"`
	Seconds    float64                 `json:"seconds"`
	Reps       int                     `json:"reps"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Notes      []string                `json:"notes,omitempty"`
	TraceError string                  `json:"trace_error,omitempty"`
	Metrics    map[string]metricRecord `json:"metrics"`
	Commit     string                  `json:"commit"`
	Go         string                  `json:"go"`
	NumCPU     int                     `json:"nproc"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the default is the one golden.json is pinned at")
	seconds := fs.Float64("seconds", 15, "how long each workload measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	outPath := fs.String("out", "", "append one result line per workload to this file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *seconds > 120 {
		return fmt.Errorf("--seconds must be in (0, 120], got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	var selected []workload
	if *names == "all" {
		selected = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, err := findWorkload(n)
			if err != nil {
				return err
			}
			selected = append(selected, w)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), deadline*time.Duration(len(selected)))
	defer cancel()
	budget := time.Duration(*seconds * float64(time.Second))

	var records []record
	if *trace == 0 {
		var sessions []*session
		for _, w := range selected {
			sessions = append(sessions, newSession(w, *seed))
		}
		runSessions(ctx, sessions, budget)
		for _, s := range sessions {
			records = append(records, s.record(*seconds))
		}
	} else {
		for _, w := range selected {
			records = append(records, traceWorkload(ctx, w, *seed, budget))
		}
	}

	var out *os.File
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		out = f
	}
	for i := range records {
		r := &records[i]
		r.Commit, r.Go, r.NumCPU, r.GOMAXPROCS = commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
		r.print(os.Stdout)
		if out != nil {
			line, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if _, err := out.Write(append(line, '\n')); err != nil {
				return err
			}
		}
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
}

// record summarises the session: every end-to-end metric as the median
// of its measured repetitions.
func (s *session) record(seconds float64) record {
	r := record{
		Workload: s.w.name, Seed: s.seed, Seconds: seconds, Reps: s.reps(),
		Attempted: s.attempted, Failed: s.failed, Notes: s.notes,
	}
	if r.Reps < minReps {
		r.Failed = max(r.Failed, 1)
		r.Notes = append(r.Notes, fmt.Sprintf("only %d measured repetitions", r.Reps))
	}
	r.Metrics = metricRecords(endToEnd, s.samples)
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// print writes the human-readable table, then the one-line JSON object
// the driver reads: exactly correct, attempted, failed and metrics.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d trace=%d seconds=%g reps=%d attempted=%d failed=%d commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Reps, r.Attempted, r.Failed, r.Commit, r.Go, r.NumCPU, r.GOMAXPROCS)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# failed: %s\n", n)
	}
	if r.TraceError != "" {
		fmt.Fprintf(w, "# trace error: %s\n", r.TraceError)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type brief struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	moves := map[string]string{}
	for _, d := range perLayer {
		moves[d.name] = d.moves
	}
	metrics := map[string]brief{}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-14s %-28s %14.6g %-8s", r.Workload, n, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", m.Q1, m.Q3, m.N)
		}
		if moves[n] != "" {
			fmt.Fprintf(w, "  -> %s", moves[n])
		}
		fmt.Fprintln(w)
		metrics[n] = brief{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]brief `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintf(w, "%s\n", line)
}
