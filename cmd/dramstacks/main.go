// Command dramstacks runs one workload on the simulated machine and
// prints its DRAM bandwidth, latency and cycle stacks.
//
// Usage examples:
//
//	dramstacks -workload seq -cores 4
//	dramstacks -workload seq -cores 4 -standard ddr5-4800
//	dramstacks -list-standards
//	dramstacks -workload random -cores 8 -stores 0.2 -policy closed
//	dramstacks -workload bfs -cores 8 -scale 16 -cycles 1000000
//	dramstacks -workload seq -cores 2 -map int -trace seq2.trace
//	dramstacks -workload seq -cores 4 -json
//	dramstacks -sweep examples/sweeps/fig4.json
//	dramstacks -sweep sweep.json -workers 4 -json > sweep.out.json
//
// Except for -workload trace (which replays a local file), experiments
// are described by the shared spec layer in internal/exp, the same path
// the dramstacksd service runs, so -json output is byte-identical to
// the service's result for the same spec.
//
// With -sweep the single-experiment flags are ignored: the sweep file's
// base spec plus axis lists expand into a deduplicated grid of specs run
// across a bounded worker pool. The aggregate comes out as a table
// (default), one JSON document (-json), or CSV rows (-csv).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"dramstacks/internal/cpu"
	"dramstacks/internal/cyclestack"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/power"
	"dramstacks/internal/qos"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/trace"
	"dramstacks/internal/viz"
	"dramstacks/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "seq", "seq, random, strided, a STREAM kernel (copy scale add triad), a GAP kernel (bc bfs cc pr sssp tc), 'trace' with -in, or a comma mix of synthetic/STREAM kinds assigned to cores round-robin (e.g. seq,random)")
		inFile    = flag.String("in", "", "application memory trace for -workload trace (lines: 'R <addr> [work]', 'W <addr> [work]', 'B [0|1]')")
		cores     = flag.Int("cores", 1, "number of cores (1-8 in the paper)")
		channels  = flag.Int("channels", 1, "memory channels (the paper uses 1)")
		stores    = flag.Float64("stores", 0, "store fraction for synthetic workloads (0..1)")
		policy    = flag.String("policy", "", "page policy: open or closed (default: open; GAP kernels default closed, tc open)")
		mapping   = flag.String("map", "def", "address mapping: def (Fig 5a), int (cache-line interleaved, Fig 5b), or xor (permutation bank hashing)")
		stdName   = flag.String("standard", "", "DRAM standard preset (default ddr4-2400; see -list-standards)")
		listStds  = flag.Bool("list-standards", false, "print the registered DRAM standards with derived peak bandwidth, geometry and key timings, then exit")
		cycles    = flag.Int64("cycles", 500_000, "memory-cycle budget (0 = run workload to completion)")
		sample    = flag.Int64("sample", 0, "through-time sample interval in memory cycles (0 = off)")
		scale     = flag.Int("scale", 17, "Kronecker graph scale for GAP kernels")
		wq        = flag.Int("wq", 0, "write queue capacity override (paper wq128 variant)")
		qosSpec   = flag.String("qos", "", "multi-tenant QoS policy: comma-separated 'win=N' (regulation window, mem cycles), 'cap=SRC:N' (per-window column-command budget), 'rt=SRC' (real-time priority), 'aging=N' directives, e.g. 'win=2048,cap=1:16,rt=0'; splits the stacks per source")
		csvOut    = flag.String("csv", "", "write through-time samples as CSV to this file (needs -sample)")
		traceFile = flag.String("trace", "", "record the DRAM command trace to this file")
		jsonOut   = flag.Bool("json", false, "print the result as JSON (the dramstacksd wire format) instead of charts")
		sweepFile = flag.String("sweep", "", "run a sweep file (base spec + axis lists) instead of a single experiment; see doc/SERVICE.md for the schema")
		workers   = flag.Int("workers", 0, "sweep worker-pool size (default GOMAXPROCS)")
		keepGoing = flag.Bool("keep-going", false, "with -sweep, run remaining points after one fails instead of cancelling the rest")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *listStds {
		printStandards(os.Stdout)
		return
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dramstacks:", err)
		os.Exit(1)
	}
	if *sweepFile != "" {
		err = runSweep(*sweepFile, *workers, *keepGoing, *csvOut, *jsonOut)
	} else {
		err = run(*wl, *inFile, *cores, *channels, *stores, *policy, *mapping, *stdName, *cycles, *sample, *scale, *wq, *qosSpec, *csvOut, *traceFile, *jsonOut)
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dramstacks:", err)
		os.Exit(1)
	}
}

// startProfiles enables the requested pprof outputs and returns the
// cleanup that flushes them; the caller runs it before exiting on error
// too, so a profile of a failed run still comes out usable (see
// doc/PERF.md for the profiling walkthrough).
func startProfiles(cpuProf, memProf string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuProf != "" {
		cpuFile, err = os.Create(cpuProf)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memProf == "" {
			return
		}
		f, err := os.Create(memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dramstacks:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dramstacks:", err)
		}
	}, nil
}

// runSweep expands a sweep file and runs every point across the pool,
// streaming per-point progress to stderr and the aggregate to stdout.
func runSweep(sweepFile string, workers int, keepGoing bool, csvOut string, jsonOut bool) error {
	data, err := os.ReadFile(sweepFile)
	if err != nil {
		return err
	}
	sw, err := exp.ParseSweep(data)
	if err != nil {
		return err
	}
	opt := exp.SweepOptions{
		Workers:   workers,
		KeepGoing: keepGoing,
		OnPoint: func(pr exp.PointResult, done, total int) {
			status := "ok"
			switch {
			case pr.Err != nil:
				status = "error: " + pr.Err.Error()
			case pr.Res != nil && pr.Res.Cancelled:
				status = "cancelled (partial)"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s\n", done, total, pr.Point.Label(), status)
		},
	}
	res, err := exp.RunSweep(context.Background(), sw, opt)
	if err != nil {
		return err
	}
	switch {
	case jsonOut:
		doc, err := res.ToJSON()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	case csvOut != "":
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d sweep points to %s\n", len(res.Points), csvOut)
		return nil
	default:
		return res.WriteTable(os.Stdout)
	}
}

func run(wl, inFile string, cores, channels int, stores float64, policy, mapping, stdName string,
	cycles, sample int64, scale, wq int, qosSpec, csvOut, traceFile string, jsonOut bool) error {
	if csvOut != "" && sample <= 0 {
		return fmt.Errorf("-csv needs -sample > 0: without sampling no through-time samples are recorded and the CSV would hold only a header")
	}

	var rec trace.Recorder
	var hook func(cycle int64, cmd dram.Command)
	if traceFile != "" {
		hook = rec.Hook()
	}

	if wl == "trace" {
		std, err := standard.Lookup(stdName)
		if err != nil {
			return err
		}
		res, err := runTrace(inFile, cores, channels, policy, mapping, std, cycles, sample, qosSpec, hook)
		if err != nil {
			return err
		}
		return report(&simResult{res, fmt.Sprintf("trace %dc", cores), rec.Events()}, nil, std, csvOut, traceFile, jsonOut)
	}

	spec := exp.Spec{
		Workload: wl, Cores: cores, Channels: channels, Stores: stores,
		Policy: policy, Mapping: mapping, Standard: stdName,
		Budget: cycles, Sample: sample,
		Scale: scale, WriteQueue: wq, QoS: qosSpec,
	}
	if cycles == 0 {
		spec.Budget = exp.BudgetUnlimited
	}
	res, err := exp.RunSpec(context.Background(), spec, exp.RunOptions{Trace: hook})
	if err != nil {
		return err
	}
	std, err := exp.SpecStandard(spec)
	if err != nil {
		return err
	}
	return report(&simResult{res, spec.Label(), rec.Events()}, &spec, std, csvOut, traceFile, jsonOut)
}

// runTrace replays an application memory trace on every core (the one
// workload kind that needs a local file and therefore stays outside the
// shared spec layer).
func runTrace(inFile string, cores, channels int, policy, mapping string, std standard.Standard,
	cycles, sample int64, qosSpec string, hook func(int64, dram.Command)) (*sim.Result, error) {
	cfg := sim.DefaultFor(std, cores)
	switch mapping {
	case "def":
	case "int":
		cfg.Map = sim.MapInterleaved
	case "xor":
		cfg.Map = sim.MapXOR
	default:
		return nil, fmt.Errorf("unknown mapping %q (want def, int or xor)", mapping)
	}
	switch policy {
	case "", "open":
	case "closed":
		cfg.Ctrl.Policy = memctrl.ClosedPage
	default:
		return nil, fmt.Errorf("unknown policy %q (want open or closed)", policy)
	}
	if inFile == "" {
		return nil, fmt.Errorf("-workload trace needs -in <file>")
	}
	q, err := qos.Parse(qosSpec, cores)
	if err != nil {
		return nil, err
	}
	cfg.Channels = channels
	cfg.Ctrl.QoS = q
	cfg.MaxMemCycles = cycles
	cfg.SampleInterval = sample
	cfg.Trace = hook
	f, err := os.Open(inFile)
	if err != nil {
		return nil, err
	}
	base, err := workload.ParseTrace(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	// Beyond the caches' reach two addresses would share a tag; refuse
	// the trace before simulating any of it.
	if reach := cfg.Hier.Reach(); base.MaxAddr() >= reach {
		return nil, fmt.Errorf("trace address %#x is at or beyond the cache hierarchy's reach %#x", base.MaxAddr(), reach)
	}
	// Each core replays the trace from its own copy.
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		p := *base
		p.Loop = true
		sources = append(sources, &p)
	}
	sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(sources...))
	if err != nil {
		return nil, err
	}
	r := sys.Run()
	if len(r.Violations) > 0 {
		return nil, fmt.Errorf("DRAM timing violations: %v", r.Violations[0])
	}
	return r, nil
}

// printStandards renders the registry as a table: one row per preset
// with its derived peak bandwidth, clock, geometry and key timings.
func printStandards(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tFAMILY\tCLOCK\tPEAK/CHANNEL\tGEOMETRY\tPAGE\tKEY TIMINGS\tDESCRIPTION")
	for _, std := range standard.All() {
		g, t := std.Geometry, std.Timing
		geom := fmt.Sprintf("%dr x %dbg x %db, %dB bus x%d", g.Ranks, g.Groups, g.Banks, g.BusBytes, g.DataRate)
		if std.SubChannels > 1 {
			geom = fmt.Sprintf("%dpc x %s", std.SubChannels, geom)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d MHz\t%.1f GB/s\t%s\t%s\tCL%d RCD%d RP%d RAS%d FAW%d RFC%d\t%s\n",
			std.Name, std.Family, g.ClockMHz, std.PeakBandwidthGBs(), geom,
			pageSize(g.RowBytes()), t.CL, t.RCD, t.RP, t.RAS, t.FAW, t.RFC,
			std.Description)
	}
	tw.Flush()
}

func pageSize(bytes int) string {
	if bytes >= 1024 && bytes%1024 == 0 {
		return fmt.Sprintf("%d KB", bytes/1024)
	}
	return fmt.Sprintf("%d B", bytes)
}

type simResult struct {
	r      *sim.Result
	label  string
	events []trace.Event
}

func report(res *simResult, spec *exp.Spec, std standard.Standard, csvOut, traceFile string, jsonOut bool) error {
	r := res.r
	geo := r.Cfg.Geom

	// Side files go first so the messages below can report them; with
	// -json the notes move to stderr to keep stdout a single document.
	notes := os.Stdout
	if jsonOut {
		notes = os.Stderr
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		if err := viz.SamplesCSV(f, r.BWSamples, geo); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote %d through-time samples to %s\n", len(r.BWSamples), csvOut)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := trace.Write(f, res.events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote %d DRAM commands to %s (rebuild the stack offline with cmd/tracestack)\n",
			len(res.events), traceFile)
	}

	if jsonOut {
		var doc []byte
		var err error
		if spec != nil {
			doc, err = exp.ResultJSON(*spec, r)
		} else {
			doc, err = exp.ResultJSONRow(res.label, r)
		}
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	}

	fmt.Printf("simulated %d memory cycles (%.3f ms) on %s, %d instructions retired, %d device(s)\n",
		r.MemCycles, r.RuntimeMS(), std.Name, r.TotalRetired(), r.Channels)
	fmt.Printf("page hit rate %.1f%%, %d refreshes, %d reads / %d writes to DRAM\n",
		100*r.CtrlStats.PageHitRate(), r.CtrlStats.Refreshes,
		r.CtrlStats.IssuedReads, r.CtrlStats.IssuedWrites)
	// The IDD-derived energy model is calibrated for DDR4 devices only;
	// other families would get numbers with DDR4 currents behind them.
	if std.Family == "DDR4" {
		if rep, err := power.DDR4().Estimate(r.DevStats, r.MemCycles, geo); err == nil {
			fmt.Println(rep)
		}
	}
	if h := r.LatHist; h.Count() > 0 {
		fmt.Printf("read latency: mean %.1f ns, p50 <= %.1f, p95 <= %.1f, p99 <= %.1f, max %.1f\n",
			geo.CyclesToNS(1)*h.Mean(),
			geo.CyclesToNS(h.Quantile(0.50)), geo.CyclesToNS(h.Quantile(0.95)),
			geo.CyclesToNS(h.Quantile(0.99)), geo.CyclesToNS(h.Max()))
	}
	fmt.Println()

	viz.BandwidthChart(os.Stdout, []string{res.label}, []stacks.BandwidthStack{r.BW}, geo)
	if r.Channels > 1 {
		fmt.Printf("(per-channel average; total across %d channels: %.2f of %.1f GB/s)\n",
			r.Channels, r.AchievedGBps(), r.PeakGBps())
	}
	fmt.Println()
	viz.LatencyChart(os.Stdout, []string{res.label}, []stacks.LatencyStack{r.Lat}, geo)
	fmt.Println()
	var agg cyclestack.Stack
	labels := []string{}
	var perCore []cyclestack.Stack
	for i, cs := range r.CycleStacks {
		agg.Add(cs)
		perCore = append(perCore, cs)
		labels = append(labels, fmt.Sprintf("core %d", i))
	}
	viz.CycleChart(os.Stdout, append(labels, "all cores"), append(perCore, agg))

	if advice := stacks.Diagnose(r.BW, r.Lat, geo); len(advice) > 0 {
		fmt.Println("\ndiagnosis (paper §IV/§V interpretation):")
		for _, a := range advice {
			fmt.Printf("  %s\n", a)
		}
	}
	return nil
}
