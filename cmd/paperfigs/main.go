// Command paperfigs regenerates the data behind every figure of the
// paper's evaluation (Figs. 2-4 and 6-9; Fig. 5 is the address-mapping
// definition, printed for reference). Results are printed as ASCII
// charts and, when -out is given, written as CSV files.
//
//	paperfigs -fig all -out results
//	paperfigs -fig 7 -budget 2000000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/exp"
	"dramstacks/internal/extrapolate"
	"dramstacks/internal/viz"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 2,3,4,5,6,7,8,9 or all")
		budget    = flag.Int64("budget", 400_000, "memory-cycle budget per synthetic run")
		gapBudget = flag.Int64("gap-budget", 1_500_000, "memory-cycle budget per GAP run")
		out       = flag.String("out", "", "directory for CSV output (optional)")
	)
	flag.Parse()
	if err := run(*fig, *budget, *gapBudget, *out); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

// output is one file under -out: its name and what fills it.
type output struct {
	name   string
	render func(io.Writer) error
}

// writeFile creates path and has render fill it; a write the disk refuses
// is returned, whichever of render, the flush or the close meets it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return renderInto(f, render)
}

// renderInto is writeFile on an open file. Writes render leaves unchecked
// fail the flush: a bufio.Writer keeps its first error.
func renderInto(f io.WriteCloser, render func(io.Writer) error) error {
	w := bufio.NewWriter(f)
	err := render(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(fig string, budget, gapBudget int64, out string) error {
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	want := func(f string) bool { return fig == "all" || fig == f }
	geo, _ := dram.DDR4_2400()

	section := func(title string) {
		fmt.Printf("\n===== %s =====\n", title)
	}
	write := func(files ...output) error {
		for _, f := range files {
			if err := writeFile(filepath.Join(out, f.name), f.render); err != nil {
				return err
			}
		}
		return nil
	}
	chartRows := func(name string, rows []exp.Row) error {
		labels, bw, lat := exp.Stacks(rows)
		viz.BandwidthChart(os.Stdout, labels, bw, geo)
		fmt.Println()
		viz.LatencyChart(os.Stdout, labels, lat, geo)
		if out == "" {
			return nil
		}
		return write(
			output{name + "_bw.svg", func(w io.Writer) error { return viz.BandwidthSVG(w, labels, bw, geo) }},
			output{name + "_lat.svg", func(w io.Writer) error { return viz.LatencySVG(w, labels, lat, geo) }},
			output{name + ".json", func(w io.Writer) error { return exp.WriteRowsJSON(w, rows) }},
			output{name + ".csv", func(w io.Writer) error {
				fmt.Fprint(w, "label,achieved_gbs")
				for c := 0; c < len(bw[0].Cycles); c++ {
					fmt.Fprintf(w, ",bw_%d", c)
				}
				fmt.Fprintln(w)
				for i := range rows {
					g := bw[i].GBps(geo)
					fmt.Fprintf(w, "%s,%.4f", strings.ReplaceAll(labels[i], ",", " "), bw[i].AchievedGBps(geo))
					for _, v := range g {
						fmt.Fprintf(w, ",%.4f", v)
					}
					fmt.Fprintln(w)
				}
				return nil
			}})
	}

	start := time.Now()
	if want("2") {
		section("Fig. 2: read-only scaling, sequential vs random, 1-8 cores")
		rows, err := exp.Fig2(budget)
		if err != nil {
			return err
		}
		if err := chartRows("fig2", rows); err != nil {
			return err
		}
	}
	if want("3") {
		section("Fig. 3: store-fraction sweep on 1 core")
		rows, err := exp.Fig3(budget)
		if err != nil {
			return err
		}
		if err := chartRows("fig3", rows); err != nil {
			return err
		}
	}
	if want("4") {
		section("Fig. 4: open vs closed page policy, 2 cores")
		rows, err := exp.Fig4(budget)
		if err != nil {
			return err
		}
		if err := chartRows("fig4", rows); err != nil {
			return err
		}
	}
	if want("5") {
		section("Fig. 5: address indexing schemes")
		fmt.Println(addrmap.MustDefault(geo, 1))
		fmt.Println(addrmap.MustInterleaved(geo, 1))
	}
	if want("6") {
		section("Fig. 6: default vs cache-line-interleaved indexing")
		rows, err := exp.Fig6(budget)
		if err != nil {
			return err
		}
		if err := chartRows("fig6", rows); err != nil {
			return err
		}
	}
	if want("7") {
		section("Fig. 7: through-time stacks for bfs on 8 cores")
		res, err := exp.Fig7(gapBudget, gapBudget/48)
		if err != nil {
			return err
		}
		fmt.Printf("bfs 8c: %.2f GB/s over %.3f ms (%d samples)\n",
			res.AchievedGBps(), res.RuntimeMS(), len(res.BWSamples))
		if out != "" {
			if err := write(
				output{"fig7_bw_lat.csv", func(w io.Writer) error { return viz.SamplesCSV(w, res.BWSamples, geo) }},
				output{"fig7_cycles.csv", func(w io.Writer) error {
					return viz.CycleSamplesCSV(w, res.CycleSamples, res.Cfg.SampleInterval, geo)
				}},
				output{"fig7_bw.svg", func(w io.Writer) error { return viz.ThroughTimeSVG(w, res.BWSamples, geo) }},
				output{"fig7_cycles.svg", func(w io.Writer) error {
					return viz.CycleSamplesSVG(w, res.CycleSamples, res.Cfg.SampleInterval, geo)
				}},
			); err != nil {
				return err
			}
		}
		// Show the phase behavior as through-time achieved bandwidth.
		viz.ThroughTime(os.Stdout, res.BWSamples, geo)
	}
	if want("8") {
		section("Fig. 8: latency stacks for bfs/tc variants")
		rows, err := exp.Fig8(gapBudget)
		if err != nil {
			return err
		}
		labels, _, lat := exp.Stacks(rows)
		viz.LatencyChart(os.Stdout, labels, lat, geo)
		if out != "" {
			if err := write(output{"fig8_lat.svg", func(w io.Writer) error {
				return viz.LatencySVG(w, labels, lat, geo)
			}}); err != nil {
				return err
			}
		}
	}
	if want("9") {
		section("Fig. 9: bandwidth extrapolation 1c -> 8c, naive vs stack")
		preds, err := exp.Fig9(gapBudget, gapBudget/32)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %10s %10s %10s %10s %10s\n",
			"bench", "8c meas.", "naive", "stack", "naiveErr", "stackErr")
		for _, p := range preds {
			fmt.Printf("%-8s %10.2f %10.2f %10.2f %9.1f%% %9.1f%%\n",
				p.Name, p.Measured, p.Naive, p.Stack, 100*p.NaiveErr(), 100*p.StackErr())
		}
		nv, st, err := extrapolate.MeanErrors(preds)
		if err != nil {
			return err
		}
		fmt.Printf("mean error: naive %.1f%%, stack-based %.1f%% (paper: 27%% vs 8%%)\n",
			100*nv, 100*st)
		if out != "" {
			if err := write(output{"fig9.csv", func(w io.Writer) error {
				fmt.Fprintln(w, "bench,measured_8c,naive,stack,naive_err,stack_err")
				for _, p := range preds {
					fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f,%.4f,%.4f\n",
						p.Name, p.Measured, p.Naive, p.Stack, p.NaiveErr(), p.StackErr())
				}
				return nil
			}}); err != nil {
				return err
			}
		}
	}
	fmt.Printf("\ndone in %.1fs\n", time.Since(start).Seconds())
	return nil
}
