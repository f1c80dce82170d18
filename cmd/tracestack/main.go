// Command tracestack builds a DRAM bandwidth stack offline from a
// command trace (paper §IV: stacks can be constructed from a trace
// collected on hardware or from a DRAM simulator, without rerunning the
// simulation).
//
//	dramstacks -workload seq -cores 2 -trace seq.trace
//	tracestack -in seq.trace -cycles 150000
package main

import (
	"flag"
	"fmt"
	"os"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
	"dramstacks/internal/trace"
	"dramstacks/internal/viz"
)

func main() {
	var (
		in     = flag.String("in", "", "trace file (one '<cycle> <kind> <rank> <group> <bank> <row> <col>' per line)")
		cycles = flag.Int64("cycles", 0, "total cycles the trace window covers (0 = until the device drains)")
		verify = flag.Bool("verify", true, "also re-check the trace against the JEDEC timing rules")
	)
	flag.Parse()
	if err := run(*in, *cycles, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "tracestack:", err)
		os.Exit(1)
	}
}

func run(in string, cycles int64, verify bool) error {
	if in == "" {
		return fmt.Errorf("missing -in trace file")
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		return err
	}
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing

	if verify {
		v := dram.NewVerifier(geo, tim)
		for _, e := range events {
			v.Check(e.Cycle, e.Cmd)
		}
		if vs := v.Violations(); len(vs) > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d timing violations, first: %v\n", len(vs), vs[0])
		} else {
			fmt.Printf("%d commands verified: no timing violations\n", v.Checked())
		}
	}

	s, err := trace.BuildBandwidthStack(events, geo, tim, cycles)
	if err != nil {
		return err
	}
	if err := s.CheckSum(); err != nil {
		return err
	}
	fmt.Printf("reconstructed from %d commands over %d cycles\n\n", len(events), s.TotalCycles)
	viz.BandwidthChart(os.Stdout, []string{in}, []stacks.BandwidthStack{s}, geo)
	return nil
}
