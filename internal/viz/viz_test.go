package viz

import (
	"strings"
	"testing"

	"dramstacks/internal/cyclestack"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
)

func geo() dram.Geometry {
	return standard.Default().Geometry
}

func sampleBW() stacks.BandwidthStack {
	a := stacks.NewBandwidthAccountant(16)
	for i := 0; i < 500; i++ {
		a.Account(stacks.CycleView{Data: dram.DataRead})
	}
	for i := 0; i < 100; i++ {
		a.Account(stacks.CycleView{Data: dram.DataWrite})
	}
	for i := 0; i < 50; i++ {
		a.Account(stacks.CycleView{Refreshing: true})
	}
	for i := 0; i < 350; i++ {
		a.Account(stacks.CycleView{})
	}
	return a.Stack()
}

func sampleLat() stacks.LatencyStack {
	a := stacks.NewLatencyAccountant()
	var r stacks.ReadLatency
	r.Components[stacks.LatBaseCtrl] = 30
	r.Components[stacks.LatBaseDRAM] = 20
	r.Components[stacks.LatQueue] = 50
	r.Total = 100
	a.AddRead(r)
	return a.Stack()
}

func TestBandwidthChart(t *testing.T) {
	var b strings.Builder
	BandwidthChart(&b, []string{"seq 1c"}, []stacks.BandwidthStack{sampleBW()}, geo())
	out := b.String()
	for _, want := range []string{"peak 19.2", "seq 1c", "RRRR", "read", "bank_idle", "achieved"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Bars are equal width between the pipes.
	lines := strings.Split(out, "\n")
	barw := -1
	for _, l := range lines {
		if i := strings.IndexByte(l, '|'); i >= 0 {
			j := strings.LastIndexByte(l, '|')
			if barw == -1 {
				barw = j - i
			} else if j-i != barw {
				t.Errorf("inconsistent bar width in %q", l)
			}
		}
	}
}

func TestLatencyChart(t *testing.T) {
	var b strings.Builder
	LatencyChart(&b, []string{"random"}, []stacks.LatencyStack{sampleLat()}, geo())
	out := b.String()
	for _, want := range []string{"random", "qqq", "base-cntlr", "queue", "ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestCycleChart(t *testing.T) {
	a := cyclestack.NewAccountant()
	for i := 0; i < 60; i++ {
		a.AddCycle(cyclestack.Base)
	}
	for i := 0; i < 40; i++ {
		a.AddCycle(cyclestack.Idle)
	}
	var b strings.Builder
	CycleChart(&b, []string{"core0"}, []cyclestack.Stack{a.Stack()})
	out := b.String()
	if !strings.Contains(out, "BBB") || !strings.Contains(out, "...") {
		t.Errorf("cycle chart bars missing:\n%s", out)
	}
}

func TestSamplesCSV(t *testing.T) {
	var b strings.Builder
	s := stacks.Sample{Start: 0, End: 1000, BW: sampleBW(), Lat: sampleLat()}
	if err := SamplesCSV(&b, []stacks.Sample{s}, geo()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "start_cycle,end_cycle,time_ms,bw_read") {
		t.Errorf("header = %q", lines[0])
	}
	if cols, want := strings.Count(lines[1], ",")+1, strings.Count(lines[0], ",")+1; cols != want {
		t.Errorf("row has %d columns, header %d", cols, want)
	}
}

func TestCycleSamplesCSV(t *testing.T) {
	a := cyclestack.NewAccountant()
	a.AddCycle(cyclestack.Base)
	var b strings.Builder
	if err := CycleSamplesCSV(&b, []cyclestack.Stack{a.Stack()}, 1000, geo()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dram-queue") || !strings.Contains(b.String(), "1.0000") {
		t.Errorf("cycle csv wrong:\n%s", b.String())
	}
}

func TestThroughTime(t *testing.T) {
	var b strings.Builder
	s1 := stacks.Sample{Start: 0, End: 1000, BW: sampleBW()}
	s2 := stacks.Sample{Start: 1000, End: 2000} // empty: skipped
	ThroughTime(&b, []stacks.Sample{s1, s2}, geo())
	out := b.String()
	if !strings.Contains(out, "through-time") || !strings.Contains(out, "#") {
		t.Errorf("through-time output wrong:\n%s", out)
	}
	if strings.Count(out, "\n") != 2 { // header + one sample
		t.Errorf("expected one sample line, got:\n%s", out)
	}
}
