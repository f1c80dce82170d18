package stacks

import (
	"strings"
	"testing"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

// mkBW builds a bandwidth stack with the given component fractions of
// the total (remainder goes to read).
func mkBW(t *testing.T, fracs map[BWComponent]float64) BandwidthStack {
	t.Helper()
	total := int64(100000)
	s := BandwidthStack{Banks: 16, TotalCycles: total}
	used := 0.0
	for c, f := range fracs {
		s.Cycles[c] = f * float64(total)
		used += f
	}
	s.Cycles[BWRead] += (1 - used) * float64(total)
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	return s
}

// mkLat builds a latency stack with the given per-read components.
func mkLat(comps map[LatComponent]float64) LatencyStack {
	var s LatencyStack
	s.Reads = 1
	for c, v := range comps {
		s.SumCycles[c] = v
	}
	return s
}

func geoT() dram.Geometry {
	return standard.Default().Geometry
}

func TestDiagnoseIdle(t *testing.T) {
	bw := mkBW(t, map[BWComponent]float64{BWIdle: 0.6})
	lat := mkLat(map[LatComponent]float64{LatBaseCtrl: 30, LatBaseDRAM: 20})
	advice := Diagnose(bw, lat, geoT())
	if len(advice) != 1 || advice[0].Component != "idle" {
		t.Fatalf("advice = %v, want one idle finding", advice)
	}
	if !strings.Contains(advice[0].Action, "request rate") {
		t.Errorf("idle action = %q", advice[0].Action)
	}
}

func TestDiagnoseBankIdleSplitsByQueueing(t *testing.T) {
	bw := mkBW(t, map[BWComponent]float64{BWBankIdle: 0.5})

	lowQ := mkLat(map[LatComponent]float64{LatBaseCtrl: 30, LatBaseDRAM: 20, LatQueue: 2})
	a := Diagnose(bw, lowQ, geoT())
	if len(a) == 0 || !strings.Contains(a[0].Finding, "request rate is too low") {
		t.Errorf("low-queue advice = %v, want request-rate finding", a)
	}

	hiQ := mkLat(map[LatComponent]float64{LatBaseCtrl: 30, LatBaseDRAM: 20, LatQueue: 80})
	b := Diagnose(bw, hiQ, geoT())
	if len(b) == 0 || !strings.Contains(b[0].Action, "interleaving") {
		t.Errorf("high-queue advice = %v, want interleaving remedy (paper §V)", b)
	}
}

func TestDiagnosePreActAndConstraints(t *testing.T) {
	bw := mkBW(t, map[BWComponent]float64{
		BWPrecharge:   0.1,
		BWActivate:    0.1,
		BWConstraints: 0.2,
	})
	lat := mkLat(map[LatComponent]float64{LatBaseCtrl: 30, LatPreAct: 26})
	advice := Diagnose(bw, lat, geoT())
	if len(advice) != 2 {
		t.Fatalf("advice = %v, want 2 findings", advice)
	}
	// Sorted by share: pre/act (0.2) and constraints (0.2); accept either
	// order but both must be present.
	seen := map[string]bool{}
	for _, a := range advice {
		seen[a.Component] = true
	}
	if !seen["pre/act"] || !seen["constraints"] {
		t.Errorf("advice components = %v", advice)
	}
}

func TestDiagnoseWriteburst(t *testing.T) {
	bw := mkBW(t, nil) // all read: no bandwidth finding
	lat := mkLat(map[LatComponent]float64{
		LatBaseCtrl: 30, LatBaseDRAM: 20, LatWriteBurst: 25, LatQueue: 10,
	})
	advice := Diagnose(bw, lat, geoT())
	found := false
	for _, a := range advice {
		if a.Component == "writeburst" && strings.Contains(a.Action, "write queue") {
			found = true
		}
	}
	if !found {
		t.Errorf("advice = %v, want a writeburst finding", advice)
	}
}

func TestDiagnoseSaturatedIsQuiet(t *testing.T) {
	// 95% read + refresh: nothing actionable.
	bw := mkBW(t, map[BWComponent]float64{BWRefresh: 0.05})
	lat := mkLat(map[LatComponent]float64{LatBaseCtrl: 30, LatBaseDRAM: 20, LatQueue: 100})
	if advice := Diagnose(bw, lat, geoT()); len(advice) != 0 {
		t.Errorf("saturated stack produced advice: %v", advice)
	}
	if advice := Diagnose(BandwidthStack{}, lat, geoT()); advice != nil {
		t.Error("empty stack produced advice")
	}
}

func TestDiagnoseSortedByShare(t *testing.T) {
	bw := mkBW(t, map[BWComponent]float64{BWIdle: 0.15, BWBankIdle: 0.4, BWConstraints: 0.2})
	lat := mkLat(map[LatComponent]float64{LatBaseCtrl: 30, LatQueue: 60})
	advice := Diagnose(bw, lat, geoT())
	for i := 1; i < len(advice); i++ {
		if advice[i].Share > advice[i-1].Share {
			t.Errorf("advice not sorted: %v", advice)
		}
	}
	if advice[0].Component != "bank_idle" {
		t.Errorf("largest finding = %v, want bank_idle", advice[0])
	}
	if s := advice[0].String(); !strings.Contains(s, "bank_idle") || !strings.Contains(s, "%") {
		t.Errorf("String() = %q", s)
	}
}
