package power

import (
	"math"
	"strings"
	"testing"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

func geo() dram.Geometry {
	return standard.Default().Geometry
}

func TestEstimateArithmetic(t *testing.T) {
	m := Model{ActPreNJ: 2, ReadNJ: 1, WriteNJ: 1.5, RefreshNJ: 100, BackgroundMW: 60}
	stats := dram.Stats{ACT: 10, RD: 100, WR: 20, REF: 2}
	// 1.2M cycles at 1.2 GHz = 1 ms.
	rep, err := m.Estimate(stats, 1_200_000, geo())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActPreNJ != 20 || rep.ReadNJ != 100 || rep.WriteNJ != 30 || rep.RefreshNJ != 200 {
		t.Errorf("command energies wrong: %+v", rep)
	}
	// Background: 60 mW × 1 ms = 60 µJ = 60000 nJ.
	if math.Abs(rep.BackgroundNJ-60000) > 1e-6 {
		t.Errorf("background = %v nJ, want 60000", rep.BackgroundNJ)
	}
	wantTotal := 20.0 + 100 + 30 + 200 + 60000
	if math.Abs(rep.TotalNJ-wantTotal) > 1e-6 {
		t.Errorf("total = %v, want %v", rep.TotalNJ, wantTotal)
	}
	// Average power: 60.35 µJ over 1 ms ≈ 60.35 mW.
	if math.Abs(rep.AvgPowerW-wantTotal*1e-9/1e-3) > 1e-9 {
		t.Errorf("avg power = %v W", rep.AvgPowerW)
	}
	// 120 bursts × 64 B × 8 = 61440 bits.
	wantPJ := wantTotal * 1e3 / 61440
	if math.Abs(rep.EnergyPerBitPJ-wantPJ) > 1e-9 {
		t.Errorf("energy/bit = %v pJ, want %v", rep.EnergyPerBitPJ, wantPJ)
	}
}

func TestEstimateZeroes(t *testing.T) {
	rep, err := DDR4().Estimate(dram.Stats{}, 0, geo())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNJ != 0 || rep.AvgPowerW != 0 || rep.EnergyPerBitPJ != 0 {
		t.Errorf("zero run not zero: %+v", rep)
	}
}

func TestEstimateRejectsBad(t *testing.T) {
	if _, err := (Model{ActPreNJ: -1}).Estimate(dram.Stats{}, 10, geo()); err == nil {
		t.Error("negative energy accepted")
	}
	if _, err := DDR4().Estimate(dram.Stats{}, -1, geo()); err == nil {
		t.Error("negative cycles accepted")
	}
}

func TestDualRankBackgroundDoubles(t *testing.T) {
	g2 := standard.MustLookup("ddr4-2400-2r").Geometry
	one, _ := DDR4().Estimate(dram.Stats{}, 1_200_000, geo())
	two, _ := DDR4().Estimate(dram.Stats{}, 1_200_000, g2)
	if math.Abs(two.BackgroundNJ-2*one.BackgroundNJ) > 1e-6 {
		t.Errorf("dual-rank background = %v, want double %v", two.BackgroundNJ, one.BackgroundNJ)
	}
}

func TestReportString(t *testing.T) {
	rep, _ := DDR4().Estimate(dram.Stats{ACT: 1000, RD: 5000, WR: 1000, REF: 10}, 500_000, geo())
	s := rep.String()
	for _, want := range []string{"µJ", "pJ/bit", "act/pre", "background"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

// TestRandomVsSequentialEnergyShape: a page-miss-heavy run spends a much
// larger energy share on activations than a page-hit-heavy run with the
// same data volume.
func TestRandomVsSequentialEnergyShape(t *testing.T) {
	m := DDR4()
	seq := dram.Stats{ACT: 100, RD: 10000} // 1 ACT per 100 reads
	rnd := dram.Stats{ACT: 10000, RD: 10000, PRE: 10000}
	repSeq, _ := m.Estimate(seq, 1_000_000, geo())
	repRnd, _ := m.Estimate(rnd, 1_000_000, geo())
	seqShare := repSeq.ActPreNJ / repSeq.TotalNJ
	rndShare := repRnd.ActPreNJ / repRnd.TotalNJ
	if rndShare < 4*seqShare {
		t.Errorf("activation energy share: random %v vs sequential %v, want ≫", rndShare, seqShare)
	}
	if repRnd.EnergyPerBitPJ <= repSeq.EnergyPerBitPJ {
		t.Error("random pattern should cost more energy per bit")
	}
}
