package exp

import (
	"testing"

	"dramstacks/internal/extrapolate"
)

// TestExtrapolationFactorSweep validates the stack-based method beyond
// the paper's 1→8 setting: predictions from a 1-core run for 2 and 4
// cores must track the measured bandwidth and beat or match the naive
// method while any scaling headroom remains.
func TestExtrapolationFactorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("extrapolation sweep skipped in -short")
	}
	budget := int64(250_000)
	run := func(cores int) ( /*measured*/ float64, []float64) {
		res := runSpec(t, Spec{Workload: "random", Cores: cores, Budget: budget, Sample: budget / 8})
		var preds []float64
		geo := res.Cfg.Geom
		for _, f := range []float64{2, 4} {
			preds = append(preds, extrapolate.StackSamples(res.BWSamples, f, geo))
		}
		return res.AchievedGBps(), preds
	}

	base, preds := run(1)
	if base <= 0 {
		t.Fatal("1-core run achieved nothing")
	}
	for i, cores := range []int{2, 4} {
		measured, _ := run(cores)
		pred := preds[i]
		err := relErr(pred, measured)
		t.Logf("random 1c->%dc: measured %.2f, stack %.2f (%.1f%% error)",
			cores, measured, pred, 100*err)
		if err > 0.30 {
			t.Errorf("1c->%dc stack prediction off by %.1f%% (measured %.2f, predicted %.2f)",
				cores, 100*err, measured, pred)
		}
	}
}

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	e := (pred - meas) / meas
	if e < 0 {
		return -e
	}
	return e
}

// TestNaiveVsStackOnSaturatingWorkload: for a workload that saturates
// (sequential at 8 cores), the naive method predicts the refresh-capped
// peak while the stack method accounts for constraint growth and lands
// lower — the paper's central argument.
func TestNaiveVsStackOnSaturatingWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("extrapolation test skipped in -short")
	}
	budget := int64(250_000)
	one := runSpec(t, Spec{Workload: "seq", Budget: budget, Sample: budget / 8})
	eight := runSpec(t, Spec{Workload: "seq", Cores: 8, Budget: budget})
	geo := one.Cfg.Geom
	naive := extrapolate.NaiveSamples(one.BWSamples, 8, geo)
	stack := extrapolate.StackSamples(one.BWSamples, 8, geo)
	measured := eight.AchievedGBps()

	if stack > naive+1e-9 {
		t.Errorf("stack %.2f above naive %.2f", stack, naive)
	}
	if se, ne := relErr(stack, measured), relErr(naive, measured); se > ne+0.02 {
		t.Errorf("stack error %.1f%% worse than naive %.1f%% on the saturating case",
			100*se, 100*ne)
	}
	t.Logf("seq 1c->8c: measured %.2f, naive %.2f, stack %.2f",
		measured, naive, stack)
}
