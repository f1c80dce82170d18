package extrapolate

import (
	"math"
	"testing"
	"testing/quick"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
)

func geo() dram.Geometry {
	return standard.Default().Geometry
}

// mkStack builds a bandwidth stack from GB/s component values.
func mkStack(t *testing.T, gbps map[stacks.BWComponent]float64) stacks.BandwidthStack {
	t.Helper()
	g := geo()
	total := int64(1_000_000)
	s := stacks.BandwidthStack{Banks: g.TotalBanks(), TotalCycles: total}
	var sum float64
	for c, v := range gbps {
		s.Cycles[c] = v / g.PeakBandwidthGBs() * float64(total)
		sum += v
	}
	s.Cycles[stacks.BWIdle] += (g.PeakBandwidthGBs() - sum) / g.PeakBandwidthGBs() * float64(total)
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNaiveSaturates(t *testing.T) {
	g := geo()
	if got := Naive(2, 4, g, 0.9); math.Abs(got-8) > 1e-12 {
		t.Errorf("naive below cap = %v, want 8", got)
	}
	if got := Naive(4, 8, g, 0.9); math.Abs(got-(19.2-0.9)) > 1e-12 {
		t.Errorf("naive above cap = %v, want %v", got, 19.2-0.9)
	}
}

func TestStackUnconstrainedScalesLinearly(t *testing.T) {
	s := mkStack(t, map[stacks.BWComponent]float64{
		stacks.BWRead:    1.5,
		stacks.BWWrite:   0.5,
		stacks.BWRefresh: 0.9,
	})
	pred, scaled := Stack(s, 4, geo())
	if math.Abs(pred-8) > 1e-9 {
		t.Errorf("prediction = %v, want 8 (4× read+write)", pred)
	}
	// Stack still sums to the peak.
	var sum float64
	for _, v := range scaled {
		sum += v
	}
	if math.Abs(sum-geo().PeakBandwidthGBs()) > 1e-9 {
		t.Errorf("scaled stack sums to %v, want peak", sum)
	}
	if math.Abs(scaled[stacks.BWRefresh]-0.9) > 1e-9 {
		t.Errorf("refresh scaled to %v, want constant 0.9", scaled[stacks.BWRefresh])
	}
}

// TestStackBoundPrediction reproduces the key property: when the scaled
// non-idle components exceed the peak, the prediction falls below the
// naive saturation point because pre/act and constraints grow with
// traffic and crowd out data transfers.
func TestStackBoundPrediction(t *testing.T) {
	s := mkStack(t, map[stacks.BWComponent]float64{
		stacks.BWRead:        2.0,
		stacks.BWPrecharge:   1.0,
		stacks.BWActivate:    1.0,
		stacks.BWConstraints: 0.5,
		stacks.BWRefresh:     0.9,
	})
	pred, scaled := Stack(s, 8, geo())
	naive := Naive(2.0, 8, geo(), 0.9)
	if pred >= naive {
		t.Errorf("stack prediction %v should be below naive %v (overheads scale too)", pred, naive)
	}
	var sum float64
	for _, v := range scaled {
		sum += v
	}
	if math.Abs(sum-geo().PeakBandwidthGBs()) > 1e-9 {
		t.Errorf("bound stack sums to %v, want peak", sum)
	}
	if scaled[stacks.BWIdle] != 0 {
		t.Errorf("bound stack has idle %v, want 0", scaled[stacks.BWIdle])
	}
	// Exact value: scaled non-refresh busy = (2+1+1+0.5)*8 = 36 squeezed
	// into the 19.2-0.9 headroom left by the constant refresh share.
	want := 16.0 * (19.2 - 0.9) / 36.0
	if math.Abs(pred-want) > 1e-9 {
		t.Errorf("prediction = %v, want %v", pred, want)
	}
}

func TestStackNeverExceedsPeakProperty(t *testing.T) {
	g := geo()
	f := func(read, write, pre, act, cons uint8, factor uint8) bool {
		total := float64(read) + float64(write) + float64(pre) + float64(act) + float64(cons)
		if total == 0 {
			return true
		}
		norm := g.PeakBandwidthGBs() / total * 0.9
		s := stacks.BandwidthStack{Banks: 16, TotalCycles: 1000}
		vals := []float64{float64(read) * norm, float64(write) * norm,
			float64(pre) * norm, float64(act) * norm, float64(cons) * norm}
		comps := []stacks.BWComponent{stacks.BWRead, stacks.BWWrite,
			stacks.BWPrecharge, stacks.BWActivate, stacks.BWConstraints}
		var used float64
		for i, c := range comps {
			s.Cycles[c] = vals[i] / g.PeakBandwidthGBs() * 1000
			used += s.Cycles[c]
		}
		s.Cycles[stacks.BWIdle] = 1000 - used
		pred, scaled := Stack(s, float64(factor%16)+1, g)
		var sum float64
		for _, v := range scaled {
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		return pred <= g.PeakBandwidthGBs()+1e-9 &&
			math.Abs(sum-g.PeakBandwidthGBs()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSampleAggregation(t *testing.T) {
	g := geo()
	lo := mkStack(t, map[stacks.BWComponent]float64{stacks.BWRead: 1, stacks.BWRefresh: 0.9})
	hi := mkStack(t, map[stacks.BWComponent]float64{stacks.BWRead: 10, stacks.BWRefresh: 0.9})
	samples := []stacks.Sample{{BW: lo}, {BW: hi}}
	pred := StackSamples(samples, 8, g)
	// Low phase scales 1→8 freely; high phase saturates at 18.3.
	want := (8.0 + 18.3) / 2
	if math.Abs(pred-want) > 1e-9 {
		t.Errorf("per-sample stack prediction = %v, want %v", pred, want)
	}
	nv := NaiveSamples(samples, 8, g)
	if math.Abs(nv-want) > 1e-9 { // same here: no overhead components
		t.Errorf("per-sample naive prediction = %v, want %v", nv, want)
	}
}

func TestPredictionErrors(t *testing.T) {
	p := Prediction{Measured: 10, Naive: 14, Stack: 11}
	if math.Abs(p.NaiveErr()-0.4) > 1e-12 || math.Abs(p.StackErr()-0.1) > 1e-12 {
		t.Errorf("errors = %v/%v, want 0.4/0.1", p.NaiveErr(), p.StackErr())
	}
	n, s, err := MeanErrors([]Prediction{p, {Measured: 10, Naive: 10, Stack: 10}})
	if err != nil || math.Abs(n-0.2) > 1e-12 || math.Abs(s-0.05) > 1e-12 {
		t.Errorf("mean errors = %v/%v (%v)", n, s, err)
	}
	if _, _, err := MeanErrors(nil); err == nil {
		t.Error("empty prediction set accepted")
	}
}
