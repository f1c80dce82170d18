// Package extrapolate implements the paper's §VIII-B bandwidth-usage
// extrapolation: predicting the bandwidth an application will achieve at
// a higher core count from a low-core-count run.
//
// The naive method scales achieved bandwidth linearly and saturates at
// the peak (minus refresh). The stack-based method scales every non-idle
// bandwidth-stack component except refresh — if traffic grows, time spent
// precharging/activating and blocked on constraints grows with it — and,
// when the scaled total exceeds the peak, renormalizes the whole stack
// back to the peak, which shrinks the achieved read+write share. The
// paper reports a 27% mean error for the naive method versus 8% for the
// stack-based method on the GAP benchmarks (Fig. 9).
package extrapolate

import (
	"fmt"

	"dramstacks/internal/dram"
	"dramstacks/internal/stacks"
)

// Naive scales the achieved bandwidth by factor, saturating at the peak
// bandwidth minus the refresh share. Inputs and output are GB/s.
func Naive(achievedGBs float64, factor float64, geo dram.Geometry, refreshGBs float64) float64 {
	cap := geo.PeakBandwidthGBs() - refreshGBs
	if v := achievedGBs * factor; v < cap {
		return v
	}
	return cap
}

// Stack extrapolates a bandwidth stack to factor × the traffic and
// returns the predicted achieved (read+write) bandwidth in GB/s,
// together with the scaled stack (renormalized to the peak when the
// non-idle components overflow it).
func Stack(s stacks.BandwidthStack, factor float64, geo dram.Geometry) (float64, [stacks.NumBWComponents]float64) {
	g := s.GBps(geo)
	peak := geo.PeakBandwidthGBs()

	var scaled [stacks.NumBWComponents]float64
	var busy float64
	for c := stacks.BWComponent(0); c < stacks.NumBWComponents; c++ {
		switch c {
		case stacks.BWIdle, stacks.BWBankIdle:
			scaled[c] = 0 // idleness shrinks as traffic grows
		case stacks.BWRefresh:
			scaled[c] = g[c] // refresh rate is constant
			busy += scaled[c]
		default:
			scaled[c] = float64(g[c] * factor) // unfused with busy (tools/nofma.sh)
			busy += scaled[c]
		}
	}
	if busy > peak {
		// Bandwidth bound: refresh stays physically constant; shrink the
		// scaled components proportionally into the remaining headroom
		// so the stack sums to the peak again.
		ref := scaled[stacks.BWRefresh]
		ratio := (peak - ref) / (busy - ref)
		for c := range scaled {
			if stacks.BWComponent(c) != stacks.BWRefresh {
				scaled[c] *= ratio
			}
		}
	} else {
		// Whatever headroom remains is idle time at the new core count.
		scaled[stacks.BWIdle] = peak - busy
	}
	return scaled[stacks.BWRead] + scaled[stacks.BWWrite], scaled
}

// StackSamples applies the stack method per through-time sample and
// aggregates, which the paper does because bandwidth (and therefore
// scaling headroom) varies across phases. Samples are weighted by their
// cycle counts.
func StackSamples(samples []stacks.Sample, factor float64, geo dram.Geometry) float64 {
	var sum, cycles float64
	for _, sm := range samples {
		if sm.BW.TotalCycles <= 0 {
			continue
		}
		pred, _ := Stack(sm.BW, factor, geo)
		sum += float64(pred * float64(sm.BW.TotalCycles)) // unfused (tools/nofma.sh)
		cycles += float64(sm.BW.TotalCycles)
	}
	if cycles == 0 {
		return 0
	}
	return sum / cycles
}

// NaiveSamples applies the naive method per sample and aggregates.
func NaiveSamples(samples []stacks.Sample, factor float64, geo dram.Geometry) float64 {
	var sum, cycles float64
	for _, sm := range samples {
		if sm.BW.TotalCycles <= 0 {
			continue
		}
		g := sm.BW.GBps(geo)
		pred := Naive(g[stacks.BWRead]+g[stacks.BWWrite], factor, geo, g[stacks.BWRefresh])
		sum += float64(pred * float64(sm.BW.TotalCycles)) // unfused (tools/nofma.sh)
		cycles += float64(sm.BW.TotalCycles)
	}
	if cycles == 0 {
		return 0
	}
	return sum / cycles
}

// Predict applies both methods to the sampled base run at the given
// traffic factor and pairs the predictions with a measured value — one
// row of the paper's Fig. 9, used by the sweep engine when a sweep
// varies core counts.
func Predict(name string, baseSamples []stacks.Sample, factor float64, geo dram.Geometry, measured float64) Prediction {
	return Prediction{
		Name:     name,
		Measured: measured,
		Naive:    NaiveSamples(baseSamples, factor, geo),
		Stack:    StackSamples(baseSamples, factor, geo),
	}
}

// Prediction compares both methods against a measured value.
type Prediction struct {
	Name     string
	Measured float64
	Naive    float64
	Stack    float64
}

// NaiveErr returns the naive method's relative error.
func (p Prediction) NaiveErr() float64 { return relErr(p.Naive, p.Measured) }

// StackErr returns the stack method's relative error.
func (p Prediction) StackErr() float64 { return relErr(p.Stack, p.Measured) }

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

// MeanErrors returns the mean relative errors of both methods over a set
// of predictions (the paper's 27% vs 8% summary numbers).
func MeanErrors(ps []Prediction) (naive, stack float64, err error) {
	if len(ps) == 0 {
		return 0, 0, fmt.Errorf("extrapolate: no predictions")
	}
	for _, p := range ps {
		naive += p.NaiveErr()
		stack += p.StackErr()
	}
	n := float64(len(ps))
	return naive / n, stack / n, nil
}
