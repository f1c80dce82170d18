// Package cyclestack implements CPI / cycle stacks for the core model, in
// the style the paper builds on (Eyerman et al.): every core cycle is
// attributed to the component that kept the core from committing work.
// The paper's Fig. 7 plots these through time next to the DRAM bandwidth
// and latency stacks, with DRAM stall time split into dram-latency
// (intrinsic access time) and dram-queue (queueing-related) using the
// per-request DRAM latency stacks.
package cyclestack

import "fmt"

// Component enumerates the cycle stack components used in Fig. 7.
type Component uint8

const (
	// Base is committed work: cycles in which the core retired at least
	// one instruction.
	Base Component = iota
	// Branch is time lost refilling the pipeline after branch
	// mispredictions.
	Branch
	// Dcache is stall time on loads served by the cache hierarchy
	// (L2/LLC hits).
	Dcache
	// DramLatency is stall time on DRAM loads attributable to the
	// intrinsic access latency (base + page pre/act).
	DramLatency
	// DramQueue is stall time on DRAM loads attributable to queueing
	// (queue + write bursts + refresh interference).
	DramQueue
	// Idle is cycles with no work at all (thread finished or starved).
	Idle
	// DramRegulated is stall time on DRAM loads attributable to QoS
	// bandwidth regulation (the request was held because its source was
	// over budget). Always exactly zero without a QoS policy.
	DramRegulated

	// NumComponents is the number of cycle stack components.
	NumComponents
)

// String returns the label used in the paper's Fig. 7.
func (c Component) String() string {
	switch c {
	case Base:
		return "base"
	case Branch:
		return "branch"
	case Dcache:
		return "dcache"
	case DramLatency:
		return "dram-latency"
	case DramQueue:
		return "dram-queue"
	case Idle:
		return "idle"
	case DramRegulated:
		return "dram-regulated"
	default:
		return fmt.Sprintf("Component(%d)", uint8(c))
	}
}

// Accountant accumulates one core's cycle stack. Whole cycles are added
// with AddCycle; deferred DRAM stall redistributions use Add with
// fractional amounts (the total stays consistent because the fractions of
// one stall sum to the stalled cycles).
type Accountant struct {
	cycles [NumComponents]float64
	total  int64
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// AddCycle attributes one full cycle to component c.
func (a *Accountant) AddCycle(c Component) {
	a.cycles[c]++
	a.total++
}

// AddCycles attributes n full cycles to component c in closed form.
// Component totals are whole-valued float64s well below 2^53, so this is
// bit-identical to n AddCycle calls — required for fast-forwarded runs
// to reproduce per-cycle results byte-for-byte.
func (a *Accountant) AddCycles(c Component, n int64) {
	a.cycles[c] += float64(n)
	a.total += n
}

// Add attributes a fractional number of cycles to c without advancing the
// total; use in pairs that sum to previously counted whole cycles.
// Callers pass products (a stall times a fraction): the conversion rounds
// the product before the sum, so no architecture fuses the two into one
// multiply-add (tools/nofma.sh).
func (a *Accountant) Add(c Component, cycles float64) {
	a.cycles[c] += float64(cycles)
}

// AddTotal advances the total cycle count by n without attributing; used
// with Add when a stall's split is known only later.
func (a *Accountant) AddTotal(n int64) { a.total += n }

// Stack returns the accumulated stack.
func (a *Accountant) Stack() Stack {
	return Stack{Cycles: a.cycles, Total: a.total}
}

// Stack is a completed cycle stack: per-component CPU cycles.
type Stack struct {
	Cycles [NumComponents]float64
	Total  int64
}

// Sub returns the stack covering the interval between snapshot old and s.
func (s Stack) Sub(old Stack) Stack {
	d := Stack{Total: s.Total - old.Total}
	for c := range s.Cycles {
		d.Cycles[c] = s.Cycles[c] - old.Cycles[c]
	}
	return d
}

// Add accumulates another core's stack into s.
func (s *Stack) Add(o Stack) {
	s.Total += o.Total
	for c := range s.Cycles {
		s.Cycles[c] += o.Cycles[c]
	}
}

// Fractions returns each component as a fraction of total cycles.
func (s Stack) Fractions() [NumComponents]float64 {
	var out [NumComponents]float64
	if s.Total == 0 {
		return out
	}
	for c := range s.Cycles {
		out[c] = s.Cycles[c] / float64(s.Total)
	}
	return out
}

// CheckSum verifies that components sum to the total cycle count.
func (s Stack) CheckSum() error {
	var sum float64
	for _, v := range s.Cycles {
		if v < -1e-6 {
			return fmt.Errorf("cyclestack: negative component in %+v", s.Cycles)
		}
		sum += v
	}
	tol := float64(1e-6*float64(s.Total)) + 1e-6 // unfused (tools/nofma.sh)
	if d := sum - float64(s.Total); d > tol || d < -tol {
		return fmt.Errorf("cyclestack: components sum to %.3f, want %d", sum, s.Total)
	}
	return nil
}
