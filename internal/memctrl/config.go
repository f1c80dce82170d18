// Package memctrl implements the memory controller of one DRAM channel:
// a DDR4, DDR5 or LPDDR5 channel or an HBM2 pseudo-channel, whichever
// standard's dram.Device it drives. It keeps read and write queues,
// schedules FR-FCFS, drains a write buffer in bursts between high and
// low watermarks, applies open- and closed-page policies and manages
// refresh. While scheduling, it feeds the bandwidth- and latency-stack
// accountants of package stacks with the per-cycle channel state and
// per-read latency decompositions the paper's accounting mechanism
// requires (paper §IV, §V).
package memctrl

import (
	"fmt"

	"dramstacks/internal/qos"
)

// PagePolicy selects when the controller closes DRAM pages.
type PagePolicy uint8

const (
	// OpenPage keeps a row open until a conflicting request needs the
	// bank (maximizes page hits for local streams).
	OpenPage PagePolicy = iota
	// ClosedPage precharges a page as soon as no queued request targets
	// it anymore, using auto-precharge column commands (avoids the
	// precharge latency on the next, likely conflicting, access).
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == ClosedPage {
		return "closed"
	}
	return "open"
}

// Scheduler selects the request scheduling policy.
type Scheduler uint8

const (
	// FRFCFS is first-ready, first-come-first-served (the paper's
	// policy). The full tie-break order, audited for the QoS priority
	// tier, is:
	//
	//  1. Priority tier (only with a QoS policy that has real-time
	//     sources): requests from RT sources — plus any request older
	//     than the aging bound, whatever its source — are scheduled
	//     before every other request, running the complete
	//     column/activate/precharge ladder below among themselves first.
	//     The aging promotion is the starvation fix: without it a
	//     low-priority ready row hit can be deferred indefinitely by an
	//     unbroken stream of high-priority misses, because every RT
	//     activate/precharge outranks the waiting column command. Once
	//     the hit's age crosses qos.Config.AgingBound it joins the top
	//     tier and wins by arrival order.
	//  2. Ready column commands (row hits) before activates before
	//     precharges — "first ready": a young row hit overtakes an older
	//     request that still needs its page opened.
	//  3. Oldest arrival within each class.
	//
	// Two standing exceptions: a precharge never closes a row that still
	// has queued same-direction hits in its own tier or above (a held or
	// lower-tier hit does not preserve a row against the priority tier),
	// and requests held by QoS bandwidth regulation are invisible to the
	// scheduler entirely — they take no part in any tie-break and cannot
	// block a bank.
	FRFCFS Scheduler = iota
	// FCFS serves strictly in arrival order; the scheduler only works
	// on the oldest request per bank. Exposed as a scheduling ablation
	// (row hits lose their priority, page hit rates drop under mixes).
	FCFS
)

// String names the policy.
func (s Scheduler) String() string {
	if s == FCFS {
		return "fcfs"
	}
	return "fr-fcfs"
}

// Config parameterizes a Controller.
type Config struct {
	// Policy is the page policy (default open, per the paper's §VII).
	Policy PagePolicy

	// Sched is the scheduling policy (default FR-FCFS, as in the paper).
	Sched Scheduler

	// ReadQueueCap bounds the read queue; Enqueue fails when full,
	// providing back pressure to the cache hierarchy.
	ReadQueueCap int

	// WriteQueueCap bounds the write buffer (paper default 32; the
	// Fig. 8 "wq128" variant uses 128), at most MaxWriteQueueCap.
	WriteQueueCap int

	// WriteHi and WriteLo are the drain watermarks: when the write
	// buffer reaches WriteHi entries the controller bursts writes until
	// it falls to WriteLo.
	WriteHi, WriteLo int

	// ClosedKeepOpen is the number of other queued same-row requests
	// required for the closed page policy to keep a page open instead of
	// auto-precharging (paper: a page closes "as soon as there are no
	// pending accesses to that page anymore"). 1 is the literal paper
	// rule; higher values close pages more eagerly, which matches the
	// behavior the paper's own controller exhibits on bursty prefetched
	// streams.
	ClosedKeepOpen int

	// FlatConstraints disables the scope widening of the bandwidth
	// stack's constraints attribution: normally a bank blocked by a
	// bank-group constraint (tCCD_L) charges its whole group and a rank
	// constraint (tFAW, turnaround) its whole rank; with FlatConstraints
	// only the blocked bank itself is charged and the sibling banks
	// count as bank-idle. Exposed as an accounting ablation.
	FlatConstraints bool

	// CtrlLatency is the fixed pipeline latency, in memory cycles, the
	// controller adds to every request (request path + response path).
	// It is the latency stack's base-cntlr component.
	CtrlLatency int

	// SampleInterval, when positive, cuts a through-time stack sample
	// every so many memory cycles.
	SampleInterval int64

	// Recycle, when true, returns completed *Request objects to an
	// internal freelist so steady-state operation allocates nothing per
	// request. A caller that opts in must not retain a *Request after
	// its OnComplete callback returns (the object may be reused for a
	// later request). The simulator's hot loop opts in; external users
	// of the package API get stable requests by default.
	Recycle bool

	// QoS, when enabled, activates multi-tenant quality of service:
	// per-source bandwidth budgets over a regulation window (reads from
	// an over-budget source are held, not scheduled; column commands of
	// both directions consume budget) and a real-time priority tier
	// layered on FR-FCFS with an aging bound against starvation. The
	// zero value leaves scheduling and accounting byte-identical to a
	// controller without the feature. Budgets are enforced per channel:
	// each controller meters its own window independently.
	QoS qos.Config
}

// MaxWriteQueueCap is the largest write buffer a controller accepts, 32
// times the paper's wq128 variant. A controller indexes its queued writes
// in a table sized from the capacity when it is built, 32 bytes a write
// at this bound. Config.Validate's and exp.Spec.Validate's messages spell
// the number out; their tests check that it is this one.
const MaxWriteQueueCap = 4096

// DefaultConfig returns the paper's controller configuration: FR-FCFS,
// open page, a 32-entry write buffer.
func DefaultConfig() Config {
	return Config{
		Policy:         OpenPage,
		ReadQueueCap:   64,
		WriteQueueCap:  32,
		WriteHi:        24,
		WriteLo:        8,
		ClosedKeepOpen: 5,
		CtrlLatency:    30,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.ReadQueueCap <= 0:
		return fmt.Errorf("memctrl: read queue capacity must be positive, got %d", c.ReadQueueCap)
	case uint(c.WriteQueueCap-1) >= MaxWriteQueueCap: // 1..MaxWriteQueueCap
		return fmt.Errorf("memctrl: write queue capacity must be in 1..4096, got %d", c.WriteQueueCap)
	case c.WriteHi <= c.WriteLo:
		return fmt.Errorf("memctrl: write high watermark %d must exceed low watermark %d", c.WriteHi, c.WriteLo)
	case c.WriteHi > c.WriteQueueCap:
		return fmt.Errorf("memctrl: write high watermark %d exceeds capacity %d", c.WriteHi, c.WriteQueueCap)
	case c.WriteLo < 0:
		return fmt.Errorf("memctrl: write low watermark %d must be non-negative", c.WriteLo)
	case c.CtrlLatency < 0:
		return fmt.Errorf("memctrl: controller latency %d must be non-negative", c.CtrlLatency)
	case c.ClosedKeepOpen < 1:
		return fmt.Errorf("memctrl: ClosedKeepOpen must be at least 1, got %d", c.ClosedKeepOpen)
	}
	return c.QoS.Validate()
}
