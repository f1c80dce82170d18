// Package stacks implements the paper's contribution: DRAM bandwidth
// stacks and latency stacks.
//
// A bandwidth stack attributes every memory-channel cycle to exactly one
// cause, so the components sum to total time (equivalently, to the peak
// bandwidth once scaled). The accounting is hierarchical to avoid double
// counting (paper §IV), with the most meaningful cause taking priority:
//
//  1. read / write — data is on the bus: achieved bandwidth.
//  2. refresh — the rank is inside tRFC of a refresh.
//  3. precharge / activate / bank-idle / (per-bank) constraints — at least
//     one bank is busy opening or closing a page, or is blocked from
//     issuing by a timing constraint. The cycle is split 1/n over all n
//     banks: busy banks to their command's component, blocked banks to
//     constraints, idle banks to bank-idle (the bandwidth that bank-level
//     parallelism could have recovered).
//  4. constraints — all banks are quiet but a pending request is blocked
//     by a channel/rank-level timing constraint (bus turnaround, tCCD,
//     tFAW, ...): the whole cycle is lost to constraints.
//  5. idle — no request is pending: the DRAM chip is idle.
//
// A latency stack decomposes the average latency of DRAM read requests
// into base (uncontended controller + device time), pre/act (page-miss
// penalty of the request itself), refresh and writeburst (time blocked
// behind a refresh or a write-buffer drain) and queue (everything else).
package stacks

import (
	"fmt"
	"math/bits"

	"dramstacks/internal/dram"
)

// BWComponent enumerates the bandwidth stack components, bottom (useful
// bandwidth) to top (chip idle) in the paper's plotting order.
type BWComponent uint8

const (
	// BWRead is achieved read bandwidth (read data on the bus).
	BWRead BWComponent = iota
	// BWWrite is achieved write bandwidth (write data on the bus).
	BWWrite
	// BWRefresh is bandwidth lost to DRAM refresh (tRFC windows).
	BWRefresh
	// BWPrecharge is bandwidth lost while banks precharge (close pages).
	BWPrecharge
	// BWActivate is bandwidth lost while banks activate (open pages).
	BWActivate
	// BWConstraints is bandwidth lost to DRAM timing constraints
	// (tCCD, tRRD, tFAW, bus turnaround, write-to-read, ...).
	BWConstraints
	// BWBankIdle is bandwidth lost because some banks sat idle while
	// others were busy: unexploited bank-level parallelism.
	BWBankIdle
	// BWIdle is bandwidth lost because the whole chip had nothing to do:
	// the cores did not supply enough requests.
	BWIdle
	// BWRegulation is bandwidth lost to QoS bandwidth regulation: requests
	// were pending but every one of them was held by its source's budget,
	// so the controller deliberately left the channel unused. Without a QoS
	// policy this component is always exactly zero.
	BWRegulation

	// NumBWComponents is the number of bandwidth stack components.
	NumBWComponents
)

// String returns the component label used in the paper's figures.
func (c BWComponent) String() string {
	switch c {
	case BWRead:
		return "read"
	case BWWrite:
		return "write"
	case BWRefresh:
		return "refresh"
	case BWPrecharge:
		return "precharge"
	case BWActivate:
		return "activate"
	case BWConstraints:
		return "constraints"
	case BWBankIdle:
		return "bank_idle"
	case BWIdle:
		return "idle"
	case BWRegulation:
		return "regulation"
	default:
		return fmt.Sprintf("BWComponent(%d)", uint8(c))
	}
}

// CycleView is the per-cycle summary of the DRAM channel state that the
// memory controller hands to the accountant. Masks are per-bank bitmasks
// over all banks of the channel.
type CycleView struct {
	// Data reports what the data bus carries this cycle.
	Data dram.DataKind
	// Refreshing reports whether any rank is inside tRFC.
	Refreshing bool
	// PreMask marks banks executing a precharge.
	PreMask uint64
	// ActMask marks banks executing an activate.
	ActMask uint64
	// BlockedMask marks banks whose oldest pending request is blocked
	// from issuing its next command by a timing constraint.
	BlockedMask uint64
	// Pending reports whether any request is waiting for commands.
	// Requests held by QoS regulation do not count as pending: a cycle
	// where every waiting request is held is a regulation cycle, not a
	// constraints cycle.
	Pending bool
	// ChannelBlocked reports that a pending request is blocked by a
	// channel- or rank-level constraint while every bank is quiet.
	ChannelBlocked bool
	// Regulated reports that at least one request is waiting but every
	// waiting request is held by QoS bandwidth regulation, with the banks
	// and the bus otherwise quiet. Always false without a QoS policy.
	Regulated bool
	// DataSource is the source of the request whose data is on the bus
	// this cycle (SourceShared if unattributed). Only consulted when
	// per-source tracking is enabled.
	DataSource int
	// RegSource is the source of the oldest held request on a Regulated
	// cycle (SourceShared if unattributed). Only consulted when
	// per-source tracking is enabled.
	RegSource int
}

// SourceShared identifies the per-source row that collects cycles not
// attributable to any single source (refresh, bank-level activity,
// constraints, idle, and data moved for unattributed requests).
const SourceShared = -1

// BandwidthAccountant accumulates a bandwidth stack cycle by cycle.
// The zero value is invalid; use NewBandwidthAccountant.
type BandwidthAccountant struct {
	banks int

	full   [NumBWComponents]int64 // whole cycles
	shared [NumBWComponents]int64 // 1/banks-cycle shares (paper footnote 1)
	total  int64

	// src, when non-nil, splits the stack per request source: rows
	// 0..n-1 are sources, row n is the SourceShared bucket. Every
	// increment to full/shared above lands in exactly one row, so the
	// rows sum to the aggregate cycle-exactly (integer equality).
	src []SourceStack
}

// EnableSourceTracking makes the accountant additionally attribute
// cycles to n request sources (plus the SourceShared bucket). Data
// cycles go to the request's source, regulation cycles to the held
// request's source; every other component is structurally shared and
// lands in the SourceShared row. Must be called before any accounting.
func (a *BandwidthAccountant) EnableSourceTracking(n int) {
	if n <= 0 {
		panic("stacks: source tracking needs at least one source")
	}
	if a.total != 0 {
		panic("stacks: EnableSourceTracking after accounting started")
	}
	a.src = make([]SourceStack, n+1)
	for i := range a.src {
		a.src[i].Source = i
	}
	a.src[n].Source = SourceShared
}

// srcFull credits one whole cycle of component c to source src's row
// (the SourceShared row when src is out of range). No-op unless
// per-source tracking is enabled.
func (a *BandwidthAccountant) srcFull(src int, c BWComponent) {
	if a.src == nil {
		return
	}
	a.src[a.srcRow(src)].Full[c]++
}

func (a *BandwidthAccountant) srcRow(src int) int {
	if src < 0 || src >= len(a.src)-1 {
		return len(a.src) - 1
	}
	return src
}

// NewBandwidthAccountant returns an accountant for a channel with the
// given number of banks (the n of the 1/n bank split).
func NewBandwidthAccountant(banks int) *BandwidthAccountant {
	if banks <= 0 || banks > 64 {
		panic(fmt.Sprintf("stacks: bank count %d out of range (1..64)", banks))
	}
	return &BandwidthAccountant{banks: banks}
}

// Account classifies one channel cycle. Call exactly once per cycle.
func (a *BandwidthAccountant) Account(v CycleView) {
	a.total++
	switch {
	case v.Data == dram.DataRead:
		a.full[BWRead]++
		a.srcFull(v.DataSource, BWRead)
	case v.Data == dram.DataWrite:
		a.full[BWWrite]++
		a.srcFull(v.DataSource, BWWrite)
	case v.Refreshing:
		a.full[BWRefresh]++
		a.srcFull(SourceShared, BWRefresh)
	case v.PreMask|v.ActMask|v.BlockedMask != 0:
		pre := bits.OnesCount64(v.PreMask)
		// A bank both precharging and activating cannot happen; a bank
		// busy and blocked counts as busy.
		act := bits.OnesCount64(v.ActMask &^ v.PreMask)
		blk := bits.OnesCount64(v.BlockedMask &^ (v.PreMask | v.ActMask))
		a.shared[BWPrecharge] += int64(pre)
		a.shared[BWActivate] += int64(act)
		a.shared[BWConstraints] += int64(blk)
		a.shared[BWBankIdle] += int64(a.banks - pre - act - blk)
		if a.src != nil {
			row := &a.src[len(a.src)-1]
			row.Shared[BWPrecharge] += int64(pre)
			row.Shared[BWActivate] += int64(act)
			row.Shared[BWConstraints] += int64(blk)
			row.Shared[BWBankIdle] += int64(a.banks - pre - act - blk)
		}
	case v.Pending && v.ChannelBlocked:
		a.full[BWConstraints]++
		a.srcFull(SourceShared, BWConstraints)
	case v.Regulated:
		a.full[BWRegulation]++
		a.srcFull(v.RegSource, BWRegulation)
	default:
		a.full[BWIdle]++
		a.srcFull(SourceShared, BWIdle)
	}
}

// AccountIdle classifies n consecutive channel cycles as idle in closed
// form. It is exactly equivalent to n Account calls with a zero
// CycleView (no data, no refresh, no busy or blocked banks, nothing
// pending) — the basis of idle-cycle fast-forwarding.
func (a *BandwidthAccountant) AccountIdle(n int64) {
	a.total += n
	a.full[BWIdle] += n
	if a.src != nil {
		a.src[len(a.src)-1].Full[BWIdle] += n
	}
}

// AccountRefreshing classifies n consecutive channel cycles as refresh
// in closed form. It is exactly equivalent to n Account calls with a
// CycleView carrying no data and Refreshing set — the basis of
// refresh-wait fast-forwarding.
func (a *BandwidthAccountant) AccountRefreshing(n int64) {
	a.total += n
	a.full[BWRefresh] += n
	if a.src != nil {
		a.src[len(a.src)-1].Full[BWRefresh] += n
	}
}

// Stack returns the accumulated bandwidth stack.
func (a *BandwidthAccountant) Stack() BandwidthStack {
	s := BandwidthStack{Banks: a.banks, TotalCycles: a.total}
	for c := BWComponent(0); c < NumBWComponents; c++ {
		s.Cycles[c] = float64(a.full[c]) + float64(a.shared[c])/float64(a.banks)
	}
	return s
}

// SourceStacks returns a copy of the per-source split (rows 0..n-1 for
// the n sources, last row SourceShared), or nil when source tracking is
// disabled. Summed element-wise over rows, Full and Shared equal the
// aggregate accountant's accumulators exactly (integer identity — see
// the conservation test).
func (a *BandwidthAccountant) SourceStacks() []SourceStack {
	if a.src == nil {
		return nil
	}
	out := make([]SourceStack, len(a.src))
	copy(out, a.src)
	return out
}

// SourceStack is one row of a per-source bandwidth split: the whole
// cycles and the 1/banks-cycle shares credited to one source (or to the
// SourceShared bucket) over the accounted interval. It mirrors the
// aggregate accountant's internal representation so conservation can be
// checked in exact integer arithmetic.
type SourceStack struct {
	// Source is the source index, or SourceShared for the shared row.
	Source int
	// Full counts whole cycles per component (data and regulation cycles
	// for source rows; refresh/constraints/idle for the shared row).
	Full [NumBWComponents]int64
	// Shared counts 1/banks-cycle shares per component (bank-level
	// activity; only ever non-zero on the SourceShared row).
	Shared [NumBWComponents]int64
}

// Cycles converts the row to per-component (possibly fractional)
// channel cycles given the channel's bank count.
func (s SourceStack) Cycles(banks int) [NumBWComponents]float64 {
	var out [NumBWComponents]float64
	for c := range s.Full {
		out[c] = float64(s.Full[c]) + float64(s.Shared[c])/float64(banks)
	}
	return out
}

// Sub returns the row covering the interval between an earlier snapshot
// old and s (warmup subtraction).
func (s SourceStack) Sub(old SourceStack) SourceStack {
	d := SourceStack{Source: s.Source}
	for c := range s.Full {
		d.Full[c] = s.Full[c] - old.Full[c]
		d.Shared[c] = s.Shared[c] - old.Shared[c]
	}
	return d
}

// Add accumulates another row (e.g. the same source on another channel)
// into s.
func (s *SourceStack) Add(o SourceStack) {
	for c := range s.Full {
		s.Full[c] += o.Full[c]
		s.Shared[c] += o.Shared[c]
	}
}

// BandwidthStack is a completed bandwidth stack over some interval.
// Cycles holds per-component (possibly fractional) channel cycles;
// they sum to TotalCycles.
type BandwidthStack struct {
	Banks       int
	TotalCycles int64
	Cycles      [NumBWComponents]float64
}

// Sub returns the stack covering the interval between an earlier snapshot
// old and s (for through-time sampling).
func (s BandwidthStack) Sub(old BandwidthStack) BandwidthStack {
	d := BandwidthStack{Banks: s.Banks, TotalCycles: s.TotalCycles - old.TotalCycles}
	for c := range s.Cycles {
		d.Cycles[c] = s.Cycles[c] - old.Cycles[c]
	}
	return d
}

// Add accumulates another stack (e.g. from another memory controller)
// into s. Both must cover the same wall-clock interval for the result to
// be meaningful as an aggregate.
func (s *BandwidthStack) Add(o BandwidthStack) {
	s.TotalCycles += o.TotalCycles
	for c := range s.Cycles {
		s.Cycles[c] += o.Cycles[c]
	}
}

// GBps converts the stack to bandwidth components in GB/s given the
// channel geometry: component cycles / total cycles × peak bandwidth.
// The components sum to the peak bandwidth.
func (s BandwidthStack) GBps(geo dram.Geometry) [NumBWComponents]float64 {
	var out [NumBWComponents]float64
	if s.TotalCycles == 0 {
		return out
	}
	peak := geo.PeakBandwidthGBs()
	for c := range s.Cycles {
		out[c] = s.Cycles[c] / float64(s.TotalCycles) * peak
	}
	return out
}

// AchievedGBps returns the achieved (read+write) bandwidth in GB/s.
func (s BandwidthStack) AchievedGBps(geo dram.Geometry) float64 {
	g := s.GBps(geo)
	return g[BWRead] + g[BWWrite]
}

// Fraction returns the share of total cycles in component c (0..1).
func (s BandwidthStack) Fraction(c BWComponent) float64 {
	if s.TotalCycles == 0 {
		return 0
	}
	return s.Cycles[c] / float64(s.TotalCycles)
}

// CheckSum verifies the no-double-counting invariant: the components must
// sum to the total number of cycles (within floating-point tolerance).
func (s BandwidthStack) CheckSum() error {
	var sum float64
	for _, v := range s.Cycles {
		if v < -1e-9 {
			return fmt.Errorf("stacks: negative component in %+v", s.Cycles)
		}
		sum += v
	}
	tol := float64(1e-6*float64(s.TotalCycles)) + 1e-6 // unfused (tools/nofma.sh)
	if diff := sum - float64(s.TotalCycles); diff > tol || diff < -tol {
		return fmt.Errorf("stacks: components sum to %.6f, want %d", sum, s.TotalCycles)
	}
	return nil
}
