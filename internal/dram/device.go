package dram

import (
	"fmt"
	"math"
)

// bankState tracks one bank's row buffer and its per-bank next-allowed times.
type bankState struct {
	open bool
	row  int

	// Windows during which the bank is executing an activate or precharge,
	// used both for legality (row not usable before actDone) and for the
	// bandwidth-stack "busy bank" classification.
	actStart, actDone int64
	preStart, preDone int64

	// Pending auto-precharge: at apAt the bank starts precharging itself.
	apPending bool
	apAt      int64

	nextACT int64
	nextPRE int64
	nextCol int64 // earliest column command (from tRCD)
}

// groupState holds the bank-group-level next-allowed times.
type groupState struct {
	nextACT int64 // tRRD_L
	nextRD  int64 // tCCD_L, tWTR_L
	nextWR  int64 // tCCD_L
}

// rankState holds the rank-level next-allowed times and refresh state.
type rankState struct {
	nextACT int64 // tRRD_S
	nextRD  int64 // tCCD_S, tWTR_S, tRFC
	nextWR  int64 // tCCD_S, tRTW, tRFC

	faw    [4]int64 // issue times of the last four ACTs
	fawIdx int

	refUntil int64 // rank blocked by an in-flight REF until this cycle
}

// busRing records which kind of data occupies the channel data bus on each
// cycle, for the bandwidth stack's read/write classification. The ring must
// be longer than CL+BL2 so entries are consumed before being overwritten.
const busRingSize = 512

// DataKind classifies what the data bus carries on a given cycle.
type DataKind uint8

const (
	// DataNone means the bus is idle this cycle.
	DataNone DataKind = iota
	// DataRead means read data occupies the bus this cycle.
	DataRead
	// DataWrite means write data occupies the bus this cycle.
	DataWrite
)

// Device models one DRAM channel: its banks, bank groups, ranks, data bus
// and every timing constraint between commands. A memory controller asks
// CanIssue before placing a command with Issue; issuing an illegal command
// panics, because it indicates a controller bug, not a runtime condition.
//
// The controller is expected to call Sync(now) once per cycle (in
// non-decreasing time order) before querying or issuing, so that pending
// auto-precharges are applied.
type Device struct {
	geo Geometry
	tim Timing

	banks  []bankState // [rank][group][bank] flattened
	groups []groupState
	ranks  []rankState

	busBusyUntil int64
	busRank      int // rank owning the last data transfer
	busKind      [busRingSize]DataKind

	apCount int // number of banks with a pending auto-precharge

	// quietAt is the earliest cycle at which, absent further commands,
	// the device is observably idle: no bank is inside an activate or
	// precharge window (including pending auto-precharges), no rank is
	// inside tRFC, and the data bus carries nothing. It is maintained in
	// O(1) on every Issue so the controller can prove channel idleness
	// without scanning the banks (the basis of idle-cycle
	// fast-forwarding). Row-buffer state and next-allowed times may
	// extend past quietAt; they only matter once a new command arrives.
	quietAt int64

	now int64

	// Trace, if non-nil, receives every issued command with its cycle.
	Trace func(cycle int64, cmd Command)

	// Counters.
	stats Stats
}

// Stats counts the commands a Device has executed. PRE counts explicit
// precharges (including those from PREA); AutoPRE counts auto-precharges
// triggered by RDA/WRA commands.
type Stats struct {
	ACT, PRE, AutoPRE, RD, WR, REF int64
}

// NewDevice returns a Device for the given geometry and timing.
// It panics if either is invalid (configuration error).
func NewDevice(geo Geometry, tim Timing) *Device {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if err := tim.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		geo:    geo,
		tim:    tim,
		banks:  make([]bankState, geo.TotalBanks()),
		groups: make([]groupState, geo.Ranks*geo.Groups),
		ranks:  make([]rankState, geo.Ranks),
	}
	for r := range d.ranks {
		for i := range d.ranks[r].faw {
			d.ranks[r].faw[i] = -1 << 62
		}
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.tim }

// Stats returns the command counters accumulated so far.
func (d *Device) Stats() Stats { return d.stats }

func (d *Device) bankIndex(l Loc) int {
	return (l.Rank*d.geo.Groups+l.Group)*d.geo.Banks + l.Bank
}

func (d *Device) groupIndex(l Loc) int { return l.Rank*d.geo.Groups + l.Group }

func (d *Device) checkLoc(l Loc) {
	if l.Rank < 0 || l.Rank >= d.geo.Ranks ||
		l.Group < 0 || l.Group >= d.geo.Groups ||
		l.Bank < 0 || l.Bank >= d.geo.Banks ||
		l.Row < 0 || l.Row >= d.geo.Rows ||
		l.Col < 0 || l.Col >= d.geo.Cols {
		panic(fmt.Sprintf("dram: location out of range: %v", l))
	}
}

// Sync advances the device's notion of time to now, applying any
// auto-precharges that have come due. It must be called with
// non-decreasing now values.
func (d *Device) Sync(now int64) {
	if now < d.now {
		panic(fmt.Sprintf("dram: Sync time went backwards: %d -> %d", d.now, now))
	}
	d.now = now
	if d.apCount == 0 {
		return
	}
	for i := range d.banks {
		b := &d.banks[i]
		if b.apPending && b.apAt <= now {
			d.applyPrecharge(b, b.apAt)
			b.apPending = false
			d.apCount--
		}
	}
}

func (d *Device) applyPrecharge(b *bankState, at int64) {
	b.open = false
	b.preStart = at
	b.preDone = at + int64(d.tim.RP)
	if n := b.preDone; n > b.nextACT {
		b.nextACT = n
	}
	d.bumpQuiet(b.preDone)
}

// bumpQuiet extends the observable-activity horizon.
func (d *Device) bumpQuiet(t int64) {
	if t > d.quietAt {
		d.quietAt = t
	}
}

// QuietAt returns the earliest cycle from which the device is observably
// idle if no further commands are issued: BankBusy is (false, false) for
// every bank, AnyRefreshing is false and the data bus is free at every
// cycle ≥ QuietAt(). Open row buffers and residual next-allowed times do
// not count as activity.
func (d *Device) QuietAt() int64 { return d.quietAt }

// RowOpen reports whether the bank at l has row l.Row open and usable
// (activation complete) at cycle "at".
func (d *Device) RowOpen(l Loc, at int64) bool {
	b := &d.banks[d.bankIndex(l)]
	if b.apPending && b.apAt <= at {
		return false
	}
	return b.open && b.row == l.Row && at >= b.actDone
}

// OpenRow returns the currently open row of the bank at l, or -1 if the
// bank is precharged (or will be, due to a due auto-precharge).
func (d *Device) OpenRow(l Loc, at int64) int {
	b := &d.banks[d.bankIndex(l)]
	if !b.open || (b.apPending && b.apAt <= at) {
		return -1
	}
	return b.row
}

// Refreshing reports whether the rank is inside a refresh (tRFC) at cycle at.
func (d *Device) Refreshing(rank int, at int64) bool {
	return at < d.ranks[rank].refUntil
}

// AnyRefreshing reports whether any rank of the channel is refreshing at at.
func (d *Device) AnyRefreshing(at int64) bool {
	for r := range d.ranks {
		if at < d.ranks[r].refUntil {
			return true
		}
	}
	return false
}

// BusKindAt returns what the data bus carries at cycle at. Only cycles in
// the recent past or near future (within the bus ring) are meaningful.
func (d *Device) BusKindAt(at int64) DataKind {
	return d.busKind[at&(busRingSize-1)]
}

// RefreshOnlyUntil returns the cycle through which the device's only
// observable activity is in-flight rank refreshes, assuming no further
// commands are issued: when at cycle at the data bus is clear, no bank
// is precharging or activating, no auto-precharge is pending, and at
// least one rank is inside tRFC, it returns the latest refUntil — every
// cycle in [at, result) then observes exactly "refreshing, nothing
// else" (ranks refreshing at at cover that whole span, since each
// covers [at, its refUntil)). Otherwise it returns at.
func (d *Device) RefreshOnlyUntil(at int64) int64 {
	end := at
	for r := range d.ranks {
		if u := d.ranks[r].refUntil; u > end {
			end = u
		}
	}
	if end == at || d.apCount > 0 || d.busBusyUntil > at {
		return at
	}
	for i := range d.banks {
		b := &d.banks[i]
		if b.preDone > at || b.actDone > at {
			return at
		}
	}
	return end
}

// BankBusy classifies the bank's activity at cycle at for the bandwidth
// stack: precharging, activating, or neither.
func (d *Device) BankBusy(bank int, at int64) (precharging, activating bool) {
	b := &d.banks[bank]
	pre := at >= b.preStart && at < b.preDone
	if b.apPending && at >= b.apAt && at < b.apAt+int64(d.tim.RP) {
		pre = true
	}
	act := at >= b.actStart && at < b.actDone
	return pre, act
}

// BusyMasks is BankBusy for every bank at once, as bitmasks by flat bank
// index, together with the first cycle after at from which either mask
// can differ if no further command is issued: the nearest start or end
// of an activate, precharge or pending auto-precharge window.
func (d *Device) BusyMasks(at int64) (pre, act uint64, until int64) {
	until = math.MaxInt64
	for i := range d.banks {
		b := &d.banks[i]
		inPre, edge := within(at, b.preStart, b.preDone)
		if b.apPending && !inPre {
			inPre, edge = within(at, b.apAt, b.apAt+int64(d.tim.RP))
		}
		inAct, edgeAct := within(at, b.actStart, b.actDone)
		if inPre {
			pre |= 1 << i
		}
		if inAct {
			act |= 1 << i
		}
		until = min(until, edge, edgeAct)
	}
	return pre, act, until
}

// within reports whether at lies in [start, end), and the first cycle
// after at where that answer changes (never, once the window is past).
func within(at, start, end int64) (in bool, edge int64) {
	switch {
	case at < start:
		return false, start
	case at < end:
		return true, end
	}
	return false, math.MaxInt64
}

// fawOK reports whether a new ACT at cycle at respects the tFAW window.
func (r *rankState) fawOK(at int64, faw int) bool {
	return at >= r.faw[r.fawIdx]+int64(faw)
}

// EarliestIssue returns the earliest cycle ≥ at when cmd could legally
// issue given the current device state, and whether it is possible at all
// without further state changes (e.g. RD to a bank whose open row differs
// needs a PRE first and reports ok == false).
//
// The returned time accounts for bank, group, rank and data-bus timing but
// assumes no further commands are issued in between.
func (d *Device) EarliestIssue(cmd Command, at int64) (cycle int64, ok bool) {
	d.checkLoc(cmd.Loc)
	b := &d.banks[d.bankIndex(cmd.Loc)]
	g := &d.groups[d.groupIndex(cmd.Loc)]
	r := &d.ranks[cmd.Loc.Rank]

	// A due-but-unapplied auto-precharge makes bank state ambiguous;
	// callers must Sync first.
	if b.apPending && b.apAt <= at {
		panic("dram: EarliestIssue called before Sync applied a due auto-precharge")
	}

	t := at
	if r.refUntil > t {
		t = r.refUntil
	}
	switch cmd.Kind {
	case CmdACT:
		if b.open && !b.apPending {
			return 0, false // must precharge first
		}
		if b.apPending {
			t = maxi64(t, b.apAt+int64(d.tim.RP))
		}
		t = maxi64(t, b.nextACT, g.nextACT, r.nextACT)
		if !r.fawOK(t, d.tim.FAW) {
			t = r.faw[r.fawIdx] + int64(d.tim.FAW)
		}
		return t, true
	case CmdPRE:
		if !b.open || b.apPending {
			return 0, false // closed, or already closing itself
		}
		return maxi64(t, b.nextPRE), true
	case CmdPREA:
		for i := 0; i < d.geo.BanksPerRank(); i++ {
			bb := &d.banks[cmd.Loc.Rank*d.geo.BanksPerRank()+i]
			if bb.open && !bb.apPending {
				t = maxi64(t, bb.nextPRE)
			}
		}
		return t, true
	case CmdRD, CmdRDA:
		if !b.open || b.row != cmd.Loc.Row || b.apPending {
			return 0, false
		}
		t = maxi64(t, b.nextCol, g.nextRD, r.nextRD)
		// Data bus must be free for [t+CL, t+CL+BL2), plus the
		// rank-to-rank switch gap when the bus owner changes.
		if need := d.busFreeFor(cmd.Loc.Rank) - int64(d.tim.CL); t < need {
			t = need
		}
		return t, true
	case CmdWR, CmdWRA:
		if !b.open || b.row != cmd.Loc.Row || b.apPending {
			return 0, false
		}
		t = maxi64(t, b.nextCol, g.nextWR, r.nextWR)
		if need := d.busFreeFor(cmd.Loc.Rank) - int64(d.tim.CWL); t < need {
			t = need
		}
		return t, true
	case CmdREF:
		for i := 0; i < d.geo.BanksPerRank(); i++ {
			bb := &d.banks[cmd.Loc.Rank*d.geo.BanksPerRank()+i]
			if bb.open && !bb.apPending {
				return 0, false // all banks must be precharged
			}
			if bb.apPending {
				t = maxi64(t, bb.apAt+int64(d.tim.RP))
			}
			t = maxi64(t, bb.nextACT) // tRP from the last PRE
		}
		return t, true
	default:
		panic(fmt.Sprintf("dram: unknown command kind %v", cmd.Kind))
	}
}

// CanIssue reports whether cmd may legally issue exactly at cycle at.
func (d *Device) CanIssue(cmd Command, at int64) bool {
	t, ok := d.EarliestIssue(cmd, at)
	return ok && t <= at
}

// Issue places cmd on the command bus at cycle at, updating all timing
// state. It panics if the command is illegal at that cycle — the memory
// controller must gate every issue with CanIssue.
func (d *Device) Issue(cmd Command, at int64) {
	if !d.CanIssue(cmd, at) {
		panic(fmt.Sprintf("dram: illegal command %v at cycle %d", cmd, at))
	}
	b := &d.banks[d.bankIndex(cmd.Loc)]
	g := &d.groups[d.groupIndex(cmd.Loc)]
	r := &d.ranks[cmd.Loc.Rank]
	tm := d.tim

	switch cmd.Kind {
	case CmdACT:
		b.open = true
		b.row = cmd.Loc.Row
		b.actStart = at
		b.actDone = at + int64(tm.RCD)
		d.bumpQuiet(b.actDone)
		b.nextCol = at + int64(tm.RCD)
		b.nextPRE = maxi64(b.nextPRE, at+int64(tm.RAS))
		b.nextACT = maxi64(b.nextACT, at+int64(tm.RC))
		g.nextACT = maxi64(g.nextACT, at+int64(tm.RRDL))
		r.nextACT = maxi64(r.nextACT, at+int64(tm.RRDS))
		r.faw[r.fawIdx] = at
		r.fawIdx = (r.fawIdx + 1) % len(r.faw)
		d.stats.ACT++

	case CmdPRE:
		d.applyPrecharge(b, at)
		d.stats.PRE++

	case CmdPREA:
		for i := 0; i < d.geo.BanksPerRank(); i++ {
			bb := &d.banks[cmd.Loc.Rank*d.geo.BanksPerRank()+i]
			if bb.open && !bb.apPending {
				d.applyPrecharge(bb, at)
				d.stats.PRE++
			}
		}

	case CmdRD, CmdRDA:
		dataStart := at + int64(tm.CL)
		d.claimBus(dataStart, DataRead, cmd.Loc.Rank)
		// Same-group and same-rank column spacing.
		g.nextRD = maxi64(g.nextRD, at+int64(tm.CCDL))
		g.nextWR = maxi64(g.nextWR, at+int64(tm.CCDL))
		r.nextRD = maxi64(r.nextRD, at+int64(tm.CCDS))
		// Read-to-write bus turnaround (rank level).
		r.nextWR = maxi64(r.nextWR, at+int64(tm.CCDS), at+int64(tm.RTW))
		b.nextPRE = maxi64(b.nextPRE, at+int64(tm.RTP))
		if cmd.Kind == CmdRDA {
			d.scheduleAutoPrecharge(b, maxi64(at+int64(tm.RTP), b.nextPRE))
		}
		d.stats.RD++

	case CmdWR, CmdWRA:
		dataStart := at + int64(tm.CWL)
		d.claimBus(dataStart, DataWrite, cmd.Loc.Rank)
		g.nextWR = maxi64(g.nextWR, at+int64(tm.CCDL))
		g.nextRD = maxi64(g.nextRD, at+int64(tm.WriteToRead(true)))
		r.nextWR = maxi64(r.nextWR, at+int64(tm.CCDS))
		r.nextRD = maxi64(r.nextRD, at+int64(tm.WriteToRead(false)))
		b.nextPRE = maxi64(b.nextPRE, at+int64(tm.WriteToPre()))
		if cmd.Kind == CmdWRA {
			d.scheduleAutoPrecharge(b, maxi64(at+int64(tm.WriteToPre()), b.nextPRE))
		}
		d.stats.WR++

	case CmdREF:
		r.refUntil = at + int64(tm.RFC)
		d.bumpQuiet(r.refUntil)
		r.nextACT = maxi64(r.nextACT, r.refUntil)
		r.nextRD = maxi64(r.nextRD, r.refUntil)
		r.nextWR = maxi64(r.nextWR, r.refUntil)
		d.stats.REF++
	}

	if d.Trace != nil {
		d.Trace(at, cmd)
	}
}

func (d *Device) scheduleAutoPrecharge(b *bankState, at int64) {
	b.apPending = true
	b.apAt = at
	d.apCount++
	d.stats.AutoPRE++
	// The pending auto-precharge shows as a busy bank in BankBusy for
	// [apAt, apAt+RP) even before Sync applies it.
	d.bumpQuiet(at + int64(d.tim.RP))
}

// busFreeFor returns the first cycle rank may start a data transfer,
// including the rank-to-rank switch gap.
func (d *Device) busFreeFor(rank int) int64 {
	if d.busBusyUntil > 0 && rank != d.busRank {
		return d.busBusyUntil + int64(d.tim.RTRS)
	}
	return d.busBusyUntil
}

func (d *Device) claimBus(start int64, kind DataKind, rank int) {
	if start < d.busFreeFor(rank) {
		panic(fmt.Sprintf("dram: data bus conflict: new data at %d, bus busy until %d (rank switch %d->%d)",
			start, d.busBusyUntil, d.busRank, rank))
	}
	for c := start; c < start+int64(d.tim.BL2); c++ {
		d.busKind[c&(busRingSize-1)] = kind
	}
	d.busBusyUntil = start + int64(d.tim.BL2)
	d.busRank = rank
	d.bumpQuiet(d.busBusyUntil)
}

// DataWindow returns the [start, end) data-bus interval for a column
// command issued at cycle at.
func (d *Device) DataWindow(kind CommandKind, at int64) (start, end int64) {
	if kind.IsRead() {
		return at + int64(d.tim.CL), at + int64(d.tim.CL) + int64(d.tim.BL2)
	}
	if kind.IsWrite() {
		return at + int64(d.tim.CWL), at + int64(d.tim.CWL) + int64(d.tim.BL2)
	}
	panic("dram: DataWindow on non-column command")
}

// BlockScope names the level of the DRAM hierarchy whose timing
// constraint is the binding reason a command cannot issue yet. The
// bandwidth-stack accountant widens its per-bank "constraints"
// attribution to this scope: a tCCD_L-bound read charges its whole bank
// group, a tFAW-bound activate its whole rank (paper §IV: bank-group and
// rank level timing restrictions).
type BlockScope uint8

const (
	// ScopeNone means the command is issuable now (or blocked only by
	// protocol state, e.g. a row that must be opened first).
	ScopeNone BlockScope = iota
	// ScopeBank is a same-bank timing (tRCD residual, tRC, tRAS, tRTP,
	// tWR, a pending auto-precharge).
	ScopeBank
	// ScopeGroup is a bank-group timing (tCCD_L, tRRD_L, tWTR_L).
	ScopeGroup
	// ScopeRank is a rank timing (tCCD_S, tRRD_S, tFAW, tWTR_S, tRTW,
	// tRFC).
	ScopeRank
	// ScopeBus means the channel data bus is claimed too far ahead.
	ScopeBus
)

// Blocking returns the binding block scope for cmd at cycle at: the scope
// whose constraint releases last. Ties resolve to the narrowest scope.
func (d *Device) Blocking(cmd Command, at int64) BlockScope {
	d.checkLoc(cmd.Loc)
	if ready, scope := d.Ready(d.bankIndex(cmd.Loc), cmd.Kind); ready > at {
		return scope
	}
	return ScopeNone
}

// Ready returns the first cycle at which every timing constraint allows
// a command of the given kind on the bank with flat index bank — the
// maximum over its bank, bank-group, rank and data-bus next-allowed
// times — and the scope attaining that maximum, the narrowest on a tie.
// Row-buffer protocol state is the caller's to know: for a command that
// state admits, EarliestIssue(cmd, at) is max(at, ready) and
// Blocking(cmd, at) is scope while ready > at. Both stay exact until the
// next Issue (a pending auto-precharge landing does not move them). The
// bank index is not range-checked: this is the controller's per-command
// query.
func (d *Device) Ready(bank int, kind CommandKind) (ready int64, scope BlockScope) {
	b := &d.banks[bank]
	g := &d.groups[bank/d.geo.Banks]
	rank := bank / d.geo.BanksPerRank()
	r := &d.ranks[rank]

	var tBank, tGroup int64
	tRank, tBus := r.refUntil, int64(math.MinInt64) // only column commands need the bus
	switch kind {
	case CmdACT:
		tBank = b.nextACT
		if b.apPending {
			tBank = max(tBank, b.apAt+int64(d.tim.RP))
		}
		tGroup = g.nextACT
		tRank = max(tRank, r.nextACT, r.faw[r.fawIdx]+int64(d.tim.FAW))
	case CmdPRE, CmdPREA:
		tBank = b.nextPRE
	case CmdRD, CmdRDA:
		tBank, tGroup = b.nextCol, g.nextRD
		tRank = max(tRank, r.nextRD)
		tBus = d.busFreeFor(rank) - int64(d.tim.CL)
	case CmdWR, CmdWRA:
		tBank, tGroup = b.nextCol, g.nextWR
		tRank = max(tRank, r.nextWR)
		tBus = d.busFreeFor(rank) - int64(d.tim.CWL)
	}

	ready, scope = tBank, ScopeBank
	if tGroup > ready {
		ready, scope = tGroup, ScopeGroup
	}
	if tRank > ready {
		ready, scope = tRank, ScopeRank
	}
	if tBus > ready {
		ready, scope = tBus, ScopeBus
	}
	return ready, scope
}

// ConsumeBusKind returns what the data bus carries at cycle at and clears
// the ring entry, so stale values cannot be observed when the ring wraps.
// The bandwidth-stack accountant calls this exactly once per cycle, in
// cycle order.
func (d *Device) ConsumeBusKind(at int64) DataKind {
	k := d.busKind[at&(busRingSize-1)]
	d.busKind[at&(busRingSize-1)] = DataNone
	return k
}

func maxi64(vals ...int64) int64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
