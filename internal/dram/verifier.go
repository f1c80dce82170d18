package dram

import "fmt"

// Violation describes one timing or protocol violation found by a Verifier.
type Violation struct {
	Cycle int64
	Cmd   Command
	Rule  string
}

// Error formats the violation; Violation satisfies the error interface so a
// single violation can be returned directly.
func (v Violation) Error() string {
	return fmt.Sprintf("cycle %d: %v violates %s", v.Cycle, v.Cmd, v.Rule)
}

// Verifier independently re-checks a DRAM command trace against a pairwise
// formulation of the JEDEC-style constraints. It deliberately does not share
// code with Device: the Device derives legality incrementally from
// "next-allowed" tables, while the Verifier compares each new command
// against the history of previously issued commands, so a bug in one
// formulation is caught by the other.
//
// Feed commands in non-decreasing cycle order via Check; violations are
// accumulated and also returned per call.
type Verifier struct {
	geo Geometry
	tim Timing

	last   int64
	vs     []Violation
	checks int64

	// Channel data-bus history.
	lastDataEnd  int64
	lastDataRank int

	// Per-bank history.
	bank []vbank
	// Per-group history: last ACT / RD / WR / (write data end).
	grp []vscope
	// Per-rank history.
	rnk []vrank
}

type vbank struct {
	open       bool
	row        int
	lastACT    int64
	lastPRE    int64
	lastRD     int64
	lastWR     int64
	apReleases int64 // cycle when a pending auto-precharge completes (tRP included)
	apPending  bool
	apStart    int64 // when the auto-precharge begins
}

type vscope struct {
	lastACT int64
	lastRD  int64
	lastWR  int64
}

type vrank struct {
	vscope
	acts     [4]int64 // issue times of the last four ACTs (tFAW window),
	actIdx   int      // the oldest of them at acts[actIdx]
	refUntil int64
	lastREF  int64
}

const farPast = -1 << 60

// NewVerifier returns a Verifier for the given configuration.
func NewVerifier(geo Geometry, tim Timing) *Verifier {
	v := &Verifier{
		geo:         geo,
		tim:         tim,
		bank:        make([]vbank, geo.TotalBanks()),
		grp:         make([]vscope, geo.Ranks*geo.Groups),
		rnk:         make([]vrank, geo.Ranks),
		last:        farPast,
		lastDataEnd: farPast,
	}
	for i := range v.bank {
		b := &v.bank[i]
		b.lastACT, b.lastPRE, b.lastRD, b.lastWR = farPast, farPast, farPast, farPast
	}
	for i := range v.grp {
		g := &v.grp[i]
		g.lastACT, g.lastRD, g.lastWR = farPast, farPast, farPast
	}
	for i := range v.rnk {
		r := &v.rnk[i]
		r.lastACT, r.lastRD, r.lastWR, r.refUntil, r.lastREF = farPast, farPast, farPast, farPast, farPast
		r.acts = [4]int64{farPast, farPast, farPast, farPast}
	}
	return v
}

// Violations returns all violations found so far.
func (v *Verifier) Violations() []Violation { return v.vs }

// Checked returns how many commands have been verified.
func (v *Verifier) Checked() int64 { return v.checks }

func (v *Verifier) fail(cycle int64, cmd Command, rule string, args ...any) {
	v.vs = append(v.vs, Violation{cycle, cmd, fmt.Sprintf(rule, args...)})
}

func (v *Verifier) require(cycle int64, cmd Command, since int64, gap int, rule string) {
	if since == farPast {
		return
	}
	if cycle < since+int64(gap) {
		v.fail(cycle, cmd, "%s: need %d cycles after %d, got %d", rule, gap, since, cycle-since)
	}
}

// applyAP materializes a bank's pending auto-precharge if it has begun.
func (v *Verifier) applyAP(b *vbank, at int64) {
	if b.apPending && b.apStart <= at {
		b.open = false
		b.lastPRE = b.apStart
		b.apPending = false
	}
}

// checkBus verifies the data bus is free for a new burst starting at
// dataStart, including the rank-to-rank switch gap, and claims it.
func (v *Verifier) checkBus(cycle int64, cmd Command, dataStart int64) {
	need := v.lastDataEnd
	if need != farPast && cmd.Loc.Rank != v.lastDataRank {
		need += int64(v.tim.RTRS)
	}
	if v.lastDataEnd != farPast && dataStart < need {
		v.fail(cycle, cmd, "data bus: burst at %d overlaps previous (free at %d)", dataStart, need)
	}
	v.lastDataEnd = dataStart + int64(v.tim.BL2)
	v.lastDataRank = cmd.Loc.Rank
}

// Check verifies one command at the given cycle. It returns the violations
// this command introduced (nil if legal).
func (v *Verifier) Check(cycle int64, cmd Command) []Violation {
	before := len(v.vs)
	v.checks++
	if cycle < v.last {
		v.fail(cycle, cmd, "trace order: cycle %d before previous %d", cycle, v.last)
	}
	v.last = cycle

	tm := v.tim
	bi := (cmd.Loc.Rank*v.geo.Groups+cmd.Loc.Group)*v.geo.Banks + cmd.Loc.Bank
	b := &v.bank[bi]
	g := &v.grp[cmd.Loc.Rank*v.geo.Groups+cmd.Loc.Group]
	r := &v.rnk[cmd.Loc.Rank]
	v.applyAP(b, cycle)

	if cycle < r.refUntil && cmd.Kind != CmdREF {
		v.fail(cycle, cmd, "tRFC: rank refreshing until %d", r.refUntil)
	}

	switch cmd.Kind {
	case CmdACT:
		if b.open {
			v.fail(cycle, cmd, "protocol: ACT on bank with open row %d", b.row)
		}
		v.require(cycle, cmd, b.lastACT, tm.RC, "tRC(same bank)")
		v.require(cycle, cmd, b.lastPRE, tm.RP, "tRP(same bank)")
		v.require(cycle, cmd, g.lastACT, tm.RRDL, "tRRD_L(same group)")
		v.require(cycle, cmd, r.lastACT, tm.RRDS, "tRRD_S(same rank)")
		if fourth := r.acts[r.actIdx]; cycle < fourth+int64(tm.FAW) {
			v.fail(cycle, cmd, "tFAW: 5th ACT %d cycles after %d", cycle-fourth, fourth)
		}
		b.open, b.row = true, cmd.Loc.Row
		b.lastACT = cycle
		g.lastACT, r.lastACT = cycle, cycle
		r.acts[r.actIdx] = cycle
		r.actIdx = (r.actIdx + 1) % len(r.acts)

	case CmdPRE, CmdPREA:
		banks := []int{bi}
		if cmd.Kind == CmdPREA {
			banks = banks[:0]
			base := cmd.Loc.Rank * v.geo.BanksPerRank()
			for i := 0; i < v.geo.BanksPerRank(); i++ {
				banks = append(banks, base+i)
			}
		}
		for _, idx := range banks {
			bb := &v.bank[idx]
			v.applyAP(bb, cycle)
			if bb.apPending {
				if cmd.Kind == CmdPRE {
					v.fail(cycle, cmd, "protocol: PRE on auto-precharging bank")
				}
				continue // PREA leaves self-closing banks alone
			}
			if !bb.open {
				if cmd.Kind == CmdPRE {
					v.fail(cycle, cmd, "protocol: PRE on precharged bank")
				}
				continue
			}
			v.require(cycle, cmd, bb.lastACT, tm.RAS, "tRAS(ACT->PRE)")
			v.require(cycle, cmd, bb.lastRD, tm.RTP, "tRTP(RD->PRE)")
			v.require(cycle, cmd, bb.lastWR, tm.WriteToPre(), "tWR(WR->PRE)")
			bb.open = false
			bb.lastPRE = cycle
		}

	case CmdRD, CmdRDA:
		if !b.open || b.row != cmd.Loc.Row {
			v.fail(cycle, cmd, "protocol: RD needs row %d open (open=%v row=%d)",
				cmd.Loc.Row, b.open, b.row)
		}
		v.require(cycle, cmd, b.lastACT, tm.RCD, "tRCD(ACT->RD)")
		v.require(cycle, cmd, g.lastRD, tm.CCDL, "tCCD_L(RD->RD same group)")
		v.require(cycle, cmd, g.lastWR, tm.CCDL, "tCCD_L(WR->RD same group)")
		v.require(cycle, cmd, g.lastWR, tm.WriteToRead(true), "tWTR_L(WR->RD same group)")
		v.require(cycle, cmd, r.lastRD, tm.CCDS, "tCCD_S(RD->RD same rank)")
		v.require(cycle, cmd, r.lastWR, tm.WriteToRead(false), "tWTR_S(WR->RD same rank)")
		v.checkBus(cycle, cmd, cycle+int64(tm.CL))
		b.lastRD = cycle
		g.lastRD, r.lastRD = cycle, cycle
		if cmd.Kind == CmdRDA {
			b.apPending = true
			b.apStart = cycle + int64(tm.RTP)
		}

	case CmdWR, CmdWRA:
		if !b.open || b.row != cmd.Loc.Row {
			v.fail(cycle, cmd, "protocol: WR needs row %d open (open=%v row=%d)",
				cmd.Loc.Row, b.open, b.row)
		}
		v.require(cycle, cmd, b.lastACT, tm.RCD, "tRCD(ACT->WR)")
		v.require(cycle, cmd, g.lastRD, tm.CCDL, "tCCD_L(RD->WR same group)")
		v.require(cycle, cmd, g.lastWR, tm.CCDL, "tCCD_L(WR->WR same group)")
		v.require(cycle, cmd, r.lastWR, tm.CCDS, "tCCD_S(WR->WR same rank)")
		v.require(cycle, cmd, r.lastRD, tm.RTW, "tRTW(RD->WR turnaround)")
		v.checkBus(cycle, cmd, cycle+int64(tm.CWL))
		b.lastWR = cycle
		g.lastWR, r.lastWR = cycle, cycle
		if cmd.Kind == CmdWRA {
			b.apPending = true
			b.apStart = cycle + int64(tm.WriteToPre())
		}

	case CmdREF:
		base := cmd.Loc.Rank * v.geo.BanksPerRank()
		for i := 0; i < v.geo.BanksPerRank(); i++ {
			bb := &v.bank[base+i]
			v.applyAP(bb, cycle)
			if bb.open {
				v.fail(cycle, cmd, "protocol: REF with bank %d open", i)
			}
			v.require(cycle, cmd, bb.lastPRE, tm.RP, "tRP(PRE->REF)")
		}
		v.require(cycle, cmd, r.lastREF, tm.RFC, "tRFC(REF->REF)")
		r.refUntil = cycle + int64(tm.RFC)
		r.lastREF = cycle

	default:
		v.fail(cycle, cmd, "protocol: unknown command kind %d", cmd.Kind)
	}

	if len(v.vs) == before {
		return nil
	}
	return v.vs[before:]
}
