package memctrl

import (
	"math/bits"

	"dramstacks/internal/dram"
)

// schedule attempts to issue at most one DRAM command this cycle,
// following FR-FCFS: ready column commands first (row hits), then
// activates, then precharges, oldest request first within each class.
// Refresh management preempts normal scheduling for its rank.
//
// All scheduling state is kept incrementally. Requests sit on
// arrival-ordered per-bank lists, and a bank's candidate slots change
// only when that bank's inputs do:
//
//   - an enqueue to the bank folds the new, youngest request into the
//     slots in O(1) (admit);
//   - a command issued to the bank, or an auto-precharge landing on it,
//     marks it stale, and rebuild reclassifies that one bank's lists;
//   - a write-mode flip, a QoS held-set change or a request crossing
//     the aging bound (candAge) changes what is visible or in which
//     tier everywhere, and marks every bank stale.
//
// Stale banks are rebuilt here, after refresh management and before the
// issue passes. A bank a normal command was issued to is therefore
// rebuilt on the next cycle: this cycle's account still sees the
// candidates the command was picked from (see markBlocked).
//
// What the device says about a bank's candidates — the first cycle
// timing allows each, and the scope of the binding constraint — depends
// on device state alone, which moves only when a command issues. retime
// caches both per bank after every issue and whenever the bank's slots
// change; until then the issue passes and markBlocked are integer
// compares against now, and the passes do not run at all before wake,
// the earliest cached ready time.
func (c *Controller) schedule(now int64) {
	c.lastIssuedBank = -1
	refIssued := c.scheduleRefresh(now)
	c.freshen(now)
	if !refIssued {
		c.issueNormal(now)
	}
}

// freshen rebuilds the candidates of every stale bank.
func (c *Controller) freshen(now int64) {
	if now >= c.apNext {
		c.landAutoPrecharges(now)
	}
	if c.qosPrio && now >= c.candAge {
		// A classified request crossed the aging bound: its tier changed.
		c.stale = c.allBanks
	}
	if c.stale == c.allBanks {
		c.candAge = never
	}
	for m := c.stale; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		c.rebuild(b, now)
		c.retime(b)
	}
	c.stale = 0
}

// issue places cmd, addressed to bank (-1: a whole rank), on the device
// and retimes what it moved. A command moves the ready times of its own
// bank and, elsewhere, only those of its own kind: an activate delays
// activates (tRRD, tFAW), a column command delays column commands (tCCD,
// turnarounds, the data bus), a precharge nothing, a refresh everything.
// The bank's own candidates are stale.
func (c *Controller) issue(now int64, cmd dram.Command, bank int) {
	c.dev.Issue(cmd, now)
	c.issuedCycle = now
	c.lastIssuedBank = bank
	if bank >= 0 {
		c.stale |= 1 << bank
	}
	if cmd.Kind != dram.CmdRD && cmd.Kind != dram.CmdWR {
		c.busyUntil = 0 // a bank starts an activate or (auto-)precharge window
	}
	c.wake = never
	for b := range c.cand {
		cd := &c.cand[b]
		var moved bool
		switch {
		case b == bank, cmd.Kind == dram.CmdREF:
			moved = true
		case cmd.Kind == dram.CmdACT:
			moved = cd.act != nil
		case cmd.Kind.IsColumn():
			moved = cd.col != nil || cd.colPrio != nil
		}
		if moved {
			c.retime(b)
		} else {
			c.wake = min(c.wake, cd.ready, cd.readyPre)
		}
	}
}

// landAutoPrecharges marks the banks whose auto-precharge has come due
// (the device applied it in Sync) stale: their row closed by itself.
func (c *Controller) landAutoPrecharges(now int64) {
	c.apNext = never
	for b := range c.cand {
		cd := &c.cand[b]
		switch {
		case cd.apAt == 0:
		case cd.apAt <= now:
			cd.apAt = 0
			c.stale |= 1 << b
		default:
			c.apNext = min(c.apNext, cd.apAt)
		}
	}
}

// scheduleRefresh progresses refresh for pending ranks: it issues the REF
// when possible, otherwise precharges open banks of the rank. It reports
// whether it consumed the command slot.
func (c *Controller) scheduleRefresh(now int64) bool {
	for r := range c.refPending {
		if !c.refPending[r] {
			continue
		}
		ref := dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{Rank: r}}
		if c.dev.CanIssue(ref, now) {
			c.issue(now, ref, -1)
			c.stats.Refreshes++
			c.nextRefresh[r] += int64(c.tim.REFI)
			c.refPending[r] = false
			return true
		}
		// Close open banks so the refresh can proceed.
		for g := 0; g < c.geo.Groups; g++ {
			for b := 0; b < c.geo.Banks; b++ {
				loc := dram.Loc{Rank: r, Group: g, Bank: b}
				row := c.dev.OpenRow(loc, now)
				if row < 0 {
					continue
				}
				loc.Row = row
				pre := dram.Command{Kind: dram.CmdPRE, Loc: loc}
				if c.dev.CanIssue(pre, now) {
					c.issue(now, pre, c.bankIndex(loc))
					return true
				}
			}
		}
	}
	return false
}

// admit queues req on its bank and folds it into the bank's candidates.
// As the youngest request of its bank it can only fill an empty slot or
// count as one more hit, so no rebuild is needed; the device's open-row
// answer for the enqueue cycle is the one rebuild would get in the
// coming Tick unless the bank goes stale first, and then rebuild runs.
func (c *Controller) admit(req *Request, now int64) {
	req.loc = c.mapper.Decode(req.Addr)
	req.bank = c.bankIndex(req.loc)
	cd := &c.cand[req.bank]
	cd.queue.pushBack(req, inBank)
	c.classify(cd, req, c.dev.OpenRow(req.loc, now), now)
	if cd.holds(req) {
		c.retime(req.bank)
	}
}

// rebuild reclassifies bank b's queued requests from scratch.
func (c *Controller) rebuild(b int, now int64) {
	cd := &c.cand[b]
	cd.slots = slots{}
	if cd.queue.head == nil {
		return
	}
	openRow := c.dev.OpenRow(cd.queue.head.loc, now)
	for req := cd.queue.head; req != nil; req = req.link[inBank].next {
		c.classify(cd, req, openRow, now)
	}
}

// classify folds req into its bank's slots, given that every older
// request of the bank already has been and that the bank's open row is
// openRow (-1: precharged). Active-direction requests become candidates;
// requests of both directions count open-row hits (for page-policy
// decisions). Requests held by QoS regulation are invisible: they become
// no candidate, preserve no row, and mark no bank blocked. With a
// priority tier, the prio slots additionally track the oldest
// priority-tier request per class.
func (c *Controller) classify(cd *bankCand, req *Request, openRow int, now int64) {
	if c.qosReg && !req.Write && c.heldReq(req) {
		return
	}
	hit := openRow == req.loc.Row
	if req.Write != c.writeMode {
		if hit {
			cd.hasHitOther = true
			cd.sameRowCount++
		}
		return
	}
	if c.qosPrio {
		if !c.reqPrio(req, now) {
			// Not yet in the priority tier: record when aging will
			// promote it, so every bank is rebuilt at that cycle.
			c.candAge = min(c.candAge, req.arrive+c.qosAging)
		} else {
			if hit {
				cd.hasHitPrio = true
			}
			// The FCFS oldest-only rule applies per tier: the first
			// priority-tier request of a bank claims its prio slot.
			if c.cfg.Sched != FCFS ||
				(cd.colPrio == nil && cd.actPrio == nil && cd.prePrio == nil) {
				switch {
				case hit:
					if cd.colPrio == nil {
						cd.colPrio = req
					}
				case openRow < 0:
					if cd.actPrio == nil {
						cd.actPrio = req
					}
				default:
					if cd.prePrio == nil {
						cd.prePrio = req
					}
				}
			}
		}
	}
	if c.cfg.Sched == FCFS && (cd.col != nil || cd.act != nil || cd.pre != nil) {
		// Strict order: only the oldest request per bank is a
		// candidate; younger row hits may not overtake it. Same-row
		// counting still needs every request.
		if hit {
			cd.hasHitActive = true
			cd.sameRowCount++
		}
		return
	}
	switch {
	case hit:
		if cd.col == nil {
			cd.col = req
		}
		cd.hasHitActive = true
		cd.sameRowCount++
	case openRow < 0:
		if cd.act == nil {
			cd.act = req
		}
	default:
		if cd.pre == nil {
			cd.pre = req
		}
	}
}

// retime asks the device when bank b's candidates may issue and what
// binds the lead one, and caches the answers. They hold until the next
// command issues (issue retimes what it moved) or the bank's slots change.
// While an auto-precharge is pending the open row's candidates cannot
// issue at all; what blocks them is still the timing the device reports.
func (c *Controller) retime(b int) {
	cd := &c.cand[b]
	cd.ready, cd.readyPre, cd.blockedUntil, cd.wide = never, never, 0, 0
	if cd.col == nil && cd.act == nil && cd.pre == nil {
		return // no visible request (the normal slots take the oldest)
	}

	var scope dram.BlockScope
	switch {
	case cd.act != nil || cd.actPrio != nil:
		cd.ready, scope = c.dev.Ready(b, dram.CmdACT)
	case (cd.col != nil || cd.colPrio != nil) && c.writeMode:
		cd.ready, scope = c.dev.Ready(b, dram.CmdWR)
	case cd.col != nil || cd.colPrio != nil:
		cd.ready, scope = c.dev.Ready(b, dram.CmdRD)
	}
	cd.blockedUntil = cd.ready
	if cd.pre != nil || cd.prePrio != nil {
		var scopePre dram.BlockScope
		cd.readyPre, scopePre = c.dev.Ready(b, dram.CmdPRE)
		if cd.col == nil && cd.act == nil {
			cd.blockedUntil, scope = cd.readyPre, scopePre
		}
	}
	if !c.cfg.FlatConstraints {
		// The mark widens to the scope of the binding constraint.
		switch scope {
		case dram.ScopeGroup:
			cd.wide = (1<<c.geo.Banks - 1) << (b / c.geo.Banks * c.geo.Banks)
		case dram.ScopeRank:
			per := c.geo.BanksPerRank()
			cd.wide = (1<<per - 1) << (b / per * per)
		}
	}
	if cd.apAt != 0 {
		cd.ready, cd.readyPre = never, never
	}
	c.wake = min(c.wake, cd.ready, cd.readyPre)
}

// reqPrio reports whether req is in the priority tier: a real-time
// source, or any request older than the aging bound (the starvation
// backstop — see the FRFCFS tie-break documentation in config.go).
func (c *Controller) reqPrio(req *Request, now int64) bool {
	return c.cfg.QoS.SourceRT(req.src) || now-req.arrive >= c.qosAging
}

// issueNormal picks and issues at most one command from the candidates.
// With a QoS priority tier, the whole FR-FCFS ladder runs over the
// priority-tier candidates first; the normal slots only get the cycle
// when no priority command could issue.
//
// Before wake no candidate's cached ready time has come, so the passes
// would issue nothing and are skipped. Passes that run and issue nothing
// leave in wake the earliest ready time among the candidates they found
// eligible; every retime lowers it again.
func (c *Controller) issueNormal(now int64) {
	if now < c.wake {
		return
	}
	c.wake = never
	if c.qosPrio && c.issuePasses(now, true) {
		return
	}
	c.issuePasses(now, false)
}

// issuePasses picks, over one candidate tier, the oldest ready column
// command, else the oldest ready activate, else the oldest ready
// precharge (the lowest bank index on a tie), issues it and reports
// whether there was one. A bank offers a column command or an activate,
// never both, and cd.ready is the ready time of whichever it is.
//
// A precharge never closes a row that still has queued hits in the same
// tier or above (first-ready semantics; strict FCFS closes regardless).
// A priority-tier precharge ignores normal-tier hits — preserving the
// row for them would invert the tiers — while a normal precharge
// respects hits from both tiers. Hits waiting in the other direction do
// not preserve the row: a deferred write must not starve a read.
func (c *Controller) issuePasses(now int64, prio bool) bool {
	var col, act, pre *Request
	for b := range c.cand {
		cd := &c.cand[b]
		rc, ra, rp, hitGuard := cd.col, cd.act, cd.pre, cd.hasHitActive
		if prio {
			rc, ra, rp, hitGuard = cd.colPrio, cd.actPrio, cd.prePrio, cd.hasHitPrio
		}
		req := rc
		if req == nil {
			req = ra
		}
		if req != nil && !c.refPending[req.loc.Rank] {
			switch {
			case cd.ready > now:
				c.wake = min(c.wake, cd.ready)
			case req == rc:
				col = older(col, req)
			default:
				act = older(act, req)
			}
		}
		if rp != nil && !c.refPending[rp.loc.Rank] && !(hitGuard && c.cfg.Sched != FCFS) {
			if cd.readyPre > now {
				c.wake = min(c.wake, cd.readyPre)
			} else {
				pre = older(pre, rp)
			}
		}
	}
	switch {
	case col != nil:
		c.issueColumn(now, col, c.columnKind(col, &c.cand[col.bank].slots))
	case act != nil:
		c.issue(now, dram.Command{Kind: dram.CmdACT, Loc: act.loc}, act.bank)
		act.ownAct += int64(c.tim.RCD)
	case pre != nil:
		loc := pre.loc
		loc.Row = c.dev.OpenRow(pre.loc, now)
		c.issue(now, dram.Command{Kind: dram.CmdPRE, Loc: loc}, pre.bank)
		pre.ownPre += int64(c.tim.RP)
	default:
		return false
	}
	return true
}

// older returns whichever of best and req arrived first: best on a tie,
// req when there is no best yet.
func older(best, req *Request) *Request {
	if best == nil || req.arrive < best.arrive {
		return req
	}
	return best
}

// columnKind selects the column command for req: with the closed-page
// policy the row auto-precharges when no other queued request targets it.
func (c *Controller) columnKind(req *Request, cd *slots) dram.CommandKind {
	auto := c.cfg.Policy == ClosedPage && cd.sameRowCount-1 < c.cfg.ClosedKeepOpen
	switch {
	case req.Write && auto:
		return dram.CmdWRA
	case req.Write:
		return dram.CmdWR
	case auto:
		return dram.CmdRDA
	default:
		return dram.CmdRD
	}
}

func (c *Controller) issueColumn(now int64, req *Request, kind dram.CommandKind) {
	c.issue(now, dram.Command{Kind: kind, Loc: req.loc}, req.bank)
	cd := &c.cand[req.bank]
	if kind.AutoPrecharge() {
		// The row closes by itself as soon as a precharge would be legal.
		cd.apAt, _ = c.dev.Ready(req.bank, dram.CmdPRE)
		c.apNext = min(c.apNext, cd.apAt)
	}
	cd.queue.remove(req, inBank)
	c.stats.BankAccesses[req.bank]++
	c.classifyPage(req)
	if c.qosReg && req.src >= 0 && req.src < len(c.qosUsed) {
		// Column commands of both directions consume the source budget.
		c.qosUsed[req.src]++
	}
	if c.qosTrack {
		start, end := c.dev.DataWindow(kind, now)
		c.busOwner = append(c.busOwner, busWindow{start, end, req.src})
	}
	if req.Write {
		c.writeQ.remove(req, inQueue)
		if c.wbuf[req.Addr] == req {
			delete(c.wbuf, req.Addr)
		}
		c.stats.IssuedWrites++
		if req.OnComplete != nil {
			req.OnComplete(req, now)
		}
		c.recycle(req)
		return
	}
	c.readQ.remove(req, inQueue)
	if c.qosReg && req.src >= 0 && req.src < len(c.readsBySrc) {
		c.readsBySrc[req.src]--
	}
	c.stats.IssuedReads++
	c.readDone(req, now)
}

// markBlocked records which banks had a pending candidate that made no
// progress this cycle. The accountant turns these into 1/n "constraints"
// shares (busy banks take precedence there, so double marking is safe).
//
// The mark is widened to the scope of the binding timing constraint: a
// bank delayed by a bank-group restriction (e.g. tCCD_L) marks its whole
// group, and a rank restriction (tFAW, bus turnaround, ...) marks the
// whole rank — those constraints are what keeps the *other* banks of that
// scope from transferring data, so the lost cycle belongs to them too.
//
// It is called lazily, from account, and only on cycles whose channel
// state can actually consume the mask (bus idle, no refresh). On a cycle
// that issued a command it judges the candidates that command was picked
// from — the issued bank still shows its pre-issue lead candidate,
// whose group or rank widening counts although the bank's own bit is
// cleared — against the device state after the issue, which is what
// issue's retime cached. This mix of before and after is pinned by the
// golden outputs.
func (c *Controller) markBlocked(now int64) {
	c.blockedMask = 0
	for b := range c.cand {
		cd := &c.cand[b]
		if cd.col == nil && cd.act == nil && cd.pre == nil {
			continue
		}
		c.blockedMask |= 1 << b
		if cd.blockedUntil > now {
			c.blockedMask |= cd.wide
		}
	}
	// The bank a command was issued to made progress this cycle.
	if c.issuedCycle == now && c.lastIssuedBank >= 0 {
		c.blockedMask &^= 1 << c.lastIssuedBank
	}
}
