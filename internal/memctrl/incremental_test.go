package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/qos"
)

// The controller keeps its per-bank candidates and the device's answers
// about them incrementally. The references below recompute all of it
// from scratch, the way the controller itself did on every cycle before:
// refScan is its former whole-queue scan, moved here verbatim (it fills
// its own slots and walks the intrusive queues), refPasses its former
// issue passes and refBlocked its former markBlocked, each asking the
// device per candidate.

// refCand is one bank's candidates as refScan finds them, with the
// open-row hits the former passes held a precharge back for.
type refCand struct {
	slots
	hasHitActive bool // some active-direction request hits the open row
	hasHitPrio   bool // some priority-tier active-direction request hits the open row
}

func refScan(c *Controller, now int64) []refCand {
	cand := make([]refCand, len(c.cand))
	active, other := &c.readQ, &c.writeQ
	if c.writeMode {
		active, other = other, active
	}
	for req := active.head; req != nil; req = req.link[inQueue].next {
		if c.qosReg && !req.Write && c.heldReq(req) {
			continue
		}
		b := c.geo.Bank(req.loc)
		cd := &cand[b]
		openRow := c.dev.OpenRow(req.loc, now)
		hit := openRow == req.loc.Row
		if c.qosPrio && c.reqPrio(req, now) {
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
		if c.cfg.Sched == FCFS && (cd.col != nil || cd.act != nil || cd.pre != nil) {
			// Strict order: only the oldest request per bank is a
			// candidate; younger row hits may not overtake it. Same-row
			// counting below still needs every request.
			if hit {
				cd.hasHitActive = true
				cd.sameRowCount++
			}
			continue
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
	for req := other.head; req != nil; req = req.link[inQueue].next {
		if c.qosReg && !req.Write && c.heldReq(req) {
			continue
		}
		b := c.geo.Bank(req.loc)
		if c.dev.OpenRow(req.loc, now) == req.loc.Row {
			cand[b].sameRowCount++
		}
	}
	return cand
}

// refPasses returns the command the former issue passes would place at
// cycle now from the given candidates, over one tier.
func refPasses(c *Controller, cand []refCand, now int64, prio bool) (dram.Command, bool) {
	// Pass 1: ready column commands, oldest first.
	var best *Request
	var bestCmd dram.Command
	for b := range cand {
		cd := &cand[b]
		req := cd.col
		if prio {
			req = cd.colPrio
		}
		if req == nil || c.refBanks&(1<<b) != 0 {
			continue
		}
		cmd := dram.Command{Kind: c.columnKind(req, &cd.slots), Loc: req.loc}
		if c.dev.CanIssue(cmd, now) {
			if best == nil || req.arrive < best.arrive {
				best, bestCmd = req, cmd
			}
		}
	}
	if best != nil {
		return bestCmd, true
	}

	// Pass 2: activates, oldest first.
	for b := range cand {
		req := cand[b].act
		if prio {
			req = cand[b].actPrio
		}
		if req == nil || c.refBanks&(1<<b) != 0 {
			continue
		}
		cmd := dram.Command{Kind: dram.CmdACT, Loc: req.loc}
		if c.dev.CanIssue(cmd, now) {
			if best == nil || req.arrive < best.arrive {
				best, bestCmd = req, cmd
			}
		}
	}
	if best != nil {
		return bestCmd, true
	}

	// Pass 3: precharges for row conflicts, oldest first.
	for b := range cand {
		cd := &cand[b]
		req := cd.pre
		hitGuard := cd.hasHitActive
		if prio {
			req = cd.prePrio
			hitGuard = cd.hasHitPrio
		}
		if req == nil || c.refBanks&(1<<b) != 0 ||
			(hitGuard && c.cfg.Sched != FCFS) {
			continue
		}
		loc := req.loc
		loc.Row = c.dev.OpenRow(req.loc, now)
		if loc.Row < 0 {
			continue // raced with an auto-precharge
		}
		cmd := dram.Command{Kind: dram.CmdPRE, Loc: loc}
		if c.dev.CanIssue(cmd, now) {
			if best == nil || req.arrive < best.arrive {
				best, bestCmd = req, cmd
			}
		}
	}
	return bestCmd, best != nil
}

// refBlocked is the former markBlocked over the given candidates.
func refBlocked(c *Controller, cand []refCand, now int64) uint64 {
	var mask uint64
	for b := range cand {
		cd := &cand[b]
		var req *Request
		var kind dram.CommandKind
		switch {
		case cd.col != nil:
			req = cd.col
			kind = c.columnKind(req, &cd.slots)
		case cd.act != nil:
			req = cd.act
			kind = dram.CmdACT
		case cd.pre != nil:
			req = cd.pre
			kind = dram.CmdPRE
		default:
			continue
		}
		mask |= 1 << b
		if c.cfg.FlatConstraints {
			continue
		}
		loc := req.loc
		if kind == dram.CmdPRE {
			if open := c.dev.OpenRow(req.loc, now); open >= 0 {
				loc.Row = open
			}
		}
		switch c.dev.Blocking(dram.Command{Kind: kind, Loc: loc}, now) {
		case dram.ScopeGroup:
			base := uint((loc.Rank*c.geo.Groups + loc.Group) * c.geo.Banks)
			mask |= ((uint64(1) << c.geo.Banks) - 1) << base
		case dram.ScopeRank:
			per := uint(c.geo.BanksPerRank())
			mask |= ((uint64(1) << per) - 1) << (uint(loc.Rank) * per)
		}
	}
	// The bank a command was issued to made progress this cycle.
	if c.issuedCycle == now && c.lastIssuedBank >= 0 {
		mask &^= 1 << c.lastIssuedBank
	}
	return mask
}

// checkReady compares one bank's cached ready time for cmd's class with
// the device's fresh answer.
func checkReady(t *testing.T, c *Controller, now int64, cached int64, cmd dram.Command) {
	t.Helper()
	at, ok := c.dev.EarliestIssue(cmd, now)
	switch {
	case !ok && cached != never:
		t.Fatalf("cycle %d: %v cannot issue in this bank state, cached ready %d", now, cmd, cached)
	case ok && at > now && cached != at:
		t.Fatalf("cycle %d: %v may issue at %d, cached ready %d", now, cmd, at, cached)
	case ok && at == now && cached > now:
		t.Fatalf("cycle %d: %v may issue now, cached ready %d", now, cmd, cached)
	}
}

// checkMasks compares the candidate masks with a scan of the rescanned
// slots: a tier's col and act bits mark its row-hit and activate
// candidates, its pre bit a precharge candidate that no hit of the tier
// holds back (under FR-FCFS), and the normal tier's union the banks with
// a candidate.
func checkMasks(t *testing.T, c *Controller, ref []refCand, now int64) {
	t.Helper()
	var want [2]tierMasks
	var anyCand uint64
	for b := range ref {
		cd, bit := &ref[b], uint64(1)<<b
		for tier, s := range [2]struct {
			col, act, pre *Request
			hit           bool
		}{{cd.col, cd.act, cd.pre, cd.hasHitActive}, {cd.colPrio, cd.actPrio, cd.prePrio, cd.hasHitPrio}} {
			if s.col != nil {
				want[tier].col |= bit
			}
			if s.act != nil {
				want[tier].act |= bit
			}
			if s.pre != nil && !(s.hit && c.cfg.Sched != FCFS) {
				want[tier].pre |= bit
			}
		}
		if cd.col != nil || cd.act != nil || cd.pre != nil {
			anyCand |= bit
		}
	}
	if c.tiers != want || c.tiers[0].any() != anyCand {
		t.Fatalf("cycle %d: masks %+v any %#x, the slots say %+v any %#x", now, c.tiers, c.tiers[0].any(), want, anyCand)
	}
}

// checkRetimed requires every bank's cached device answers to be what
// retiming it now gives: whatever issue did not retime did not move.
func checkRetimed(t *testing.T, c *Controller, now int64) {
	t.Helper()
	ready, readyPre, blockedUntil, wide, wake := c.ready, c.readyPre, c.blockedUntil, c.wide, c.wake
	for b := range c.cand {
		c.retime(b)
	}
	for b := range c.cand {
		if c.ready[b] != ready[b] || c.readyPre[b] != readyPre[b] ||
			c.blockedUntil[b] != blockedUntil[b] || c.wide[b] != wide[b] {
			t.Fatalf("cycle %d bank %d: cached ready %d pre %d blocked until %d wide %#x, fresh %d %d %d %#x",
				now, b, ready[b], readyPre[b], blockedUntil[b], wide[b],
				c.ready[b], c.readyPre[b], c.blockedUntil[b], c.wide[b])
		}
	}
	c.wake = wake
}

// checkRefDue compares the controller's earliest refresh deadline with a
// scan: refDue is the earliest deadline of a rank with no refresh pending.
func checkRefDue(t *testing.T, c *Controller, now int64) {
	t.Helper()
	refDue, per := int64(never), c.geo.BanksPerRank()
	for r, due := range c.nextRefresh {
		if c.refBanks&((1<<per-1)<<(r*per)) == 0 {
			refDue = min(refDue, due)
		}
	}
	if c.refDue != refDue {
		t.Fatalf("cycle %d: refresh due %d; the scan says %d", now, c.refDue, refDue)
	}
}

// tickChecked is Tick with the incremental state checked against the
// references at the two points where it is consumed: before the issue
// passes and in account.
func (r *diffRig) tickChecked(t *testing.T, now int64) {
	t.Helper()
	c := r.ctrl
	c.now = now
	c.stale |= c.dev.Sync(now)
	c.completeFinished(now)
	c.qosTick(now)
	c.updateRefresh(now)
	c.updateDrain()

	c.lastIssuedBank = -1
	refIssued := c.scheduleRefresh(now)
	c.freshen(now)
	checkRefDue(t, c, now)

	ref := refScan(c, now)
	for b := range ref {
		cd := &c.cand[b]
		if cd.slots != ref[b].slots {
			t.Fatalf("cycle %d bank %d: incremental candidates %+v, rescan %+v", now, b, cd.slots, ref[b].slots)
		}
		for _, req := range []*Request{cd.col, cd.colPrio} {
			if req != nil {
				checkReady(t, c, now, c.ready[b], dram.Command{Kind: c.columnKind(req, &cd.slots), Loc: req.loc})
			}
		}
		for _, req := range []*Request{cd.act, cd.actPrio} {
			if req != nil {
				checkReady(t, c, now, c.ready[b], dram.Command{Kind: dram.CmdACT, Loc: req.loc})
			}
		}
		for _, req := range []*Request{cd.pre, cd.prePrio} {
			if req != nil {
				loc := req.loc
				if loc.Row = c.dev.OpenRow(req.loc, now); loc.Row < 0 {
					t.Fatalf("cycle %d bank %d: precharge candidate on a closed bank", now, b)
				}
				checkReady(t, c, now, c.readyPre[b], dram.Command{Kind: dram.CmdPRE, Loc: loc})
			}
		}
	}
	checkMasks(t, c, ref, now)
	checkRetimed(t, c, now)

	if !refIssued {
		want, ok := dram.Command{}, false
		if c.qosPrio {
			want, ok = refPasses(c, ref, now, true)
		}
		if !ok {
			want, ok = refPasses(c, ref, now, false)
		}
		if ok && now < c.wake {
			t.Fatalf("cycle %d: %v can issue, but the passes sleep until %d", now, want, c.wake)
		}
		c.issueNormal(now)
		if got := r.lastAt == now; got != ok || (ok && r.last != want) {
			t.Fatalf("cycle %d: issued %v (%v), the per-candidate passes pick %v (%v)", now, r.last, got, want, ok)
		}
	}

	c.account(now)
	checkRefDue(t, c, now)

	// The masks account consumes on bus-idle cycles, checked on every
	// cycle: ref still holds the candidates the command was picked from.
	if got, want := c.markBlocked(now), refBlocked(c, ref, now); got != want {
		t.Fatalf("cycle %d: blocked mask %#x from cached scopes, %#x from Blocking", now, got, want)
	}
	busyPre, busyAct, _ := c.dev.BusyMasks(now)
	var preMask, actMask uint64
	for b := range c.cand {
		pre, act := c.dev.BankBusy(b, now)
		if pre {
			preMask |= 1 << b
		}
		if act {
			actMask |= 1 << b
		}
	}
	if busyPre != preMask || busyAct != actMask {
		t.Fatalf("cycle %d: cached busy masks pre %#x act %#x, BankBusy says pre %#x act %#x",
			now, busyPre, busyAct, preMask, actMask)
	}
}

// diffRig is one controller on a verifier-checked device, with a running
// digest of everything it issued and completed.
type diffRig struct {
	ctrl   *Controller
	mapper *addrmap.Scheme
	done   func(*Request, int64) // completed, bound once
	last   dram.Command          // the latest command issued,
	lastAt int64                 // and its cycle
	digest uint64
}

func newDiffRig(t *testing.T, geo dram.Geometry, tim dram.Timing, cfg Config) *diffRig {
	t.Helper()
	r := &diffRig{mapper: addrmap.MustDefault(geo, 1), lastAt: -1}
	r.done = r.completed
	dev := dram.NewDevice(geo, tim)
	ver := dram.NewVerifier(geo, tim)
	dev.Trace = func(cycle int64, cmd dram.Command) {
		if vs := ver.Check(cycle, cmd); vs != nil {
			t.Fatalf("timing violation: %v", vs[0])
		}
		r.last, r.lastAt = cmd, cycle
		r.mix(uint64(cycle), uint64(cmd.Kind), uint64(cmd.Loc.Rank), uint64(cmd.Loc.Group),
			uint64(cmd.Loc.Bank), uint64(cmd.Loc.Row), uint64(cmd.Loc.Col))
	}
	ctrl, err := New(dev, r.mapper, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ctrl = ctrl
	return r
}

func (r *diffRig) mix(vals ...uint64) {
	for _, v := range vals {
		r.digest = (r.digest ^ v) * 0x100000001b3
	}
}

func (r *diffRig) completed(req *Request, at int64) {
	r.mix(req.Addr, uint64(at), uint64(req.Latency().Total))
}

// TestIncrementalSchedulingMatchesRescan drives seeded random traffic
// through a controller whose every cycle is checked by tickChecked, and
// the same traffic through a second controller that just runs Tick; the
// two must end up identical, so the checked cycle is the real one.
func TestIncrementalSchedulingMatchesRescan(t *testing.T) {
	std := standard.Default()
	ddr4Geo, ddr4Tim := std.Geometry, std.Timing
	hbm, err := standard.Lookup("hbm2-2000")
	if err != nil {
		t.Fatal(err)
	}
	// DDR5's 32 banks make 64 at two ranks: every mask at full width. Its
	// clock is twice DDR4-2400's, and so is its run.
	ddr5, err := standard.Lookup("ddr5-4800")
	if err != nil {
		t.Fatal(err)
	}
	geometries := []struct {
		name  string
		geo   dram.Geometry
		tim   dram.Timing
		scale int64 // run length in multiples of cycles
	}{{"ddr4-2400", ddr4Geo, ddr4Tim, 1}, {"hbm2-2000", hbm.Geometry, hbm.Timing, 1}, {"ddr5-4800", ddr5.Geometry, ddr5.Timing, 2}}
	policies := []struct {
		name string
		qos  qos.Config
	}{
		{"noqos", qos.Config{}},
		{"regulated", qos.Config{Sources: 4, Window: 512, Budget: []int{24, 0, 40, 0}}},
		{"rt-aging", qos.Config{Sources: 4, Window: 1024, Budget: []int{0, 0, 64, 0}, RT: []bool{false, true, false, false}, Aging: 300}},
	}
	cycles := int64(8000)
	if testing.Short() {
		cycles = 4000
	}
	seed := int64(0)
	for _, g := range geometries {
		for ranks := 1; ranks <= 2; ranks++ {
			for _, sched := range []Scheduler{FRFCFS, FCFS} {
				for _, policy := range []PagePolicy{OpenPage, ClosedPage} {
					for _, q := range policies {
						geo, tim := g.geo, g.tim
						geo.Ranks = ranks
						tim.REFI = tim.RFC * 6 // many refreshes within the run
						cfg := DefaultConfig()
						cfg.Sched, cfg.Policy, cfg.QoS = sched, policy, q.qos
						cfg.Recycle = true
						cfg.ReadQueueCap = 24
						cfg.ClosedKeepOpen = 2
						seed++
						name := fmt.Sprintf("%s/%dr/%v/%v/%s", g.name, ranks, sched, policy, q.name)
						t.Run(name, func(t *testing.T) {
							runDifferential(t, geo, tim, cfg, seed, cycles*g.scale)
						})
					}
				}
			}
		}
	}
}

func runDifferential(t *testing.T, geo dram.Geometry, tim dram.Timing, cfg Config, seed, cycles int64) {
	checked := newDiffRig(t, geo, tim, cfg)
	plain := newDiffRig(t, geo, tim, cfg)
	rigs := []*diffRig{checked, plain}
	rng := rand.New(rand.NewSource(seed))

	// A few banks and rows, so requests hit, conflict and share rows;
	// the mix changes by phase between read-heavy, write-heavy and idle.
	type target struct{ rank, group, bank int }
	targets := make([]target, 6)
	for i := range targets {
		targets[i] = target{rng.Intn(geo.Ranks), rng.Intn(geo.Groups), rng.Intn(geo.Banks)}
	}
	var issued int
	for now := int64(0); now < cycles; now++ {
		phase := (now / 700) % 5
		attempts, writeShare := rng.Intn(3), 0.3
		switch phase {
		case 1:
			writeShare = 0.9
		case 2:
			attempts = rng.Intn(2) * rng.Intn(2)
		case 3:
			writeShare = 0
		case 4:
			attempts = 0 // drain, go quiet, refresh in peace
		}
		for ; attempts > 0; attempts-- {
			tg := targets[rng.Intn(len(targets))]
			loc := dram.Loc{Rank: tg.rank, Group: tg.group, Bank: tg.bank, Row: rng.Intn(3), Col: rng.Intn(geo.Cols)}
			addr, src, write := checked.mapper.Encode(loc), rng.Intn(5)-1, rng.Float64() < writeShare
			var oks [2]bool
			for i, r := range rigs {
				if write {
					_, oks[i] = r.ctrl.EnqueueWriteFrom(now, addr, src, nil, nil)
				} else {
					_, oks[i] = r.ctrl.EnqueueReadFrom(now, addr, src, r.done, nil)
				}
			}
			if oks[0] != oks[1] {
				t.Fatalf("cycle %d: enqueue accepted by one controller only", now)
			}
		}
		checked.tickChecked(t, now)
		if checked.lastAt == now {
			issued++
		}
		plain.ctrl.Tick(now)
		if checked.digest != plain.digest {
			t.Fatalf("cycle %d: the checked controller and the plain one diverged", now)
		}
	}
	if checked.ctrl.Stats() != plain.ctrl.Stats() || checked.ctrl.BandwidthStack() != plain.ctrl.BandwidthStack() ||
		checked.ctrl.LatencyStack() != plain.ctrl.LatencyStack() {
		t.Fatal("the checked controller and the plain one ended with different statistics")
	}
	st := checked.ctrl.Stats()
	if issued < int(cycles/20) || st.Refreshes == 0 || st.DrainEntries == 0 || st.PageHits == 0 || st.PageMiss == 0 {
		t.Fatalf("traffic too thin to mean anything: %d commands, stats %+v", issued, st)
	}
}

// TestSaturatedTickDoesNotAllocate pins the steady state: with recycled
// requests, a full read queue, writes draining and the verifier attached,
// a cycle allocates nothing.
func TestSaturatedTickDoesNotAllocate(t *testing.T) {
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	cfg := DefaultConfig()
	cfg.Recycle = true
	r := newDiffRig(t, geo, tim, cfg)
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	cycle := func() {
		for i := 0; i < 2; i++ {
			loc := dram.Loc{Group: rng.Intn(geo.Groups), Bank: rng.Intn(geo.Banks), Row: rng.Intn(4), Col: rng.Intn(geo.Cols)}
			addr := r.mapper.Encode(loc)
			if rng.Intn(3) == 0 {
				r.ctrl.EnqueueWrite(now, addr, nil, nil)
			} else {
				r.ctrl.EnqueueRead(now, addr, r.done, nil)
			}
		}
		r.ctrl.Tick(now)
		now++
	}
	for i := 0; i < 20000; i++ {
		cycle() // grow every pool and FIFO to its steady size
	}
	if st := r.ctrl.Stats(); st.MaxReadQueue < cfg.ReadQueueCap || st.DrainEntries == 0 {
		t.Fatalf("not saturated: %+v", st)
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Errorf("a saturated Tick allocates %v times per cycle, want 0", allocs)
	}
}
