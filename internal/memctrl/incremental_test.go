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

func refScan(c *Controller, now int64) []slots {
	cand := make([]slots, len(c.cand))
	active, other := &c.readQ, &c.writeQ
	if c.writeMode {
		active, other = other, active
	}
	for req := active.head; req != nil; req = req.link[inQueue].next {
		if c.qosReg && !req.Write && c.heldReq(req) {
			continue
		}
		b := c.bankIndex(req.loc)
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
		b := c.bankIndex(req.loc)
		if c.dev.OpenRow(req.loc, now) == req.loc.Row {
			cand[b].hasHitOther = true
			cand[b].sameRowCount++
		}
	}
	return cand
}

// refPasses returns the command the former issue passes would place at
// cycle now from the given candidates, over one tier.
func refPasses(c *Controller, cand []slots, now int64, prio bool) (dram.Command, bool) {
	// Pass 1: ready column commands, oldest first.
	var best *Request
	var bestCmd dram.Command
	for b := range cand {
		cd := &cand[b]
		req := cd.col
		if prio {
			req = cd.colPrio
		}
		if req == nil || c.refPending[req.loc.Rank] {
			continue
		}
		cmd := dram.Command{Kind: c.columnKind(req, cd), Loc: req.loc}
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
		if req == nil || c.refPending[req.loc.Rank] {
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
		if req == nil || c.refPending[req.loc.Rank] ||
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
func refBlocked(c *Controller, cand []slots, now int64) uint64 {
	var mask uint64
	for b := range cand {
		cd := &cand[b]
		var req *Request
		var kind dram.CommandKind
		switch {
		case cd.col != nil:
			req = cd.col
			kind = c.columnKind(req, cd)
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

// tickChecked is Tick with the incremental state checked against the
// references at the two points where it is consumed: before the issue
// passes and in account.
func (r *diffRig) tickChecked(t *testing.T, now int64) {
	t.Helper()
	c := r.ctrl
	c.now = now
	c.dev.Sync(now)
	c.completeFinished(now)
	c.qosTick(now)
	c.updateRefresh(now)
	c.updateDrain()

	c.lastIssuedBank = -1
	refIssued := c.scheduleRefresh(now)
	c.freshen(now)

	ref := refScan(c, now)
	for b := range ref {
		cd := &c.cand[b]
		if cd.slots != ref[b] {
			t.Fatalf("cycle %d bank %d: incremental candidates %+v, rescan %+v", now, b, cd.slots, ref[b])
		}
		for _, req := range []*Request{cd.col, cd.colPrio} {
			if req != nil {
				checkReady(t, c, now, cd.ready, dram.Command{Kind: c.columnKind(req, &cd.slots), Loc: req.loc})
			}
		}
		for _, req := range []*Request{cd.act, cd.actPrio} {
			if req != nil {
				checkReady(t, c, now, cd.ready, dram.Command{Kind: dram.CmdACT, Loc: req.loc})
			}
		}
		for _, req := range []*Request{cd.pre, cd.prePrio} {
			if req != nil {
				loc := req.loc
				if loc.Row = c.dev.OpenRow(req.loc, now); loc.Row < 0 {
					t.Fatalf("cycle %d bank %d: precharge candidate on a closed bank", now, b)
				}
				checkReady(t, c, now, cd.readyPre, dram.Command{Kind: dram.CmdPRE, Loc: loc})
			}
		}
	}

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

	// The masks account consumes on bus-idle cycles, checked on every
	// cycle: ref still holds the candidates the command was picked from.
	c.markBlocked(now)
	if want := refBlocked(c, ref, now); c.blockedMask != want {
		t.Fatalf("cycle %d: blocked mask %#x from cached scopes, %#x from Blocking", now, c.blockedMask, want)
	}
	if now >= c.busyUntil {
		c.preMask, c.actMask, c.busyUntil = c.dev.BusyMasks(now)
	}
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
	if c.preMask != preMask || c.actMask != actMask {
		t.Fatalf("cycle %d: cached busy masks pre %#x act %#x, BankBusy says pre %#x act %#x",
			now, c.preMask, c.actMask, preMask, actMask)
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
	ddr4Geo, ddr4Tim := dram.DDR4_2400()
	hbm, err := standard.Lookup("hbm2-2000")
	if err != nil {
		t.Fatal(err)
	}
	geometries := []struct {
		name string
		geo  dram.Geometry
		tim  dram.Timing
	}{{"ddr4-2400", ddr4Geo, ddr4Tim}, {"hbm2-2000", hbm.Geometry, hbm.Timing}}
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
							runDifferential(t, geo, tim, cfg, seed, cycles)
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
	geo, tim := dram.DDR4_2400()
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
