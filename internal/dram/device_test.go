package dram_test

import (
	"math/rand"
	"testing"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

// lookup returns a registered standard's geometry and timing.
func lookup(name string) (dram.Geometry, dram.Timing) {
	s := standard.MustLookup(name)
	return s.Geometry, s.Timing
}

func testConfig() (dram.Geometry, dram.Timing) { return lookup("ddr4-2400") }

func TestDDR4ConfigValid(t *testing.T) {
	g, tm := testConfig()
	if err := g.Validate(); err != nil {
		t.Fatalf("geometry invalid: %v", err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("timing invalid: %v", err)
	}
	if got := g.PeakBandwidthGBs(); got != 19.2 {
		t.Errorf("peak bandwidth = %v GB/s, want 19.2", got)
	}
	if got := g.TotalBanks(); got != 16 {
		t.Errorf("total banks = %d, want 16", got)
	}
	if got := g.RowBytes(); got != 8192 {
		t.Errorf("row bytes = %d, want 8192", got)
	}
	if got := g.CapacityBytes(); got != 4<<30 {
		t.Errorf("capacity = %d, want 4 GiB", got)
	}
	if got := g.BytesPerCycle(); got != 16 {
		t.Errorf("bytes/cycle = %d, want 16", got)
	}
}

func TestGeometryValidateRejectsBad(t *testing.T) {
	good, _ := testConfig()
	cases := []func(*dram.Geometry){
		func(g *dram.Geometry) { g.Ranks = 0 },
		func(g *dram.Geometry) { g.Groups = -1 },
		func(g *dram.Geometry) { g.Banks = 0 },
		func(g *dram.Geometry) { g.Rows = 0 },
		func(g *dram.Geometry) { g.Cols = 0 },
		func(g *dram.Geometry) { g.LineBytes = 0 },
		func(g *dram.Geometry) { g.BusBytes = 0 },
		func(g *dram.Geometry) { g.DataRate = 0 },
		func(g *dram.Geometry) { g.ClockMHz = 0 },
		func(g *dram.Geometry) { g.Ranks = 8; g.Groups = 8; g.Banks = 8 },
	}
	for i, mutate := range cases {
		g := good
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad geometry %+v", i, g)
		}
	}
}

func TestTimingValidateRejectsBad(t *testing.T) {
	_, good := testConfig()
	cases := []func(*dram.Timing){
		func(tm *dram.Timing) { tm.CL = 0 },
		func(tm *dram.Timing) { tm.RC = tm.RAS + tm.RP - 1 },
		func(tm *dram.Timing) { tm.CCDL = tm.CCDS - 1 },
		func(tm *dram.Timing) { tm.REFI = tm.RFC },
		func(tm *dram.Timing) { tm.RFC = -1 },
	}
	for i, mutate := range cases {
		tm := good
		mutate(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad timing %+v", i, tm)
		}
	}
}

func TestActivateReadPrechargeSequence(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	loc := dram.Loc{Row: 5, Col: 3}

	d.Sync(0)
	if _, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: loc}, 0); ok {
		t.Fatal("RD should be impossible on a precharged bank")
	}
	if !d.CanIssue(dram.Command{Kind: dram.CmdACT, Loc: loc}, 0) {
		t.Fatal("ACT should be legal at cycle 0")
	}
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: loc}, 0)

	if d.CanIssue(dram.Command{Kind: dram.CmdRD, Loc: loc}, int64(tm.RCD)-1) {
		t.Error("RD legal before tRCD")
	}
	if !d.CanIssue(dram.Command{Kind: dram.CmdRD, Loc: loc}, int64(tm.RCD)) {
		t.Error("RD illegal at tRCD")
	}
	d.Sync(int64(tm.RCD))
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: loc}, int64(tm.RCD))

	// PRE must wait for max(tRAS from ACT, tRTP from RD).
	preOK := max(int64(tm.RAS), int64(tm.RCD)+int64(tm.RTP))
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdPRE, Loc: loc}, 0); !ok || got != preOK {
		t.Errorf("PRE earliest = %d,%v want %d", got, ok, preOK)
	}
	d.Sync(preOK)
	d.Issue(dram.Command{Kind: dram.CmdPRE, Loc: loc}, preOK)

	// ACT must wait max(tRP from PRE, tRC from previous ACT).
	actOK := max(preOK+int64(tm.RP), int64(tm.RC))
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdACT, Loc: loc}, 0); !ok || got != actOK {
		t.Errorf("ACT earliest = %d,%v want %d", got, ok, actOK)
	}
}

func TestReadWrongRowNotIssuable(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}, 0)
	d.Sync(int64(tm.RCD))
	if _, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 2}}, int64(tm.RCD)); ok {
		t.Error("RD to a different row than the open one must not be issuable")
	}
	if !d.CanIssue(dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1}}, int64(tm.RCD)) {
		t.Error("row 1 should be open and usable after tRCD")
	}
	if d.CanIssue(dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1}}, int64(tm.RCD)-1) {
		t.Error("row must not be usable before activation completes")
	}
}

func TestSameGroupCCDLSpacing(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	a := dram.Loc{Group: 0, Bank: 0, Row: 1}
	b := dram.Loc{Group: 0, Bank: 1, Row: 1}
	c := dram.Loc{Group: 1, Bank: 0, Row: 1}

	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: a}, 0)
	d.Sync(int64(tm.RRDL))
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: b}, int64(tm.RRDL))
	d.Sync(int64(tm.RRDL) + int64(tm.RRDS))
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: c}, int64(tm.RRDL)+int64(tm.RRDS))

	start := int64(60) // past all tRCDs
	d.Sync(start)
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: a}, start)

	// Same bank group: tCCD_L; different group: tCCD_S (but bus may bind).
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: b}, start); !ok || got != start+int64(tm.CCDL) {
		t.Errorf("same-group RD earliest = %d,%v want %d", got, ok, start+int64(tm.CCDL))
	}
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: c}, start); !ok || got != start+int64(tm.CCDS) {
		t.Errorf("cross-group RD earliest = %d,%v want %d", got, ok, start+int64(tm.CCDS))
	}
}

func TestRRDAndFAW(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	d.Sync(0)
	// Issue 4 ACTs to different groups as fast as tRRD_S allows.
	var last int64
	for i := 0; i < 4; i++ {
		at := int64(i * tm.RRDS)
		d.Sync(at)
		d.Issue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Group: i, Bank: 0, Row: 1}}, at)
		last = at
	}
	// The 5th ACT (bank 1 of group 0) is FAW-bound, not RRD-bound.
	want := int64(tm.FAW) // first ACT at 0 + FAW
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Group: 0, Bank: 1, Row: 1}}, last); !ok || got != want {
		t.Errorf("5th ACT earliest = %d,%v want %d (tFAW)", got, ok, want)
	}
}

func TestWriteReadTurnaround(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	a := dram.Loc{Group: 0, Bank: 0, Row: 1}
	b := dram.Loc{Group: 1, Bank: 0, Row: 1}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: a}, 0)
	d.Sync(int64(tm.RRDS))
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: b}, int64(tm.RRDS))

	start := int64(60)
	d.Sync(start)
	d.Issue(dram.Command{Kind: dram.CmdWR, Loc: a}, start)

	wantSame := start + int64(tm.WriteToRead(true))
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: a}, start); !ok || got != wantSame {
		t.Errorf("WR->RD same group earliest = %d,%v want %d", got, ok, wantSame)
	}
	wantDiff := start + int64(tm.WriteToRead(false))
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: b}, start); !ok || got != wantDiff {
		t.Errorf("WR->RD cross group earliest = %d,%v want %d", got, ok, wantDiff)
	}

	// And read-to-write turnaround.
	d.Sync(wantDiff)
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: b}, wantDiff)
	wantWR := wantDiff + int64(tm.RTW)
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdWR, Loc: a}, wantDiff); !ok || got < wantWR {
		t.Errorf("RD->WR earliest = %d,%v want >= %d", got, ok, wantWR)
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	d.Sync(0)
	if !d.CanIssue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}, 0) {
		t.Fatal("REF should be legal with all banks precharged")
	}
	d.Issue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}, 0)
	if !d.AnyRefreshing(0) || !d.AnyRefreshing(int64(tm.RFC)-1) {
		t.Error("rank should be refreshing during tRFC")
	}
	if d.AnyRefreshing(int64(tm.RFC)) {
		t.Error("rank should stop refreshing at tRFC")
	}
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}, 0); !ok || got != int64(tm.RFC) {
		t.Errorf("ACT during refresh earliest = %d,%v want %d", got, ok, tm.RFC)
	}
}

func TestRefreshRequiresPrechargedBanks(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}, 0)
	if _, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}, int64(tm.RCD)); ok {
		t.Error("REF must not be issuable with an open bank")
	}
}

func TestAutoPrecharge(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	loc := dram.Loc{Row: 7}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: loc}, 0)
	rd := max(int64(tm.RCD), int64(tm.RAS)-int64(tm.RTP)) // so tRAS holds at precharge time
	d.Sync(rd)
	d.Issue(dram.Command{Kind: dram.CmdRDA, Loc: loc}, rd)

	apAt := rd + int64(tm.RTP)
	if d.OpenRow(loc, apAt) != -1 {
		t.Error("row must be closed once the auto-precharge begins")
	}
	d.Sync(apAt)
	// Next ACT must wait tRP after the auto-precharge began.
	want := max(apAt+int64(tm.RP), int64(tm.RC))
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 9}}, apAt); !ok || got != want {
		t.Errorf("ACT after RDA earliest = %d,%v want %d", got, ok, want)
	}
	if pre, _ := d.BankBusy(0, apAt); !pre {
		t.Error("bank should report precharging during the auto-precharge window")
	}
}

func TestDataBusOccupancy(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	a := dram.Loc{Group: 0, Bank: 0, Row: 1}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: a}, 0)
	rd := int64(tm.RCD)
	d.Sync(rd)
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: a}, rd)
	start, end := d.DataWindow(dram.CmdRD, rd)
	if start != rd+int64(tm.CL) || end != start+int64(tm.BL2) {
		t.Fatalf("data window = [%d,%d), want [%d,%d)", start, end, rd+int64(tm.CL), rd+int64(tm.CL)+int64(tm.BL2))
	}
	if k := d.ConsumeBusKind(start - 1); k != dram.DataNone {
		t.Errorf("bus kind before window = %v, want none", k)
	}
	for c := start; c < end; c++ {
		if k := d.ConsumeBusKind(c); k != dram.DataRead {
			t.Errorf("bus kind at %d = %v, want read", c, k)
		}
	}
	if k := d.ConsumeBusKind(start); k != dram.DataNone {
		t.Errorf("bus kind after consume = %v, want none", k)
	}
}

func TestBankBusyClassification(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	loc := dram.Loc{Row: 1}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: loc}, 0)
	if _, act := d.BankBusy(0, 0); !act {
		t.Error("bank should be activating at ACT issue")
	}
	if _, act := d.BankBusy(0, int64(tm.RCD)-1); !act {
		t.Error("bank should be activating until tRCD")
	}
	if pre, act := d.BankBusy(0, int64(tm.RCD)); pre || act {
		t.Error("bank should be quiet after tRCD")
	}
	preAt := int64(tm.RAS)
	d.Sync(preAt)
	d.Issue(dram.Command{Kind: dram.CmdPRE, Loc: loc}, preAt)
	if pre, _ := d.BankBusy(0, preAt); !pre {
		t.Error("bank should be precharging at PRE issue")
	}
	if pre, _ := d.BankBusy(0, preAt+int64(tm.RP)); pre {
		t.Error("bank should be quiet after tRP")
	}
}

func TestIllegalIssuePanics(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	d.Sync(0)
	defer func() {
		if recover() == nil {
			t.Error("Issue of an illegal command must panic")
		}
	}()
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1}}, 0) // bank precharged: illegal
}

func TestSyncBackwardsPanics(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	d.Sync(10)
	defer func() {
		if recover() == nil {
			t.Error("Sync backwards must panic")
		}
	}()
	d.Sync(9)
}

// TestRandomScheduleIsVerifiable drives the device with a random but legal
// command stream (legal by construction via EarliestIssue) and replays the
// resulting trace through the independent Verifier. Any disagreement between
// the two constraint formulations fails the test.
func TestRandomScheduleIsVerifiable(t *testing.T) {
	g, tm := testConfig()
	for seed := int64(1); seed <= 5; seed++ {
		d := dram.NewDevice(g, tm)
		v := dram.NewVerifier(g, tm)
		d.Trace = func(cycle int64, cmd dram.Command) {
			if vs := v.Check(cycle, cmd); vs != nil {
				t.Fatalf("seed %d: verifier rejects device-issued command: %v", seed, vs[0])
			}
		}
		rng := rand.New(rand.NewSource(seed))
		now := int64(0)
		issued := 0
		nextREF := int64(tm.REFI)
		for issued < 3000 {
			d.Sync(now)
			if now >= nextREF {
				// Close all banks, then refresh.
				if at, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdPREA, Loc: dram.Loc{}}, now); ok {
					now = at
					d.Sync(now)
					d.Issue(dram.Command{Kind: dram.CmdPREA, Loc: dram.Loc{}}, now)
				}
				at, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}, now)
				if !ok {
					t.Fatalf("seed %d: REF impossible after PREA", seed)
				}
				now = at
				d.Sync(now)
				d.Issue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}, now)
				nextREF += int64(tm.REFI)
				issued++
				continue
			}
			loc := dram.Loc{
				Group: rng.Intn(g.Groups),
				Bank:  rng.Intn(g.Banks),
				Row:   rng.Intn(64),
				Col:   rng.Intn(g.Cols),
			}
			kinds := []dram.CommandKind{dram.CmdACT, dram.CmdPRE, dram.CmdRD, dram.CmdWR, dram.CmdRDA, dram.CmdWRA}
			kind := kinds[rng.Intn(len(kinds))]
			if open := d.OpenRow(loc, now); open >= 0 {
				loc.Row = open // column commands must target the open row
			}
			at, ok := d.EarliestIssue(dram.Command{Kind: kind, Loc: loc}, now)
			if !ok {
				now++ // not possible in this state; try something else
				continue
			}
			now = at
			d.Sync(now)
			d.Issue(dram.Command{Kind: kind, Loc: loc}, now)
			issued++
			now += int64(rng.Intn(4))
		}
		if v.Checked() < 3000 {
			t.Fatalf("seed %d: verifier saw only %d commands", seed, v.Checked())
		}
	}
}

func TestStatsCount(t *testing.T) {
	g, tm := testConfig()
	d := dram.NewDevice(g, tm)
	loc := dram.Loc{Row: 1}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: loc}, 0)
	d.Sync(int64(tm.RCD))
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: loc}, int64(tm.RCD))
	s := d.Stats()
	if s.ACT != 1 || s.RD != 1 || s.PRE != 0 || s.WR != 0 || s.REF != 0 {
		t.Errorf("stats = %+v, want 1 ACT + 1 RD", s)
	}
}

// TestEarliestIssueConsistencyProperty: whatever state the device is in,
// a command must actually be issuable at the cycle EarliestIssue names.
func TestEarliestIssueConsistencyProperty(t *testing.T) {
	g, tm := testConfig()
	for seed := int64(1); seed <= 8; seed++ {
		d := dram.NewDevice(g, tm)
		rng := rand.New(rand.NewSource(seed))
		now := int64(0)
		for step := 0; step < 800; step++ {
			d.Sync(now)
			loc := dram.Loc{
				Group: rng.Intn(g.Groups),
				Bank:  rng.Intn(g.Banks),
				Row:   rng.Intn(32),
				Col:   rng.Intn(g.Cols),
			}
			if open := d.OpenRow(loc, now); open >= 0 {
				loc.Row = open
			}
			kinds := []dram.CommandKind{dram.CmdACT, dram.CmdPRE, dram.CmdRD, dram.CmdWR, dram.CmdRDA, dram.CmdWRA, dram.CmdREF}
			kind := kinds[rng.Intn(len(kinds))]
			at, ok := d.EarliestIssue(dram.Command{Kind: kind, Loc: loc}, now)
			if !ok {
				now++
				continue
			}
			if at < now {
				t.Fatalf("seed %d: EarliestIssue returned past cycle %d < %d", seed, at, now)
			}
			d.Sync(at)
			if !d.CanIssue(dram.Command{Kind: kind, Loc: loc}, at) {
				t.Fatalf("seed %d: %v not issuable at its own earliest cycle %d", seed, kind, at)
			}
			// Only sometimes issue, so queries also hit untouched state.
			if rng.Intn(3) > 0 {
				d.Issue(dram.Command{Kind: kind, Loc: loc}, at)
			}
			now = at + int64(rng.Intn(5))
		}
	}
}
