package dram_test

import (
	"math/rand"
	"testing"

	"dramstacks/internal/dram"
)

func TestDualRankConfig(t *testing.T) {
	g, tm := lookup("ddr4-2400-2r")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalBanks() != 32 {
		t.Errorf("banks = %d, want 32", g.TotalBanks())
	}
	if g.CapacityBytes() != 8<<30 {
		t.Errorf("capacity = %d, want 8 GiB", g.CapacityBytes())
	}
	// Same peak bandwidth: ranks share the channel.
	if g.PeakBandwidthGBs() != 19.2 {
		t.Errorf("peak = %v, want 19.2", g.PeakBandwidthGBs())
	}
}

func TestRankToRankSwitchGap(t *testing.T) {
	g, tm := lookup("ddr4-2400-2r")
	d := dram.NewDevice(g, tm)
	a := dram.Loc{Rank: 0, Row: 1}
	b := dram.Loc{Rank: 1, Row: 1}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: a}, 0)
	d.Sync(int64(tm.RRDS))
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: b}, int64(tm.RRDS))

	start := int64(60)
	d.Sync(start)
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: a}, start)

	// Same rank, different group: tCCD_S gates (4 == BL/2, bus back to
	// back). Other rank: the data bus needs an extra tRTRS gap.
	otherRank := start + int64(tm.BL2) + int64(tm.RTRS)
	if got, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: b}, start); !ok || got != otherRank {
		t.Errorf("cross-rank RD earliest = %d,%v want %d (BL/2 + tRTRS)", got, ok, otherRank)
	}
	// Back on the same rank there is no switch gap.
	sameRank := start + int64(tm.CCDS)
	aa := dram.Loc{Rank: 0, Group: 1, Row: 1}
	d.Sync(start + 1)
	if _, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: aa}, start); ok {
		t.Log("same-rank other-group read needs its own ACT first (expected)")
	}
	_ = sameRank
}

func TestRefreshPerRankIndependent(t *testing.T) {
	g, tm := lookup("ddr4-2400-2r")
	d := dram.NewDevice(g, tm)
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{Rank: 0}}, 0)
	if 10 >= d.RefUntil(0) {
		t.Error("rank 0 not refreshing")
	}
	if 10 < d.RefUntil(1) {
		t.Error("rank 1 refreshing without a REF")
	}
	// Rank 1 can activate while rank 0 refreshes.
	if !d.CanIssue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Rank: 1, Row: 5}}, 10) {
		t.Error("rank 1 blocked by rank 0's refresh")
	}
	if d.CanIssue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Rank: 0, Row: 5}}, 10) {
		t.Error("rank 0 usable during its own refresh")
	}
}

// TestDualRankRandomScheduleVerified drives a dual-rank device with a
// random legal stream and replays it through the verifier, exercising
// the cross-rank bus rule.
func TestDualRankRandomScheduleVerified(t *testing.T) {
	g, tm := lookup("ddr4-2400-2r")
	for seed := int64(1); seed <= 3; seed++ {
		d := dram.NewDevice(g, tm)
		v := dram.NewVerifier(g, tm)
		d.Trace = func(cycle int64, cmd dram.Command) {
			if vs := v.Check(cycle, cmd); vs != nil {
				t.Fatalf("seed %d: %v", seed, vs[0])
			}
		}
		rng := rand.New(rand.NewSource(seed))
		now := int64(0)
		for issued := 0; issued < 2000; {
			d.Sync(now)
			loc := dram.Loc{
				Rank:  rng.Intn(2),
				Group: rng.Intn(g.Groups),
				Bank:  rng.Intn(g.Banks),
				Row:   rng.Intn(32),
				Col:   rng.Intn(g.Cols),
			}
			kinds := []dram.CommandKind{dram.CmdACT, dram.CmdPRE, dram.CmdRD, dram.CmdWR, dram.CmdRDA, dram.CmdWRA}
			kind := kinds[rng.Intn(len(kinds))]
			if open := d.OpenRow(loc, now); open >= 0 {
				loc.Row = open
			}
			at, ok := d.EarliestIssue(dram.Command{Kind: kind, Loc: loc}, now)
			if !ok {
				now++
				continue
			}
			now = at
			d.Sync(now)
			d.Issue(dram.Command{Kind: kind, Loc: loc}, now)
			issued++
			now += int64(rng.Intn(3))
		}
		if v.Checked() < 2000 {
			t.Fatalf("seed %d: only %d commands verified", seed, v.Checked())
		}
	}
}

func TestDDR43200Config(t *testing.T) {
	g, tm := lookup("ddr4-3200")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.PeakBandwidthGBs(); got != 25.6 {
		t.Errorf("peak = %v GB/s, want 25.6", got)
	}
	// Analog times stay constant in nanoseconds (within a cycle).
	g24, t24 := testConfig()
	rcd24 := g24.CyclesToNS(int64(t24.RCD))
	rcd32 := g.CyclesToNS(int64(tm.RCD))
	if d := rcd32 - rcd24; d > 1.5 || d < -1.5 {
		t.Errorf("tRCD drifts: %.2f ns vs %.2f ns", rcd32, rcd24)
	}
	rfc32 := g.CyclesToNS(int64(tm.RFC))
	if d := rfc32 - 350; d > 1 || d < -1 {
		t.Errorf("tRFC = %.1f ns, want 350", rfc32)
	}
}

func TestDDR5Config(t *testing.T) {
	g, tm := lookup("ddr5-4800")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.PeakBandwidthGBs(); got != 19.2 {
		t.Errorf("peak = %v GB/s, want 19.2 (one subchannel)", got)
	}
	if g.TotalBanks() != 32 || g.RowBytes() != 2048 {
		t.Errorf("geometry: %d banks, %d B pages; want 32 banks, 2 KB pages",
			g.TotalBanks(), g.RowBytes())
	}
	if g.CapacityBytes() != 4<<30 {
		t.Errorf("capacity = %d, want 4 GiB", g.CapacityBytes())
	}
	// A legal command sequence runs and verifies.
	d := dram.NewDevice(g, tm)
	v := dram.NewVerifier(g, tm)
	d.Trace = func(cycle int64, cmd dram.Command) {
		if vs := v.Check(cycle, cmd); vs != nil {
			t.Fatalf("%v", vs[0])
		}
	}
	d.Sync(0)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}, 0)
	rd := int64(tm.RCD)
	d.Sync(rd)
	d.Issue(dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1}}, rd)
	// Back-to-back cross-group reads are bus-bound at BL2=8 > CCDS.
	loc2 := dram.Loc{Group: 1, Row: 1}
	// Activate group 1 first.
	actAt, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdACT, Loc: loc2}, rd)
	if !ok {
		t.Fatal("ACT blocked")
	}
	d.Sync(actAt)
	d.Issue(dram.Command{Kind: dram.CmdACT, Loc: loc2}, actAt)
	at, ok := d.EarliestIssue(dram.Command{Kind: dram.CmdRD, Loc: loc2}, actAt)
	if !ok {
		t.Fatal("RD blocked")
	}
	if at < rd+int64(tm.BL2) {
		t.Errorf("cross-group RD at %d, want bus-bound >= %d", at, rd+int64(tm.BL2))
	}
}
