package dram_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

// The device keeps its pending auto-precharges, its live activate and
// precharge windows and its refresh end as bank sets and earliest
// cycles, so that the per-cycle queries skip the banks nothing happened
// to. The references below answer the same queries by scanning every
// bank and rank, the way the device itself did before.

// refBusyMasks is BusyMasks over every bank.
func refBusyMasks(d *dram.Device, rp int, at int64) (pre, act uint64, until int64) {
	until = math.MaxInt64
	for i := 0; i < d.Geometry().TotalBanks(); i++ {
		actStart, actDone, preStart, preDone, apAt, _ := d.BankWindows(i)
		inPre, edge := refWithin(at, preStart, preDone)
		if apAt != 0 && !inPre {
			inPre, edge = refWithin(at, apAt, apAt+int64(rp))
		}
		inAct, edgeAct := refWithin(at, actStart, actDone)
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

func refWithin(at, start, end int64) (bool, int64) {
	switch {
	case at < start:
		return false, start
	case at < end:
		return true, end
	}
	return false, math.MaxInt64
}

// refAnyRefreshing is AnyRefreshing over every rank.
func refAnyRefreshing(d *dram.Device, at int64) bool {
	for r := 0; r < d.Geometry().Ranks; r++ {
		if at < d.RefUntil(r) {
			return true
		}
	}
	return false
}

// refOpenClosing is OpenBanks and Closing over every bank.
func refOpenClosing(d *dram.Device) (open, closing uint64) {
	for i := 0; i < d.Geometry().TotalBanks(); i++ {
		_, _, _, _, apAt, isOpen := d.BankWindows(i)
		if isOpen {
			open |= 1 << i
		}
		if apAt != 0 {
			closing |= 1 << i
		}
	}
	return open, closing
}

// refRefreshOnlyUntil is RefreshOnlyUntil over every rank and bank.
func refRefreshOnlyUntil(d *dram.Device, at int64) int64 {
	end := at
	for r := 0; r < d.Geometry().Ranks; r++ {
		end = max(end, d.RefUntil(r))
	}
	if end == at || d.BusBusyUntil() > at {
		return at
	}
	for i := 0; i < d.Geometry().TotalBanks(); i++ {
		_, actDone, _, preDone, apAt, _ := d.BankWindows(i)
		if apAt != 0 || preDone > at || actDone > at {
			return at
		}
	}
	return end
}

// syncChecked is Sync with the banks it lands checked against a scan:
// exactly the banks whose auto-precharge is due land, each closed and
// precharging from its landing cycle, and Sync returns that set; every
// other bank keeps its own.
func syncChecked(t *testing.T, d *dram.Device, rp int, now int64) {
	t.Helper()
	n := d.Geometry().TotalBanks()
	before := make([]int64, n)
	for i := range before {
		_, _, _, _, before[i], _ = d.BankWindows(i)
	}
	landed, wantLanded := d.Sync(now), uint64(0)
	for i, ap := range before {
		if ap != 0 && ap <= now {
			wantLanded |= 1 << i
		}
	}
	if landed != wantLanded {
		t.Fatalf("cycle %d: Sync landed %#x, the scan says %#x", now, landed, wantLanded)
	}
	for i, ap := range before {
		_, _, preStart, preDone, apAt, open := d.BankWindows(i)
		due := ap != 0 && ap <= now
		switch {
		case due && (apAt != 0 || open || preStart != ap || preDone != ap+int64(rp)):
			t.Fatalf("cycle %d bank %d: auto-precharge due at %d did not land (pending %d, open %v, precharge [%d, %d))",
				now, i, ap, apAt, open, preStart, preDone)
		case !due && apAt != ap:
			t.Fatalf("cycle %d bank %d: auto-precharge pending at %d became %d", now, i, ap, apAt)
		}
	}
}

// TestBankSetsMatchFullScan drives random legal schedules — activates,
// column commands with and without auto-precharge, precharges, and
// refreshes closing their rank first — through every registered
// standard, single- and dual-rank, one cycle at a time. Every cycle,
// Sync's landings, OpenBanks, Closing, BusyMasks (masks and until),
// AnyRefreshing and RefreshOnlyUntil must be what a scan of every bank
// and rank gives.
// Half the runs ask BusyMasks every cycle; the other half ask only the
// way the controller does — when until has passed or a command opened a
// window — and check that the answer held in between.
func TestBankSetsMatchFullScan(t *testing.T) {
	cycles := int64(12000)
	if testing.Short() {
		cycles = 4000
	}
	seed := int64(0)
	for _, std := range standard.All() {
		for _, ranks := range []int{1, 2} {
			geo, tim := std.Geometry, std.Timing
			if geo.BanksPerRank()*ranks > 64 {
				continue
			}
			geo.Ranks = ranks
			tim.REFI = tim.RFC * 6 // many refreshes within the run
			for _, everyCycle := range []bool{true, false} {
				seed++
				name := fmt.Sprintf("%s/%dr/every=%v", std.Name, ranks, everyCycle)
				t.Run(name, func(t *testing.T) {
					runSetDifferential(t, geo, tim, seed, cycles, everyCycle)
				})
			}
		}
	}
}

func runSetDifferential(t *testing.T, geo dram.Geometry, tim dram.Timing, seed, cycles int64, everyCycle bool) {
	d := dram.NewDevice(geo, tim)
	v := dram.NewVerifier(geo, tim)
	d.Trace = func(cycle int64, cmd dram.Command) {
		if vs := v.Check(cycle, cmd); vs != nil {
			t.Fatalf("verifier rejects %v at %d: %v", cmd, cycle, vs[0])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nextREF := make([]int64, geo.Ranks)
	for r := range nextREF {
		nextREF[r] = int64(tim.REFI) * int64(r+1) / int64(geo.Ranks)
	}
	// Column commands (and precharges) by phase: reads, writes, both.
	phases := [][]dram.CommandKind{
		{dram.CmdRD, dram.CmdRDA, dram.CmdRDA, dram.CmdPRE},
		{dram.CmdWR, dram.CmdWRA, dram.CmdWRA, dram.CmdPRE},
		{dram.CmdRD, dram.CmdWR, dram.CmdRDA, dram.CmdWRA, dram.CmdPRE},
	}
	issue := func(cmd dram.Command, now int64) bool {
		if !d.CanIssue(cmd, now) {
			return false
		}
		d.Issue(cmd, now)
		return true
	}

	var pre, act uint64
	var until int64 // BusyMasks' cached answer, exact before until
	for now := int64(0); now < cycles; now++ {
		syncChecked(t, d, tim.RP, now)

		// One command at most, like a controller: a due refresh first
		// (closing its rank), else a few random tries, by phase.
		opened, issued := false, false
		for r := range nextREF {
			if issued || now < nextREF[r] {
				continue
			}
			if issue(dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{Rank: r}}, now) {
				nextREF[r] += int64(tim.REFI)
				issued = true
			} else if issue(dram.Command{Kind: dram.CmdPREA, Loc: dram.Loc{Rank: r}}, now) {
				issued, opened = true, true
			}
		}
		tries, phase := rng.Intn(4), (now/500)%4
		if phase == 3 {
			tries = 0 // quiet: windows end, refreshes run alone
		}
		for ; tries > 0 && !issued; tries-- {
			loc := dram.Loc{Rank: rng.Intn(geo.Ranks), Group: rng.Intn(geo.Groups), Bank: rng.Intn(geo.Banks), Col: rng.Intn(geo.Cols)}
			kind := dram.CmdACT
			if loc.Row = d.OpenRow(loc, now); loc.Row >= 0 {
				kind = phases[phase][rng.Intn(len(phases[phase]))]
			} else {
				loc.Row = rng.Intn(4)
			}
			if issued = issue(dram.Command{Kind: kind, Loc: loc}, now); issued {
				opened = kind != dram.CmdRD && kind != dram.CmdWR
			}
		}

		wantPre, wantAct, wantUntil := refBusyMasks(d, tim.RP, now)
		if everyCycle || opened || now >= until {
			pre, act, until = d.BusyMasks(now)
			if until != wantUntil {
				t.Fatalf("cycle %d: BusyMasks until %d, the scan says %d", now, until, wantUntil)
			}
		}
		if pre != wantPre || act != wantAct {
			t.Fatalf("cycle %d: busy masks pre %#x act %#x, the scan says pre %#x act %#x", now, pre, act, wantPre, wantAct)
		}
		if wantOpen, wantClosing := refOpenClosing(d); d.OpenBanks() != wantOpen || d.Closing() != wantClosing {
			t.Fatalf("cycle %d: open %#x closing %#x, the scan says %#x %#x", now, d.OpenBanks(), d.Closing(), wantOpen, wantClosing)
		}
		if got, want := d.AnyRefreshing(now), refAnyRefreshing(d, now); got != want {
			t.Fatalf("cycle %d: AnyRefreshing %v, the scan says %v", now, got, want)
		}
		for _, at := range []int64{now, now + 1} {
			if got, want := d.RefreshOnlyUntil(at), refRefreshOnlyUntil(d, at); got != want {
				t.Fatalf("cycle %d: RefreshOnlyUntil(%d) = %d, the scan says %d", now, at, got, want)
			}
		}
	}
	if st := d.Stats(); st.AutoPRE < cycles/100 || st.REF < cycles/int64(tim.REFI) || st.PRE == 0 || st.RD == 0 || st.WR == 0 {
		t.Fatalf("schedule too thin to mean anything: %+v", st)
	}
}

// TestSharingFollowsTheGeometry checks Sharing and RankBanks against the
// flat bank index (rank, group, bank) of every bank of every standard.
func TestSharingFollowsTheGeometry(t *testing.T) {
	for _, std := range standard.All() {
		geo := std.Geometry
		if geo.BanksPerRank()*2 <= 64 {
			geo.Ranks = 2
		}
		d := dram.NewDevice(geo, std.Timing)
		for r := 0; r < geo.Ranks; r++ {
			var rank uint64
			for g := 0; g < geo.Groups; g++ {
				var group uint64
				for b := 0; b < geo.Banks; b++ {
					group |= 1 << ((r*geo.Groups+g)*geo.Banks + b)
				}
				for m := group; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					for scope, want := range [...]uint64{dram.ScopeNone: 0, dram.ScopeBank: 1 << i, dram.ScopeGroup: group, dram.ScopeBus: 0} {
						if scope == int(dram.ScopeRank) {
							continue // checked below, once the rank's set is complete
						}
						if got := d.Sharing(i, dram.BlockScope(scope)); got != want {
							t.Fatalf("%s bank %d: Sharing(%d) = %#x, want %#x", std.Name, i, scope, got, want)
						}
					}
				}
				rank |= group
			}
			if got := d.RankBanks(r); got != rank {
				t.Fatalf("%s: RankBanks(%d) = %#x, want %#x", std.Name, r, got, rank)
			}
			for m := rank; m != 0; m &= m - 1 {
				if i := bits.TrailingZeros64(m); d.Sharing(i, dram.ScopeRank) != rank {
					t.Fatalf("%s bank %d: Sharing at rank scope %#x, want %#x", std.Name, i, d.Sharing(i, dram.ScopeRank), rank)
				}
			}
		}
	}
}
