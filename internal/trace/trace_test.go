package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/stacks"
)

func cfg() (dram.Geometry, dram.Timing) {
	std := standard.Default()
	return std.Geometry, std.Timing
}

func TestWriteReadRoundTrip(t *testing.T) {
	events := []Event{
		{0, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Group: 1, Bank: 2, Row: 3}}},
		{16, dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Group: 1, Bank: 2, Row: 3, Col: 7}}},
		{60, dram.Command{Kind: dram.CmdPRE, Loc: dram.Loc{Group: 1, Bank: 2, Row: 3}}},
		{9360, dram.Command{Kind: dram.CmdREF, Loc: dram.Loc{}}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadSkipsCommentsRejectsGarbage(t *testing.T) {
	got, err := Read(strings.NewReader("# comment\n\n5 ACT 0 1 2 3 4\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := Read(strings.NewReader("not a trace\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader("5 XYZ 0 0 0 0 0\n")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestOfflineSimpleBurst(t *testing.T) {
	geo, tim := cfg()
	// ACT then two pipelined reads to one bank group.
	rd1 := int64(tim.RCD)
	rd2 := rd1 + int64(tim.CCDL)
	events := []Event{
		{0, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}},
		{rd1, dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1, Col: 0}}},
		{rd2, dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1, Col: 1}}},
	}
	s, err := BuildBandwidthStack(events, geo, tim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	if got := s.Cycles[stacks.BWRead]; got != float64(2*tim.BL2) {
		t.Errorf("read cycles = %v, want %d", got, 2*tim.BL2)
	}
	// The ACT window shows up as activate + bank-idle shares.
	if s.Cycles[stacks.BWActivate] <= 0 {
		t.Error("no activate component")
	}
	if s.Cycles[stacks.BWBankIdle] <= 0 {
		t.Error("no bank-idle component")
	}
	// The tCCD_L gap between the reads becomes constraints shares.
	if s.Cycles[stacks.BWConstraints] <= 0 {
		t.Error("no constraints component for the tCCD_L gap")
	}
}

func TestOfflineRejectsBadTraces(t *testing.T) {
	geo, tim := cfg()
	if _, err := BuildBandwidthStack([]Event{
		{0, dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1}}},
	}, geo, tim, 0); err == nil {
		t.Error("read on closed bank accepted")
	}
	if _, err := BuildBandwidthStack([]Event{
		{10, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}},
		{5, dram.Command{Kind: dram.CmdPRE, Loc: dram.Loc{Row: 1}}},
	}, geo, tim, 0); err == nil {
		t.Error("out-of-order trace accepted")
	}
}

// TestOfflineMatchesOnline drives the real controller under load while
// recording its command trace, then rebuilds the bandwidth stack offline
// and compares: under back pressure (requests always queued) the two
// accountings agree closely on every component.
func TestOfflineMatchesOnline(t *testing.T) {
	geo, tim := cfg()
	dev := dram.NewDevice(geo, tim)
	rec := &Recorder{}
	dev.Trace = rec.Hook()
	ctrl := memctrl.MustNew(dev, addrmap.MustDefault(geo, 1), memctrl.DefaultConfig())

	// Saturating sequential read stream.
	next := uint64(0)
	inflight := 0
	cycles := int64(150_000)
	for now := int64(0); now < cycles; now++ {
		for inflight < 32 {
			if _, ok := ctrl.EnqueueRead(now, next, func(*memctrl.Request, int64) { inflight-- }, nil); !ok {
				break
			}
			inflight++
			next += 64
		}
		ctrl.Tick(now)
	}
	online := ctrl.BandwidthStack()
	offline, err := BuildBandwidthStack(rec.Events(), geo, tim, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.CheckSum(); err != nil {
		t.Fatal(err)
	}
	if offline.TotalCycles != online.TotalCycles {
		t.Fatalf("offline covers %d cycles, online %d", offline.TotalCycles, online.TotalCycles)
	}
	on := online.GBps(geo)
	off := offline.GBps(geo)
	for c := stacks.BWComponent(0); c < stacks.NumBWComponents; c++ {
		if d := math.Abs(on[c] - off[c]); d > 0.40 {
			t.Errorf("%v: online %.3f vs offline %.3f GB/s (Δ %.3f)", c, on[c], off[c], d)
		}
	}
	// The headline components must match almost exactly.
	if d := math.Abs(on[stacks.BWRead] - off[stacks.BWRead]); d > 1e-6 {
		t.Errorf("read bandwidth differs: %v vs %v", on[stacks.BWRead], off[stacks.BWRead])
	}
	if d := math.Abs(on[stacks.BWRefresh] - off[stacks.BWRefresh]); d > 1e-6 {
		t.Errorf("refresh differs: %v vs %v", on[stacks.BWRefresh], off[stacks.BWRefresh])
	}
}

func TestOfflineWindowExtension(t *testing.T) {
	geo, tim := cfg()
	events := []Event{
		{0, dram.Command{Kind: dram.CmdACT, Loc: dram.Loc{Row: 1}}},
		{int64(tim.RCD), dram.Command{Kind: dram.CmdRD, Loc: dram.Loc{Row: 1}}},
	}
	s, err := BuildBandwidthStack(events, geo, tim, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalCycles != 10_000 {
		t.Errorf("total = %d, want 10000", s.TotalCycles)
	}
	if s.Cycles[stacks.BWIdle] < 9_900 {
		t.Errorf("idle = %v, want nearly all of the window", s.Cycles[stacks.BWIdle])
	}
}

// TestOfflineMatchesOnlineMixedWorkloads runs randomized mixed
// read/write traffic at several load levels and page policies, and
// checks the offline reconstruction against the online accounting. The
// data-carrying components (read, write, refresh) must match exactly;
// the attribution of non-transfer cycles may differ only where the
// offline builder cannot see request arrivals (idle vs blocked), so
// those are compared as a group.
func TestOfflineMatchesOnlineMixedWorkloads(t *testing.T) {
	geo, tim := cfg()
	for seed := int64(1); seed <= 4; seed++ {
		for _, policy := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.ClosedPage} {
			dev := dram.NewDevice(geo, tim)
			rec := &Recorder{}
			dev.Trace = rec.Hook()
			c := memctrl.DefaultConfig()
			c.Policy = policy
			ctrl := memctrl.MustNew(dev, addrmap.MustDefault(geo, 1), c)

			rng := rand.New(rand.NewSource(seed))
			outstanding := 0
			cycles := int64(60_000)
			intensity := 2 + rng.Intn(6)
			for now := int64(0); now < cycles; now++ {
				if rng.Intn(intensity) == 0 && outstanding < 40 {
					a := uint64(rng.Intn(1<<24)) &^ 63
					if rng.Intn(3) == 0 {
						ctrl.EnqueueWrite(now, a, nil, nil)
					} else if _, ok := ctrl.EnqueueRead(now, a, func(*memctrl.Request, int64) { outstanding-- }, nil); ok {
						outstanding++
					}
				}
				ctrl.Tick(now)
			}
			online := ctrl.BandwidthStack()
			offline, err := BuildBandwidthStack(rec.Events(), geo, tim, cycles)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, policy, err)
			}
			if err := offline.CheckSum(); err != nil {
				t.Fatalf("seed %d %v: %v", seed, policy, err)
			}
			on := online.GBps(geo)
			off := offline.GBps(geo)
			for _, c := range []stacks.BWComponent{stacks.BWRead, stacks.BWWrite, stacks.BWRefresh} {
				if d := math.Abs(on[c] - off[c]); d > 1e-6 {
					t.Errorf("seed %d %v: %v differs: online %.4f vs offline %.4f",
						seed, policy, c, on[c], off[c])
				}
			}
			// Pre/act busy windows are command-determined: near-exact.
			for _, c := range []stacks.BWComponent{stacks.BWPrecharge, stacks.BWActivate} {
				if d := math.Abs(on[c] - off[c]); d > 0.15 {
					t.Errorf("seed %d %v: %v differs: online %.4f vs offline %.4f",
						seed, policy, c, on[c], off[c])
				}
			}
			// The remaining components (constraints, bank-idle, idle)
			// depend on queue visibility; their *sum* must still match.
			groupOn := on[stacks.BWConstraints] + on[stacks.BWBankIdle] + on[stacks.BWIdle]
			groupOff := off[stacks.BWConstraints] + off[stacks.BWBankIdle] + off[stacks.BWIdle]
			if d := math.Abs(groupOn - groupOff); d > 0.15 {
				t.Errorf("seed %d %v: wait-group differs: online %.4f vs offline %.4f",
					seed, policy, groupOn, groupOff)
			}
		}
	}
}
