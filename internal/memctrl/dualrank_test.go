package memctrl

import (
	"math/rand"
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
)

// newDualRig builds a dual-rank controller with a verifying device.
func newDualRig(t *testing.T) *rig {
	t.Helper()
	std := standard.MustLookup("ddr4-2400-2r")
	geo, tim := std.Geometry, std.Timing
	dev := dram.NewDevice(geo, tim)
	ver := dram.NewVerifier(geo, tim)
	dev.Trace = func(cycle int64, cmd dram.Command) {
		if vs := ver.Check(cycle, cmd); vs != nil {
			t.Fatalf("timing violation: %v", vs[0])
		}
	}
	ctrl, err := New(dev, addrmap.MustDefault(geo, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, geo: geo, tim: tim, dev: dev, ctrl: ctrl, ver: ver}
}

func TestDualRankControllerServesBothRanks(t *testing.T) {
	r := newDualRig(t)
	m := addrmap.MustDefault(r.geo, 1)
	done := 0
	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 8; i++ {
			addr := m.Encode(dram.Loc{Rank: rank, Group: i % 4, Row: i, Col: i})
			if _, ok := r.ctrl.EnqueueRead(0, addr, func(*Request, int64) { done++ }, nil); !ok {
				t.Fatalf("rank %d read %d rejected", rank, i)
			}
		}
	}
	r.runUntil(50_000, func() bool { return done == 16 })
	if got := r.ctrl.Stats().IssuedReads; got != 16 {
		t.Errorf("issued reads = %d, want 16", got)
	}
}

func TestDualRankRefreshesBothRanksIndependently(t *testing.T) {
	r := newDualRig(t)
	r.run(int64(r.tim.REFI) * 4)
	// Two ranks, staggered: about 2 refreshes per tREFI window in total.
	got := r.ctrl.Stats().Refreshes
	if got < 6 || got > 10 {
		t.Errorf("refreshes = %d over 4 tREFI with 2 ranks, want about 8", got)
	}
	if err := r.ctrl.BandwidthStack().CheckSum(); err != nil {
		t.Error(err)
	}
}

func TestDualRankRandomLoadVerified(t *testing.T) {
	r := newDualRig(t)
	rng := rand.New(rand.NewSource(3))
	outstanding := 0
	for ; r.now < 80_000; r.now++ {
		if rng.Intn(2) == 0 && outstanding < 48 {
			a := uint64(rng.Intn(1<<28)) &^ 63 // spans both ranks
			if rng.Intn(4) == 0 {
				r.ctrl.EnqueueWrite(r.now, a, nil, nil)
			} else if _, ok := r.ctrl.EnqueueRead(r.now, a, func(*Request, int64) { outstanding-- }, nil); ok {
				outstanding++
			}
		}
		r.ctrl.Tick(r.now)
	}
	if r.ver.Checked() == 0 {
		t.Fatal("no commands verified")
	}
	s := r.ctrl.BandwidthStack()
	if err := s.CheckSum(); err != nil {
		t.Error(err)
	}
	if s.Banks != 32 {
		t.Errorf("stack banks = %d, want 32", s.Banks)
	}
}

func TestFlatConstraintsStillSums(t *testing.T) {
	s := streamStack(true)
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	// Flat attribution keeps constraints tiny: the single blocked bank's
	// 1/16 share.
	if c := s.Fraction(stacks.BWConstraints); c > 0.05 {
		t.Errorf("flat constraints fraction = %v, want small", c)
	}
}

// TestWideningChargesTheBindingScope: a bank held back by a bank-group or
// rank constraint charges the whole group or rank, so the same stream
// shows more constraints than with FlatConstraints, which charges the
// blocked bank alone.
func TestWideningChargesTheBindingScope(t *testing.T) {
	wide, flat := streamStack(false), streamStack(true)
	if err := wide.CheckSum(); err != nil {
		t.Fatal(err)
	}
	w, f := wide.Fraction(stacks.BWConstraints), flat.Fraction(stacks.BWConstraints)
	if w < 2*f || w == 0 {
		t.Errorf("constraints fraction %v widened, %v flat: want the widened one at least twice as large", w, f)
	}
}

// streamStack is the bandwidth stack of 60 000 cycles of a sequential read
// stream, 16 reads in flight, on the default standard.
func streamStack(flatConstraints bool) stacks.BandwidthStack {
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	dev := dram.NewDevice(geo, tim)
	cfg := DefaultConfig()
	cfg.FlatConstraints = flatConstraints
	ctrl := MustNew(dev, addrmap.MustDefault(geo, 1), cfg)
	next := uint64(0)
	inflight := 0
	for now := int64(0); now < 60_000; now++ {
		for inflight < 16 {
			if _, ok := ctrl.EnqueueRead(now, next, func(*Request, int64) { inflight-- }, nil); !ok {
				break
			}
			inflight++
			next += 64
		}
		ctrl.Tick(now)
	}
	return ctrl.BandwidthStack()
}

func TestClosedKeepOpenValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedKeepOpen = 0
	if err := cfg.Validate(); err == nil {
		t.Error("ClosedKeepOpen=0 accepted")
	}
}
