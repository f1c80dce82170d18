package stacks

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
)

func geo() dram.Geometry {
	return standard.Default().Geometry
}

// TestBandwidthAccountingExample replays the spirit of the paper's Fig. 1:
// a scripted sequence of cycles for a 4-bank channel, checking that every
// cycle lands in the intended component with the 1/n bank split.
func TestBandwidthAccountingExample(t *testing.T) {
	a := NewBandwidthAccountant(4)

	// Cycle 1: refresh blocks everything.
	a.Account(CycleView{Refreshing: true})
	// Cycle 2: bank 0 precharges, bank 1 activates, banks 2-3 idle.
	a.Account(CycleView{PreMask: 0b0001, ActMask: 0b0010, Pending: true})
	// Cycle 3: read data on the bus (highest priority, banks also busy).
	a.Account(CycleView{Data: dram.DataRead, PreMask: 0b0001, Pending: true})
	// Cycle 4: write data.
	a.Account(CycleView{Data: dram.DataWrite})
	// Cycle 5: all banks quiet, read-to-write turnaround blocks (Tr2w).
	a.Account(CycleView{Pending: true, ChannelBlocked: true})
	// Cycle 6: nothing to do.
	a.Account(CycleView{})
	// Cycle 7: bank 2's request blocked by tCCD_L, others idle.
	a.Account(CycleView{BlockedMask: 0b0100, Pending: true})

	s := a.Stack()
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	want := map[BWComponent]float64{
		BWRead:        1,
		BWWrite:       1,
		BWRefresh:     1,
		BWPrecharge:   0.25,       // cycle 2
		BWActivate:    0.25,       // cycle 2
		BWBankIdle:    0.5 + 0.75, // cycles 2 and 7
		BWConstraints: 1 + 0.25,   // cycle 5 full + cycle 7 share
		BWIdle:        1,
	}
	for c := BWComponent(0); c < NumBWComponents; c++ {
		if got, w := s.Cycles[c], want[c]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%v = %v cycles, want %v", c, got, w)
		}
	}
	if s.TotalCycles != 7 {
		t.Errorf("total = %d, want 7", s.TotalCycles)
	}
}

func TestBandwidthPriorityOrder(t *testing.T) {
	// Data beats refresh beats banks beats channel constraints.
	cases := []struct {
		view CycleView
		want BWComponent
	}{
		{CycleView{Data: dram.DataRead, Refreshing: true, PreMask: 1}, BWRead},
		{CycleView{Data: dram.DataWrite, Refreshing: true}, BWWrite},
		{CycleView{Refreshing: true, PreMask: 1, ChannelBlocked: true, Pending: true}, BWRefresh},
		{CycleView{PreMask: 1, ChannelBlocked: true, Pending: true}, BWPrecharge},
		{CycleView{ChannelBlocked: true, Pending: true}, BWConstraints},
		{CycleView{Pending: true}, BWIdle}, // pending but schedulable: nothing lost yet
		{CycleView{}, BWIdle},
	}
	for i, tc := range cases {
		a := NewBandwidthAccountant(16)
		a.Account(tc.view)
		s := a.Stack()
		if s.Cycles[tc.want] <= 0 {
			t.Errorf("case %d: component %v not incremented: %+v", i, tc.want, s.Cycles)
		}
	}
}

func TestBankBusyAndBlockedOverlap(t *testing.T) {
	// A bank that is both activating and blocked counts once, as busy.
	a := NewBandwidthAccountant(2)
	a.Account(CycleView{ActMask: 0b01, BlockedMask: 0b01, Pending: true})
	s := a.Stack()
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	if got := s.Cycles[BWActivate]; got != 0.5 {
		t.Errorf("activate = %v, want 0.5", got)
	}
	if got := s.Cycles[BWConstraints]; got != 0 {
		t.Errorf("constraints = %v, want 0", got)
	}
	if got := s.Cycles[BWBankIdle]; got != 0.5 {
		t.Errorf("bank_idle = %v, want 0.5", got)
	}
}

// TestBandwidthSumProperty: whatever the per-cycle views, components sum
// to total cycles.
func TestBandwidthSumProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		banks := 1 + int(n%32)
		a := NewBandwidthAccountant(banks)
		cycles := 100 + rng.Intn(400)
		mask := uint64(1)<<banks - 1
		for i := 0; i < cycles; i++ {
			v := CycleView{
				Data:           dram.DataKind(rng.Intn(3)),
				Refreshing:     rng.Intn(10) == 0,
				PreMask:        rng.Uint64() & mask & rng.Uint64(),
				ActMask:        rng.Uint64() & mask & rng.Uint64(),
				BlockedMask:    rng.Uint64() & mask & rng.Uint64(),
				Pending:        rng.Intn(2) == 0,
				ChannelBlocked: rng.Intn(4) == 0,
			}
			a.Account(v)
		}
		return a.Stack().CheckSum() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthGBpsScaling(t *testing.T) {
	g := geo()
	a := NewBandwidthAccountant(g.TotalBanks())
	// Paper §IV example: 100k precharge-ish cycles of 1M total at
	// 16 B/cycle and 1.2 GHz is 1.92 GB/s. We use full-cycle precharge
	// shares here by marking all banks precharging.
	all := uint64(1)<<g.TotalBanks() - 1
	for i := 0; i < 100000; i++ {
		a.Account(CycleView{PreMask: all, Pending: true})
	}
	for i := 0; i < 900000; i++ {
		a.Account(CycleView{Data: dram.DataRead})
	}
	got := a.Stack().GBps(g)
	if math.Abs(got[BWPrecharge]-1.92) > 1e-9 {
		t.Errorf("precharge = %v GB/s, want 1.92", got[BWPrecharge])
	}
	if math.Abs(got[BWRead]-17.28) > 1e-9 {
		t.Errorf("read = %v GB/s, want 17.28", got[BWRead])
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-g.PeakBandwidthGBs()) > 1e-9 {
		t.Errorf("components sum to %v, want peak %v", sum, g.PeakBandwidthGBs())
	}
}

func TestBandwidthSubAndAdd(t *testing.T) {
	a := NewBandwidthAccountant(4)
	a.Account(CycleView{Data: dram.DataRead})
	snap := a.Stack()
	a.Account(CycleView{})
	a.Account(CycleView{Data: dram.DataWrite})
	d := a.Stack().Sub(snap)
	if d.TotalCycles != 2 || d.Cycles[BWRead] != 0 || d.Cycles[BWWrite] != 1 || d.Cycles[BWIdle] != 1 {
		t.Errorf("delta stack wrong: %+v", d)
	}
	sum := snap
	sum.Add(d)
	if sum.TotalCycles != 3 || sum.Cycles[BWRead] != 1 {
		t.Errorf("aggregated stack wrong: %+v", sum)
	}
}

func TestReadLatencyCheck(t *testing.T) {
	r := ReadLatency{Total: 10}
	r.Components[LatBaseDRAM] = 6
	r.Components[LatQueue] = 4
	if err := r.Check(); err != nil {
		t.Errorf("valid decomposition rejected: %v", err)
	}
	r.Components[LatQueue] = 5
	if err := r.Check(); err == nil {
		t.Error("mismatched sum accepted")
	}
	r.Components[LatQueue] = 4
	r.Components[LatRefresh] = -1
	r.Components[LatPreAct] = 1
	if err := r.Check(); err == nil {
		t.Error("negative component accepted")
	}
}

func TestLatencyStackAverages(t *testing.T) {
	g := geo()
	a := NewLatencyAccountant()
	for i := 0; i < 4; i++ {
		var r ReadLatency
		r.Components[LatBaseCtrl] = 10
		r.Components[LatBaseDRAM] = 20
		r.Components[LatQueue] = float64(i * 12) // 0,12,24,36 -> avg 18
		r.Total = int64(30 + i*12)
		if err := r.Check(); err != nil {
			t.Fatal(err)
		}
		a.AddRead(r)
	}
	s := a.Stack()
	if s.Reads != 4 {
		t.Fatalf("reads = %d", s.Reads)
	}
	ns := s.AvgNS(g)
	cyc := g.CyclesToNS(1)
	if math.Abs(ns[LatQueue]-18*cyc) > 1e-9 {
		t.Errorf("queue = %v ns, want %v", ns[LatQueue], 18*cyc)
	}
	if math.Abs(s.BaseNS(g)-30*cyc) > 1e-9 {
		t.Errorf("base = %v ns, want %v", s.BaseNS(g), 30*cyc)
	}
	if math.Abs(s.AvgTotalNS(g)-48*cyc) > 1e-9 {
		t.Errorf("total = %v ns, want %v", s.AvgTotalNS(g), 48*cyc)
	}
}

func TestSamplerCutsIntervals(t *testing.T) {
	bw := NewBandwidthAccountant(4)
	lat := NewLatencyAccountant()
	s := NewSampler(100, bw, lat)
	for c := int64(0); c < 250; c++ {
		bw.Account(CycleView{Data: dram.DataRead})
		s.MaybeCut(c + 1)
	}
	s.Finish(250)
	samples := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	if samples[0].Start != 0 || samples[0].End != 100 ||
		samples[2].Start != 200 || samples[2].End != 250 {
		t.Errorf("sample boundaries wrong: %+v", samples)
	}
	if samples[1].BW.Cycles[BWRead] != 100 {
		t.Errorf("middle sample read cycles = %v, want 100", samples[1].BW.Cycles[BWRead])
	}
	if samples[2].BW.TotalCycles != 50 {
		t.Errorf("final partial sample = %d cycles, want 50", samples[2].BW.TotalCycles)
	}
}

func TestSamplerDisabled(t *testing.T) {
	bw := NewBandwidthAccountant(4)
	s := NewSampler(0, bw, NewLatencyAccountant())
	s.MaybeCut(1000)
	s.Finish(2000)
	if len(s.Samples()) != 0 {
		t.Error("disabled sampler produced samples")
	}
}

func TestComponentStrings(t *testing.T) {
	wantBW := []string{"read", "write", "refresh", "precharge", "activate", "constraints", "bank_idle", "idle", "regulation"}
	for c := BWComponent(0); c < NumBWComponents; c++ {
		if got := c.String(); got != wantBW[c] {
			t.Errorf("BWComponent %d = %q, want %q", c, got, wantBW[c])
		}
	}
	wantLat := []string{"base-cntlr", "base-dram", "act/pre", "refresh", "writeburst", "queue", "regulated"}
	for c := LatComponent(0); c < NumLatComponents; c++ {
		if got := c.String(); got != wantLat[c] {
			t.Errorf("LatComponent %d = %q, want %q", c, got, wantLat[c])
		}
	}
}
