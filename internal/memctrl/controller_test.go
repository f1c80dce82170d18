package memctrl

import (
	"math/rand"
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
)

// rig bundles a controller with a verifier-checked device for tests.
type rig struct {
	t    *testing.T
	geo  dram.Geometry
	tim  dram.Timing
	dev  *dram.Device
	ctrl *Controller
	ver  *dram.Verifier
	now  int64
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	dev := dram.NewDevice(geo, tim)
	ver := dram.NewVerifier(geo, tim)
	dev.Trace = func(cycle int64, cmd dram.Command) {
		if vs := ver.Check(cycle, cmd); vs != nil {
			t.Fatalf("timing violation: %v", vs[0])
		}
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(dev, addrmap.MustDefault(geo, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, geo: geo, tim: tim, dev: dev, ctrl: ctrl, ver: ver}
}

func (r *rig) run(cycles int64) {
	for end := r.now + cycles; r.now < end; r.now++ {
		r.ctrl.Tick(r.now)
	}
}

// runUntil ticks until cond returns true, failing the test after limit.
func (r *rig) runUntil(limit int64, cond func() bool) {
	for end := r.now + limit; r.now < end; r.now++ {
		if cond() {
			return
		}
		r.ctrl.Tick(r.now)
	}
	if !cond() {
		r.t.Fatalf("condition not reached within %d cycles", limit)
	}
}

// addr builds a physical address from DRAM coordinates via the default map.
func (r *rig) addr(group, bank, row, col int) uint64 {
	m := addrmap.MustDefault(r.geo, 1)
	return m.Encode(dram.Loc{Group: group, Bank: bank, Row: row, Col: col})
}

func TestSingleReadLatency(t *testing.T) {
	r := newRig(t, nil)
	var done int64 = -1
	_, ok := r.ctrl.EnqueueRead(0, r.addr(0, 0, 3, 5), func(_ *Request, at int64) { done = at }, nil)
	if !ok {
		t.Fatal("enqueue failed")
	}
	r.runUntil(1000, func() bool { return done >= 0 })

	// Cold access: ACT at ~0, RD at tRCD, data end at +CL+BL2, plus the
	// controller pipeline.
	want := int64(r.tim.RCD+r.tim.CL+r.tim.BL2) + int64(r.ctrl.cfg.CtrlLatency)
	if done != want {
		t.Errorf("read completed at %d, want %d", done, want)
	}

	ls := r.ctrl.LatencyStack()
	if ls.Reads != 1 {
		t.Fatalf("latency stack reads = %d", ls.Reads)
	}
	comp := ls.SumCycles
	if comp[stacks.LatBaseCtrl] != float64(r.ctrl.cfg.CtrlLatency) {
		t.Errorf("base-cntlr = %v", comp[stacks.LatBaseCtrl])
	}
	if comp[stacks.LatBaseDRAM] != float64(r.tim.CL+r.tim.BL2) {
		t.Errorf("base-dram = %v", comp[stacks.LatBaseDRAM])
	}
	if comp[stacks.LatPreAct] != float64(r.tim.RCD) {
		t.Errorf("act/pre = %v, want %v (one activate)", comp[stacks.LatPreAct], r.tim.RCD)
	}
	if comp[stacks.LatQueue] != 0 {
		t.Errorf("queue = %v, want 0 for an uncontended read", comp[stacks.LatQueue])
	}
}

func TestPageHitVsMissClassification(t *testing.T) {
	r := newRig(t, nil)
	fire := func(a uint64) {
		ok := false
		r.ctrl.EnqueueRead(r.now, a, func(*Request, int64) { ok = true }, nil)
		r.runUntil(2000, func() bool { return ok })
	}
	fire(r.addr(0, 0, 1, 0)) // empty (bank closed)
	fire(r.addr(0, 0, 1, 1)) // hit (same row)
	fire(r.addr(0, 0, 2, 0)) // miss (conflict: row 1 open)
	s := r.ctrl.Stats()
	if s.PageEmpty != 1 || s.PageHits != 1 || s.PageMiss != 1 {
		t.Errorf("classification = hits %d empty %d miss %d, want 1/1/1",
			s.PageHits, s.PageEmpty, s.PageMiss)
	}
}

func TestRowHitsServedBeforeOlderConflict(t *testing.T) {
	r := newRig(t, nil)
	// Open row 1.
	warm := false
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 0), func(*Request, int64) { warm = true }, nil)
	r.runUntil(2000, func() bool { return warm })

	// Enqueue a conflict (row 2) then a hit (row 1) in the same cycle:
	// FR-FCFS serves the hit first.
	var conflictAt, hitAt int64 = -1, -1
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 2, 0), func(_ *Request, at int64) { conflictAt = at }, nil)
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 7), func(_ *Request, at int64) { hitAt = at }, nil)
	r.runUntil(4000, func() bool { return conflictAt >= 0 && hitAt >= 0 })
	if hitAt >= conflictAt {
		t.Errorf("row hit finished at %d, conflict at %d: want hit first", hitAt, conflictAt)
	}
}

func TestStoreForwarding(t *testing.T) {
	r := newRig(t, nil)
	a := r.addr(1, 2, 3, 4)
	if _, ok := r.ctrl.EnqueueWrite(0, a, nil, nil); !ok {
		t.Fatal("write enqueue failed")
	}
	var req *Request
	done := false
	req, _ = r.ctrl.EnqueueRead(0, a, func(*Request, int64) { done = true }, nil)
	if !req.Forwarded() {
		t.Error("read to buffered line not forwarded")
	}
	r.runUntil(1000, func() bool { return done })
	if got := r.ctrl.Stats().ForwardedReads; got != 1 {
		t.Errorf("forwarded reads = %d, want 1", got)
	}
	// A forwarded read never issues a DRAM read command.
	r.runUntil(5000, func() bool { return r.ctrl.Stats().IssuedWrites == 1 })
	if got := r.ctrl.Stats().IssuedReads; got != 0 {
		t.Errorf("issued DRAM reads = %d, want 0", got)
	}
}

func TestWriteCoalescing(t *testing.T) {
	r := newRig(t, nil)
	a := r.addr(0, 0, 1, 1)
	r.ctrl.EnqueueWrite(0, a, nil, nil)
	merged := false
	r.ctrl.EnqueueWrite(0, a, func(*Request, int64) { merged = true }, nil)
	if !merged {
		t.Error("coalesced write did not complete immediately")
	}
	if got := r.ctrl.Stats().CoalescedWrites; got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
	if _, w := r.ctrl.QueueLens(); w != 1 {
		t.Errorf("write queue holds %d entries, want 1", w)
	}
}

func TestWriteBurstDrain(t *testing.T) {
	r := newRig(t, nil)
	cfg := r.ctrl.cfg
	// Fill the write buffer to the high watermark with distinct rows so
	// the drain does real work.
	for i := 0; i < cfg.WriteHi; i++ {
		if _, ok := r.ctrl.EnqueueWrite(0, r.addr(i%4, (i/4)%4, i, 0), nil, nil); !ok {
			t.Fatalf("write %d rejected", i)
		}
	}
	r.runUntil(200000, func() bool { _, w := r.ctrl.QueueLens(); return w <= cfg.WriteLo })
	s := r.ctrl.Stats()
	if s.DrainEntries != 1 {
		t.Errorf("drain entries = %d, want 1", s.DrainEntries)
	}
	if s.IssuedWrites < int64(cfg.WriteHi-cfg.WriteLo) {
		t.Errorf("issued writes = %d, want >= %d", s.IssuedWrites, cfg.WriteHi-cfg.WriteLo)
	}
}

func TestReadDelayedByWriteBurstGetsWriteburstComponent(t *testing.T) {
	r := newRig(t, nil)
	for i := 0; i < r.ctrl.cfg.WriteHi; i++ {
		r.ctrl.EnqueueWrite(0, r.addr(i%4, (i/4)%4, i, 0), nil, nil)
	}
	r.ctrl.Tick(r.now) // enter drain mode
	r.now++
	done := false
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 999, 0), func(*Request, int64) { done = true }, nil)
	r.runUntil(200000, func() bool { return done })
	ls := r.ctrl.LatencyStack()
	if ls.SumCycles[stacks.LatWriteBurst] <= 0 {
		t.Errorf("writeburst component = %v, want > 0 for a read behind a drain",
			ls.SumCycles[stacks.LatWriteBurst])
	}
}

func TestRefreshHappensEveryREFI(t *testing.T) {
	r := newRig(t, nil)
	cycles := int64(10 * r.tim.REFI)
	r.run(cycles)
	want := cycles / int64(r.tim.REFI)
	got := r.ctrl.Stats().Refreshes
	if got < want-1 || got > want+1 {
		t.Errorf("refreshes = %d over %d cycles, want about %d", got, cycles, want)
	}
	bw := r.ctrl.BandwidthStack()
	frac := bw.Fraction(stacks.BWRefresh)
	wantFrac := float64(r.tim.RFC) / float64(r.tim.REFI)
	if frac < wantFrac*0.8 || frac > wantFrac*1.2 {
		t.Errorf("refresh fraction = %v, want about %v", frac, wantFrac)
	}
	// An otherwise idle channel: everything else is idle.
	if idle := bw.Fraction(stacks.BWIdle); idle < 0.9-wantFrac {
		t.Errorf("idle fraction = %v, want about %v", idle, 1-wantFrac)
	}
}

func TestRefreshDelaysReadAndIsAttributed(t *testing.T) {
	r := newRig(t, nil)
	// Get right up to the refresh deadline, then enqueue a read during
	// the refresh.
	r.run(int64(r.tim.REFI) + 2)
	if !r.dev.AnyRefreshing(r.now) {
		t.Fatal("expected an in-flight refresh just after tREFI")
	}
	done := false
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 0), func(*Request, int64) { done = true }, nil)
	r.runUntil(int64(r.tim.RFC)+2000, func() bool { return done })
	ls := r.ctrl.LatencyStack()
	if ls.SumCycles[stacks.LatRefresh] <= 0 {
		t.Errorf("refresh latency component = %v, want > 0", ls.SumCycles[stacks.LatRefresh])
	}
}

func TestClosedPagePolicyAutoPrecharges(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Policy = ClosedPage })
	done := false
	r.ctrl.EnqueueRead(0, r.addr(0, 0, 1, 0), func(*Request, int64) { done = true }, nil)
	r.runUntil(2000, func() bool { return done })
	r.run(100) // let the auto-precharge land
	// Second access to the same row: the page was closed, so it is an
	// "empty" access again, not a hit.
	done = false
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 1), func(*Request, int64) { done = true }, nil)
	r.runUntil(2000, func() bool { return done })
	s := r.ctrl.Stats()
	if s.PageEmpty != 2 || s.PageHits != 0 {
		t.Errorf("closed policy: empty %d hits %d, want 2/0", s.PageEmpty, s.PageHits)
	}
	if r.dev.Stats().PRE != 0 {
		t.Errorf("explicit PRE count = %d, want 0 (auto-precharge only)", r.dev.Stats().PRE)
	}
}

func TestOpenPageKeepsRowOpen(t *testing.T) {
	r := newRig(t, nil)
	done := false
	r.ctrl.EnqueueRead(0, r.addr(0, 0, 1, 0), func(*Request, int64) { done = true }, nil)
	r.runUntil(2000, func() bool { return done })
	r.run(100)
	done = false
	r.ctrl.EnqueueRead(r.now, r.addr(0, 0, 1, 1), func(*Request, int64) { done = true }, nil)
	r.runUntil(2000, func() bool { return done })
	s := r.ctrl.Stats()
	if s.PageHits != 1 {
		t.Errorf("open policy: hits = %d, want 1", s.PageHits)
	}
}

func TestReadQueueBackpressure(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ReadQueueCap = 4 })
	for i := 0; i < 4; i++ {
		if _, ok := r.ctrl.EnqueueRead(0, r.addr(0, 0, i, 0), nil, nil); !ok {
			t.Fatalf("read %d rejected below capacity", i)
		}
	}
	if _, ok := r.ctrl.EnqueueRead(0, r.addr(0, 0, 9, 0), nil, nil); ok {
		t.Error("read accepted beyond capacity")
	}
	if _, ok := r.ctrl.EnqueueWrite(0, r.addr(0, 0, 1, 1), nil, nil); !ok {
		t.Error("write rejected while write queue empty")
	}
}

func TestBandwidthStackSumInvariantUnderRandomLoad(t *testing.T) {
	r := newRig(t, nil)
	rng := rand.New(rand.NewSource(7))
	outstanding := 0
	cycles := int64(120000)
	for ; r.now < cycles; r.now++ {
		if rng.Intn(3) == 0 && outstanding < 48 {
			a := uint64(rng.Intn(1<<26)) &^ 63
			if rng.Intn(4) == 0 {
				r.ctrl.EnqueueWrite(r.now, a, nil, nil)
			} else if _, ok := r.ctrl.EnqueueRead(r.now, a, func(*Request, int64) { outstanding-- }, nil); ok {
				outstanding++
			}
		}
		r.ctrl.Tick(r.now)
	}
	bw := r.ctrl.BandwidthStack()
	if bw.TotalCycles != cycles {
		t.Errorf("accounted cycles = %d, want %d", bw.TotalCycles, cycles)
	}
	if err := bw.CheckSum(); err != nil {
		t.Error(err)
	}
	ls := r.ctrl.LatencyStack()
	if ls.Reads == 0 {
		t.Fatal("no reads completed")
	}
	// All components non-negative.
	for c, v := range ls.SumCycles {
		if v < 0 {
			t.Errorf("latency component %v negative: %v", stacks.LatComponent(c), v)
		}
	}
	if r.ver.Checked() == 0 {
		t.Fatal("verifier saw no commands")
	}
}

func TestThroughTimeSampling(t *testing.T) {
	r := newRig(t, func(c *Config) { c.SampleInterval = 10000 })
	done := 0
	for i := 0; i < 20; i++ {
		r.ctrl.EnqueueRead(0, r.addr(i%4, 0, i, 0), func(*Request, int64) { done++ }, nil)
	}
	r.run(45000)
	r.ctrl.FinishSampling()
	samples := r.ctrl.Samples()
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5 (4 full + final partial)", len(samples))
	}
	var total int64
	for _, s := range samples {
		if err := s.BW.CheckSum(); err != nil {
			t.Errorf("sample [%d,%d): %v", s.Start, s.End, err)
		}
		total += s.BW.TotalCycles
	}
	if total != 45000 {
		t.Errorf("samples cover %d cycles, want 45000", total)
	}
}

func TestSequentialStreamPageHitRate(t *testing.T) {
	// A back-pressured sequential stream: page hit rate should be very
	// high (the paper reports 99% for the sequential pattern).
	r := newRig(t, nil)
	next := uint64(0)
	inflight := 0
	for ; r.now < 200000; r.now++ {
		for inflight < 16 {
			if _, ok := r.ctrl.EnqueueRead(r.now, next, func(*Request, int64) { inflight-- }, nil); !ok {
				break
			}
			inflight++
			next += 64
		}
		r.ctrl.Tick(r.now)
	}
	s := r.ctrl.Stats()
	if hr := s.PageHitRate(); hr < 0.97 {
		t.Errorf("sequential page hit rate = %v, want > 0.97", hr)
	}
	bw := r.ctrl.BandwidthStack()
	if err := bw.CheckSum(); err != nil {
		t.Error(err)
	}
	// Saturated single stream: most lost bandwidth is constraints +
	// bank-idle (tCCD_L limits one bank group), with essentially no idle.
	if idle := bw.Fraction(stacks.BWIdle); idle > 0.05 {
		t.Errorf("idle fraction = %v, want < 0.05 under backpressure", idle)
	}
	read := bw.Fraction(stacks.BWRead)
	if read < 0.5 || read > 0.72 {
		t.Errorf("read fraction = %v, want about 2/3 (tCCD_L=6 vs BL/2=4)", read)
	}
}

func TestConfigValidation(t *testing.T) {
	std := standard.Default()
	geo, tim := std.Geometry, std.Timing
	dev := dram.NewDevice(geo, tim)
	m := addrmap.MustDefault(geo, 1)
	bad := []func(*Config){
		func(c *Config) { c.ReadQueueCap = 0 },
		func(c *Config) { c.WriteQueueCap = 0 },
		func(c *Config) { c.WriteHi = c.WriteLo },
		func(c *Config) { c.WriteHi = c.WriteQueueCap + 1 },
		func(c *Config) { c.WriteLo = -1; c.WriteHi = 0 },
		func(c *Config) { c.CtrlLatency = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(dev, m, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}
