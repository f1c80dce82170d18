package main

import (
	"math"
	"time"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/sched"
	"dramstacks/internal/stacks"
)

// The isolated drivers time one layer's public functions on their own,
// outside any machine: a host-ns-per-call figure for the functions that
// have no seam inside the traced machine (everything beneath
// memctrl.Controller) or that only the production loop calls
// (FastForward, the event wheel, Warm). Each reports the median of
// driverRounds rounds.
const driverRounds = 5

// perOp runs round driverRounds times; round performs and returns a
// number of operations. The result is the median host ns per operation.
func perOp(round func() int) float64 {
	var ns []float64
	for i := 0; i < driverRounds; i++ {
		t0 := time.Now()
		ops := round()
		d := time.Since(t0)
		if ops > 0 {
			ns = append(ns, float64(d)/float64(ops))
		}
	}
	return median(ns)
}

// memOp is one memory operation of a workload's instruction streams.
type memOp struct {
	core  int
	addr  uint64
	write bool
}

// memOps takes the first n memory operations of the sources, round-robin
// over the cores as prewarm consumes them, so the drivers see the
// workload's own address pattern without paying for its generation.
func memOps(srcs []cpu.Source, n int) []memOp {
	ops := make([]memOp, 0, n)
	live := len(srcs)
	ended := make([]bool, len(srcs))
	for stalled := 0; len(ops) < n && live > 0 && stalled < 2; {
		progress := false
		for i, src := range srcs {
			if ended[i] || len(ops) == n {
				continue
			}
			ins, ok := src.Next()
			switch {
			case !ok:
				ended[i] = true
				live--
			case ins.Kind == cpu.KindLoad || ins.Kind == cpu.KindStore:
				ops = append(ops, memOp{i, ins.Addr, ins.Kind == cpu.KindStore})
				progress = true
			case ins.Kind != cpu.KindStall:
				progress = true
			}
		}
		if progress {
			stalled = 0
		} else {
			stalled++
		}
	}
	return ops
}

// nullPort is a cache.MemPort that accepts everything and completes
// nothing; Warm never reaches it.
type nullPort struct{}

func (nullPort) Read(int64, uint64, int, cache.Waiter) bool { return true }
func (nullPort) Write(int64, uint64, int) bool              { return true }

// driveWarm times Hierarchy.Warm per operation.
func driveWarm(cfg cache.HierConfig, ops []memOp) (float64, error) {
	h, err := cache.NewHierarchy(cfg, nullPort{})
	if err != nil {
		return 0, err
	}
	return perOp(func() int {
		for _, op := range ops {
			h.Warm(op.core, op.addr, op.write)
		}
		return len(ops)
	}), nil
}

// hitMem is a cpu.Mem whose every access hits the L1.
type hitMem struct{}

func (hitMem) Access(int64, int, uint64, bool, cache.Waiter) cache.Outcome {
	return cache.Outcome{Status: cache.Hit, Latency: 4, Level: 1}
}

// driveFastForward times the closed-form replay the production loop
// leans on when the memory system idles: NextEventCycle, then
// FastForward over the provably repetitive stretch, then the real
// CPUCycle calls that reach the next such stretch. The result is host ns
// per FastForward call, those CPUCycle calls included.
func driveFastForward(cfg cpu.Config, seed int64) (float64, error) {
	srcs, _, err := cacheResident(seed, 1)
	if err != nil {
		return 0, err
	}
	core := cpu.New(0, cfg, hitMem{}, srcs[0])
	now := int64(0)
	return perOp(func() int {
		skips := 0
		for skips < 20_000 {
			if e := core.NextEventCycle(now); e > now && e != math.MaxInt64 {
				core.FastForward(now, e-now)
				now = e
				skips++
			} else {
				core.CPUCycle(now)
				now++
			}
		}
		return skips
	}), nil
}

// issued is one DRAM command with the cycle it was issued at.
type issued struct {
	cycle int64
	cmd   dram.Command
}

// countdown is the cache.Waiter of the saturated-tick driver: it only
// counts completions.
type countdown struct{ inflight int }

func (c *countdown) MemDone(int64, float64, float64) { c.inflight-- }

// driveSaturatedTicks times Controller.Tick with the queues kept full of
// the workload's own addresses (reads and writes in its own mix),
// through the machine's memPort so routing and enqueueing cost what they
// cost in the traced machine. The cores and caches of m are not run. It
// returns host ns per Tick (enqueues included) and the commands the
// first device executed, for driveVerify.
func driveSaturatedTicks(m *machine, ops []memOp) (float64, []issued) {
	const ticks = 40_000
	var trace []issued
	check := m.devs[0].Trace
	m.devs[0].Trace = func(cycle int64, cmd dram.Command) {
		if len(trace) < 4*ticks {
			trace = append(trace, issued{cycle, cmd})
		}
		check(cycle, cmd)
	}
	port := (*memPort)(m)
	var wait countdown
	next := 0
	ns := perOp(func() int {
		for end := m.memCycle + ticks; m.memCycle < end; m.memCycle++ {
			for tries := 0; wait.inflight < 32 && tries < 4; tries++ {
				op := ops[next%len(ops)]
				if op.write {
					if port.Write(0, op.addr, op.core) {
						next++
					}
				} else if port.Read(0, op.addr, op.core, &wait) {
					wait.inflight++
					next++
				}
			}
			for _, ctrl := range m.ctrls {
				ctrl.Tick(m.memCycle)
			}
		}
		return ticks * len(m.ctrls)
	})
	return ns, trace
}

// driveVerify times Verifier.Check per command over one device's
// recorded trace.
func driveVerify(geo dram.Geometry, tim dram.Timing, trace []issued) float64 {
	return perOp(func() int {
		ver := dram.NewVerifier(geo, tim)
		for _, c := range trace {
			ver.Check(c.cycle, c.cmd)
		}
		return len(trace)
	})
}

// driveIssue times the device's constraint engine per command:
// EarliestIssue, Sync and Issue of an activate then an auto-precharging
// read, walking the banks.
func driveIssue(geo dram.Geometry, tim dram.Timing) float64 {
	dev := dram.NewDevice(geo, tim)
	now, i := int64(0), 0
	return perOp(func() int {
		const pairs = 50_000
		for end := i + pairs; i < end; i++ {
			loc := dram.Loc{Group: i % geo.Groups, Bank: (i / geo.Groups) % geo.Banks, Row: i % 1024}
			for _, kind := range []dram.CommandKind{dram.CmdACT, dram.CmdRDA} {
				cmd := dram.Command{Kind: kind, Loc: loc}
				at, ok := dev.EarliestIssue(cmd, now)
				if !ok {
					return 0
				}
				dev.Sync(at)
				dev.Issue(cmd, at)
				now = at
			}
		}
		return 2 * pairs
	})
}

// driveAccount times BandwidthAccountant.Account per cycle over the
// kinds of cycle a busy channel produces.
func driveAccount(banks int) float64 {
	a := stacks.NewBandwidthAccountant(banks)
	views := []stacks.CycleView{
		{Data: dram.DataRead},
		{PreMask: 0x3, ActMask: 0x8, BlockedMask: 0xF0, Pending: true},
		{Data: dram.DataWrite, ActMask: 0x4, Pending: true},
		{Pending: true, ChannelBlocked: true},
		{},
	}
	return perOp(func() int {
		const n = 500_000
		for i := 0; i < n; i++ {
			a.Account(views[i%len(views)])
		}
		return n
	})
}

// driveAddRead times LatencyAccountant.AddRead per completed read.
func driveAddRead() float64 {
	a := stacks.NewLatencyAccountant()
	r := stacks.ReadLatency{Total: 60}
	r.Components[stacks.LatBaseDRAM] = 40
	r.Components[stacks.LatQueue] = 20
	return perOp(func() int {
		const n = 500_000
		for i := 0; i < n; i++ {
			a.AddRead(r)
		}
		return n
	})
}

// driveWheel times one event through the wheel: Schedule, Advance to it,
// PopDue, with near and far deadlines mixed as the simulator mixes
// controller ticks, refresh deadlines and run boundaries.
func driveWheel() float64 {
	w := sched.New()
	gaps := []int64{1, 1, 7, 1, 130, 1, 2, 9360}
	now, i := int64(0), 0
	return perOp(func() int {
		const n = 200_000
		for end := i + n; i < end; i++ {
			w.Schedule(i%4, now+gaps[i%len(gaps)])
			now = w.Earliest()
			w.Advance(now)
			w.PopDue()
		}
		return n
	})
}

// driveDecode times Mapper.Decode per address of the workload.
func driveDecode(mapper addrmap.Mapper, ops []memOp) float64 {
	var sink int
	ns := perOp(func() int {
		for _, op := range ops {
			sink += mapper.Decode(op.addr).Bank
		}
		return len(ops)
	})
	_ = sink
	return ns
}

// isolatedLayers runs every isolated driver for one simulated workload.
func isolatedLayers(c *simCase, seed int64) (map[string]float64, error) {
	_, cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	srcs, _, err := c.sources(seed, c.cores)
	if err != nil {
		return nil, err
	}
	ops := memOps(srcs, 1<<17)
	out := map[string]float64{}
	if len(ops) > 0 {
		if out["cache.warm_ns"], err = driveWarm(cfg.Hier, ops); err != nil {
			return nil, err
		}
		// The saturated-tick driver feeds the controllers directly; the
		// machine's cores are never run, so any sources will do.
		idle, _, err := cacheResident(seed, c.cores)
		if err != nil {
			return nil, err
		}
		m, err := newMachine(cfg, idle)
		if err != nil {
			return nil, err
		}
		var trace []issued
		out["memctrl.tick_sat_ns"], trace = driveSaturatedTicks(m, ops)
		out["dram.verify_ns"] = driveVerify(cfg.Geom, cfg.Tim, trace)
		out["addrmap.decode_ns"] = driveDecode(m.mapper, ops)
	}
	if out["cpu.ff_ns"], err = driveFastForward(cfg.Core, seed); err != nil {
		return nil, err
	}
	out["dram.issue_ns"] = driveIssue(cfg.Geom, cfg.Tim)
	out["stacks.account_ns"] = driveAccount(cfg.Geom.TotalBanks())
	out["stacks.addread_ns"] = driveAddRead()
	out["sched.event_ns"] = driveWheel()
	return out, nil
}
