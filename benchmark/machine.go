package main

import (
	"context"
	"fmt"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
)

// machine is the benchmark-owned per-cycle machine of the traced run:
// the same layers sim.New assembles, built from their public
// constructors and joined by the benchmark's own shims (cpu.Source,
// cpu.Mem, cache.MemPort, the read-completion callback), so that every
// call across a layer boundary passes through a file of this package and
// can be timed there. It runs the three-line reference loop: CPUCycle for
// every core CPUMult times, Hierarchy.Tick, Controller.Tick. The
// simulator guarantees its event-wheel loop is byte-identical to that
// loop, so equal statistics (see matches) show this is the same machine.
type machine struct {
	cfg    sim.Config
	mult   int64
	mapper addrmap.Mapper
	devs   []*dram.Device
	ctrls  []*memctrl.Controller
	hier   *cache.Hierarchy
	cores  []*cpu.Core
	srcs   []cpu.Source // the wrapped sources the cores pull from

	memCycle   int64
	violations int
	readDone   func(*memctrl.Request, int64)

	// Tracing: when rec is non-nil, one of every period memory cycles is
	// recorded (sampled is true while such a cycle runs). Timing every
	// cycle inflates a cycle several-fold; sampling keeps the machine
	// close to its untraced speed.
	rec           *recorder
	period        int64
	sampled       bool
	sampledCycles int64

	n counts
}

// counts are taken at the same seams as the spans, on every cycle.
type counts struct {
	srcCalls, srcInstrs int64
	cpuCycles           int64
	accesses            int64
	enqueued, refused   int64
	ticks               int64
}

// newMachine mirrors sim's assembly step for step.
func newMachine(cfg sim.Config, sources []cpu.Source) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("%d sources for %d cores", len(sources), cfg.Cores)
	}
	sub, chans := max(cfg.SubChannels, 1), max(cfg.Channels, 1)
	mapper, err := addrmap.Select(cfg.Geom, sub, cfg.Channels, cfg.Map.String())
	if err != nil {
		return nil, err
	}
	m := &machine{cfg: cfg, mult: int64(cfg.CPUMult), mapper: mapper}
	for ch := 0; ch < sub*chans; ch++ {
		dev := dram.NewDevice(cfg.Geom, cfg.Tim)
		ver := dram.NewVerifier(cfg.Geom, cfg.Tim)
		dev.Trace = func(cycle int64, cmd dram.Command) {
			m.violations += len(ver.Check(cycle, cmd))
		}
		cc := cfg.Ctrl
		cc.SampleInterval = cfg.SampleInterval
		cc.Recycle = true
		ctrl, err := memctrl.New(dev, mapper, cc)
		if err != nil {
			return nil, err
		}
		m.devs = append(m.devs, dev)
		m.ctrls = append(m.ctrls, ctrl)
	}
	m.readDone = func(r *memctrl.Request, at int64) {
		i := m.begin(layerCache)
		r.Meta.(cache.Waiter).MemDone(at*m.mult, r.QueueFraction(), r.RegFraction())
		m.end(i)
	}
	if m.hier, err = cache.NewHierarchy(cfg.Hier, (*memPort)(m)); err != nil {
		return nil, err
	}
	for i, src := range sources {
		w := m.wrap(src)
		m.srcs = append(m.srcs, w)
		m.cores = append(m.cores, cpu.New(i, cfg.Core, (*coreMem)(m), w))
	}
	return m, nil
}

// tracedSource is the benchmark's cpu.Source around a workload source.
type tracedSource struct {
	m     *machine
	inner cpu.Source
}

func (s *tracedSource) Next() (cpu.Instr, bool) {
	m := s.m
	m.n.srcCalls++
	i := m.begin(layerWorkload)
	ins, ok := s.inner.Next()
	m.end(i)
	if ok {
		m.n.srcInstrs++
	}
	return ins, ok
}

// tracedBatchSource keeps a source's batch-ness: the core pulls 64 items
// per call through it exactly as it would from the source itself.
type tracedBatchSource struct {
	tracedSource
	batch cpu.BatchSource
}

func (s *tracedBatchSource) NextBatch(buf []cpu.Instr) int {
	m := s.m
	m.n.srcCalls++
	i := m.begin(layerWorkload)
	n := s.batch.NextBatch(buf)
	m.end(i)
	m.n.srcInstrs += int64(n)
	return n
}

// wrap returns the traced shim for src; it implements cpu.BatchSource
// exactly when src does.
func (m *machine) wrap(src cpu.Source) cpu.Source {
	ts := tracedSource{m: m, inner: src}
	if bs, ok := src.(cpu.BatchSource); ok {
		return &tracedBatchSource{tracedSource: ts, batch: bs}
	}
	return &ts
}

// coreMem is the benchmark's cpu.Mem: the cores' port into the cache
// hierarchy.
type coreMem machine

func (p *coreMem) Access(now int64, core int, addr uint64, write bool, w cache.Waiter) cache.Outcome {
	m := (*machine)(p)
	m.n.accesses++
	i := m.begin(layerCache)
	o := m.hier.Access(now, core, addr, write, w)
	m.end(i)
	return o
}

// memPort is the benchmark's cache.MemPort: the hierarchy's port into the
// memory controllers, which owns the CPU-to-memory clock conversion and
// the routing of an address to its controller.
type memPort machine

func (m *machine) route(addr uint64) *memctrl.Controller {
	if len(m.ctrls) == 1 {
		return m.ctrls[0]
	}
	return m.ctrls[m.mapper.Decode(addr).Channel]
}

func (p *memPort) Read(now int64, addr uint64, src int, w cache.Waiter) bool {
	m := (*machine)(p)
	i := m.begin(layerMemctrl)
	_, ok := m.route(addr).EnqueueReadFrom(m.memCycle, addr, src, m.readDone, w)
	m.end(i)
	m.enqueueResult(ok)
	return ok
}

func (p *memPort) Write(now int64, addr uint64, src int) bool {
	m := (*machine)(p)
	i := m.begin(layerMemctrl)
	_, ok := m.route(addr).EnqueueWriteFrom(m.memCycle, addr, src, nil, nil)
	m.end(i)
	m.enqueueResult(ok)
	return ok
}

func (m *machine) enqueueResult(ok bool) {
	if ok {
		m.n.enqueued++
	} else {
		m.n.refused++
	}
}

// prewarm is sim's serial functional warm-up: the head of each stream
// goes through Hierarchy.Warm round-robin, one item per core per round,
// until each core has warmed cfg.PrewarmOps memory operations; the cores
// continue from where warming stopped. sim.New's parallel variant leaves
// the hierarchy in the same state by construction.
func (m *machine) prewarm() {
	quota := m.cfg.PrewarmOps
	warmed := make([]int64, len(m.srcs))
	finished := make([]bool, len(m.srcs))
	for active := len(m.srcs); active > 0; {
		progress := false
		for i, src := range m.srcs {
			if finished[i] {
				continue
			}
			if warmed[i] >= quota {
				finished[i] = true
				active--
				continue
			}
			ins, ok := src.Next()
			if !ok {
				finished[i] = true
				active--
				continue
			}
			switch ins.Kind {
			case cpu.KindLoad, cpu.KindStore:
				m.hier.Warm(i, ins.Addr, ins.Kind == cpu.KindStore)
				warmed[i]++
				progress = true
			case cpu.KindStall:
				// Barrier wait: progress only if another core moves.
			default:
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	m.n = counts{}
}

// begin opens a span of layer l if the current memory cycle is sampled;
// end closes what begin opened. Every seam calls the pair, traced or not.
func (m *machine) begin(l layer) int32 {
	if m.sampled {
		return m.rec.begin(l)
	}
	return -1
}

func (m *machine) end(i int32) {
	if i >= 0 {
		m.rec.end(i)
	}
}

// trace makes the next run record one of every period memory cycles.
func (m *machine) trace(rec *recorder, period int64) {
	m.rec, m.period = rec, period
}

// run is the reference loop. It stops at the cycle budget, when the
// workload has finished and the memory system has drained, or when ctx
// is cancelled.
func (m *machine) run(ctx context.Context) {
	for {
		m.sampled = m.rec != nil && m.memCycle%m.period == m.period/2
		if m.sampled {
			m.sampledCycles++
			m.rec.cycle = m.memCycle
		}
		root := m.begin(layerLoop)
		for c := int64(0); c < m.mult; c++ {
			now := m.memCycle*m.mult + c
			for _, core := range m.cores {
				i := m.begin(layerCPU)
				core.CPUCycle(now)
				m.end(i)
			}
			i := m.begin(layerCache)
			m.hier.Tick(now)
			m.end(i)
		}
		m.n.cpuCycles += m.mult * int64(len(m.cores))
		for _, ctrl := range m.ctrls {
			i := m.begin(layerMemctrl)
			ctrl.Tick(m.memCycle)
			m.end(i)
		}
		m.n.ticks += int64(len(m.ctrls))
		m.memCycle++
		stop := m.cfg.MaxMemCycles > 0 && m.memCycle >= m.cfg.MaxMemCycles || m.done() ||
			m.memCycle&1023 == 0 && ctx.Err() != nil
		m.end(root)
		m.sampled = false
		if stop {
			return
		}
	}
}

func (m *machine) done() bool {
	for _, c := range m.cores {
		if !c.Done() {
			return false
		}
	}
	for _, ctrl := range m.ctrls {
		if ctrl.Pending() {
			return false
		}
	}
	return !m.hier.Pending()
}

func (m *machine) devStats() dram.Stats {
	var sum dram.Stats
	for _, dev := range m.devs {
		s := dev.Stats()
		sum.ACT += s.ACT
		sum.PRE += s.PRE
		sum.AutoPRE += s.AutoPRE
		sum.RD += s.RD
		sum.WR += s.WR
		sum.REF += s.REF
	}
	return sum
}

// matches reports whether this machine ended in the state sim's own run
// of the same inputs reported: cycle count, every controller's and
// core's statistics, the device command counts and the cache counters.
func (m *machine) matches(res *sim.Result) bool {
	if m.memCycle != res.MemCycles || m.violations != len(res.Violations) ||
		len(m.ctrls) != len(res.PerChannelStats) || len(m.cores) != len(res.CoreStats) {
		return false
	}
	for ch, ctrl := range m.ctrls {
		if ctrl.Stats() != res.PerChannelStats[ch] {
			return false
		}
	}
	for i, core := range m.cores {
		if core.Stats() != res.CoreStats[i] {
			return false
		}
	}
	return m.devStats() == res.DevStats && m.hier.Stats() == res.HierStats && m.hier.LLCStats() == res.LLCStats
}

// layerCounts returns the per-layer counts and simulated ratios of a
// finished run, keyed by metric name.
func (m *machine) layerCounts() map[string]float64 {
	out := map[string]float64{
		"workload.instrs":     float64(m.n.srcInstrs),
		"workload.calls":      float64(m.n.srcCalls),
		"cpu.cycles":          float64(m.n.cpuCycles),
		"cache.accesses":      float64(m.n.accesses),
		"memctrl.ticks":       float64(m.n.ticks),
		"memctrl.enqueued":    float64(m.n.enqueued),
		"memctrl.refused":     float64(m.n.refused),
		"cache.llc_hit_ratio": m.hier.LLCStats().HitRate(),
	}
	var retired, dramLoads int64
	var l1, l2 cache.LevelStats
	for i, core := range m.cores {
		cs := core.Stats()
		retired += cs.Retired
		dramLoads += cs.DramLoads
		a, b := m.hier.L1Stats(i), m.hier.L2Stats(i)
		l1.Accesses, l1.Hits = l1.Accesses+a.Accesses, l1.Hits+a.Hits
		l2.Accesses, l2.Hits = l2.Accesses+b.Accesses, l2.Hits+b.Hits
	}
	out["cpu.retired"] = float64(retired)
	out["cpu.dram_loads"] = float64(dramLoads)
	if m.n.cpuCycles > 0 {
		out["cpu.ipc"] = float64(retired) / float64(m.n.cpuCycles)
	}
	out["cache.l1_hit_ratio"] = l1.HitRate()
	out["cache.l2_hit_ratio"] = l2.HitRate()
	hs := m.hier.Stats()
	out["cache.mem_reads"] = float64(hs.DemandMissesToMem + hs.PrefetchesToMem)
	out["cache.mem_writes"] = float64(hs.WritebacksToMem)
	out["cache.mshr_merges"] = float64(hs.MSHRMerges)
	out["cache.retries"] = float64(hs.Retries)

	var hits, columns, queueCycles, cycles, drains int64
	var bw stacks.BandwidthStack
	var lat stacks.LatencyStack
	for _, ctrl := range m.ctrls {
		s := ctrl.Stats()
		hits += s.PageHits
		columns += s.PageHits + s.PageEmpty + s.PageMiss
		queueCycles += s.ReadQueueCycles
		cycles += s.Cycles
		drains += s.DrainEntries
		bw.Add(ctrl.BandwidthStack())
		lat.Add(ctrl.LatencyStack())
	}
	if columns > 0 {
		out["memctrl.page_hit_ratio"] = float64(hits) / float64(columns)
	}
	if cycles > 0 {
		out["memctrl.read_queue_avg"] = float64(queueCycles) / float64(cycles)
	}
	out["memctrl.write_drains"] = float64(drains)
	ds := m.devStats()
	out["dram.act"], out["dram.rd"], out["dram.wr"], out["dram.ref"] = float64(ds.ACT), float64(ds.RD), float64(ds.WR), float64(ds.REF)
	if peak := m.cfg.Geom.PeakBandwidthGBs(); peak > 0 {
		out["stacks.bw_util"] = bw.AchievedGBps(m.cfg.Geom) / peak
	}
	out["stacks.lat_avg_ns"] = lat.AvgTotalNS(m.cfg.Geom)
	return out
}
