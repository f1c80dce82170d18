// Package sim assembles the full simulated machine of the paper's §VI:
// 1–8 out-of-order cores with private L1/L2 caches and a shared LLC,
// attached to a DDR4-2400 memory controller with FR-FCFS scheduling,
// while the bandwidth, latency and cycle stacks are collected.
//
// The master clock is the memory clock (1.2 GHz); cores run CPUMult CPU
// cycles per memory cycle (3, i.e. 3.6 GHz).
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/cyclestack"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sched"
	"dramstacks/internal/stacks"
)

// Mapping selects the address-indexing scheme (paper Fig. 5).
type Mapping uint8

const (
	// MapDefault is the page-local scheme of Fig. 5(a).
	MapDefault Mapping = iota
	// MapInterleaved is the cache-line-interleaved scheme of Fig. 5(b).
	MapInterleaved
	// MapXOR is the default scheme with permutation-based (XOR) bank
	// hashing: same-bank row conflicts spread over the banks while page
	// locality is preserved.
	MapXOR
)

// String names the mapping as in Fig. 6 ("def" / "int"), plus "xor".
func (m Mapping) String() string {
	switch m {
	case MapInterleaved:
		return "int"
	case MapXOR:
		return "xor"
	default:
		return "def"
	}
}

// Config describes a full-system experiment. Callers start from
// DefaultFor, set the fields they vary and pass it to New with WithConfig.
type Config struct {
	Cores   int
	CPUMult int // CPU cycles per memory cycle
	// Channels is the number of memory channels, each with its own
	// controller and stack accounting (0 means 1). With more than one
	// channel, consecutive cache lines interleave across channels and
	// the per-controller stacks are aggregated in the Result, as the
	// paper describes (§IV).
	Channels int
	// SubChannels is the number of independently timed sub-devices (HBM
	// pseudo-channels) behind each addressed channel (0 means 1). Each
	// sub-channel gets its own controller, device and stacks, exactly
	// like a channel; the sub-channel select bit sits directly above the
	// cache-line offset in the address map. Standards set this via
	// DefaultFor (2 for hbm2-2000, 1 otherwise).
	SubChannels int

	Core cpu.Config
	Hier cache.HierConfig
	Ctrl memctrl.Config

	Geom dram.Geometry
	Tim  dram.Timing
	Map  Mapping

	// PrewarmOps functionally pre-warms the caches with this many memory
	// operations per core from the head of its instruction stream before
	// timing starts (no statistics, no DRAM traffic). Without it, runs
	// shorter than an LLC fill see no steady-state writebacks.
	PrewarmOps int64
	// MaxMemCycles stops the run (0 = run until the workload finishes).
	MaxMemCycles int64
	// WarmupMemCycles are excluded from the reported stacks.
	WarmupMemCycles int64
	// SampleInterval cuts through-time samples every so many memory
	// cycles (0 disables).
	SampleInterval int64
	// Trace, if non-nil, receives every issued DRAM command (e.g. a
	// trace.Recorder hook for offline stack construction).
	Trace func(cycle int64, cmd dram.Command)
}

// Default returns the paper's machine configuration for the given core
// count, with a cycle budget the caller usually overrides. The memory
// is the default standard from the registry (ddr4-2400, the exact
// configuration the paper evaluates).
func Default(cores int) Config {
	return DefaultFor(standard.Default(), cores)
}

// DefaultFor returns the paper's machine configuration for the given
// core count attached to the given DRAM standard: the standard supplies
// geometry, timing and pseudo-channel topology; everything CPU-side
// stays the paper's machine.
func DefaultFor(std standard.Standard, cores int) Config {
	cfg := Config{
		Cores:        cores,
		CPUMult:      3,
		Core:         cpu.DefaultConfig(),
		Hier:         cache.DefaultHierConfig(cores),
		Ctrl:         memctrl.DefaultConfig(),
		Geom:         std.Geometry,
		Tim:          std.Timing,
		MaxMemCycles: 2_000_000,
	}
	if std.SubChannels > 1 {
		cfg.SubChannels = std.SubChannels
	}
	return cfg
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: cores must be positive, got %d", c.Cores)
	}
	if c.CPUMult <= 0 {
		return fmt.Errorf("sim: CPU multiplier must be positive, got %d", c.CPUMult)
	}
	if c.Hier.Cores != c.Cores {
		return fmt.Errorf("sim: hierarchy configured for %d cores, system has %d", c.Hier.Cores, c.Cores)
	}
	if c.Channels < 0 || c.Channels > 8 {
		return fmt.Errorf("sim: channels must be in 0..8, got %d", c.Channels)
	}
	if c.SubChannels < 0 || c.SubChannels > 4 {
		return fmt.Errorf("sim: sub-channels must be in 0..4, got %d", c.SubChannels)
	}
	if d := c.devices(); d > 16 {
		return fmt.Errorf("sim: channels x sub-channels must be at most 16 devices, got %d", d)
	}
	if c.MaxMemCycles < 0 || c.WarmupMemCycles < 0 {
		return fmt.Errorf("sim: negative cycle budget")
	}
	if c.MaxMemCycles > 0 && c.WarmupMemCycles >= c.MaxMemCycles {
		return fmt.Errorf("sim: warmup %d must be below the cycle budget %d",
			c.WarmupMemCycles, c.MaxMemCycles)
	}
	return c.Core.Validate()
}

// devices returns the number of independently timed memory devices the
// configuration instantiates: channels × sub-channels (zeros mean 1).
func (c Config) devices() int {
	ch := c.Channels
	if ch == 0 {
		ch = 1
	}
	sub := c.SubChannels
	if sub == 0 {
		sub = 1
	}
	return ch * sub
}

// System is an assembled machine ready to Run.
type System struct {
	cfg      Config
	channels int
	devs     []*dram.Device
	ctrls    []*memctrl.Controller
	hier     *cache.Hierarchy
	cores    []*cpu.Core
	mapper   addrmap.Mapper

	violations []dram.Violation

	memCycle int64

	// Controllers are ticked lazily by the event loop: ctrlTicked is the
	// last memory cycle each controller has simulated, ctrlNext the next
	// cycle it must simulate for real (everything in between is provably
	// quiet and is replayed in closed form by catchUpCtrl).
	ctrlTicked []int64
	ctrlNext   []int64

	// wheel holds what bounds a CPU phase of the event loop: controller
	// actors (IDs 0..channels-1) carry each controller's next real tick
	// cycle (its refresh deadline when idle), and one actor each stands
	// for the budget, warm-up, sampler and cancellation-poll boundaries.
	// Cores are not in it: they sleep to CPU-cycle deadlines the phase
	// itself jumps between (see cpuPhase).
	wheel *sched.Wheel

	// readDone is the single pre-bound read-completion callback shared
	// by every memory request (the per-request waiter travels in
	// Request.Meta), so enqueuing allocates no closures.
	readDone func(*memctrl.Request, int64)

	// memActive flags that a request reached a memory controller during
	// the current CPU phase, which therefore ends with this memory cycle.
	memActive bool

	// onSample receives each aggregated through-time sample (WithSampleFunc).
	onSample func(stacks.Sample)

	cycleSamples []cyclestack.Stack
	lastCycle    cyclestack.Stack
	nextCut      int64
	published    int // per-channel samples already delivered to onSample
	cancelled    bool

	warmBW     []stacks.BandwidthStack
	warmLat    []stacks.LatencyStack
	warmSrcBW  [][]stacks.SourceStack
	warmSrcLat [][]stacks.LatencyStack
	warmed     bool

	// arena, when the System was built on one (WithArena), lent it the
	// hierarchy's cache arrays under tenancy gen; see checkTenancy.
	arena *Arena
	gen   uint64

	work *Work // nil until prewarm runs
}

// Work counts what building and running a System did, in units that do
// not depend on the host's speed: host time divided by them is a cost per
// operation. It is not part of a Result, nor of a spec's hash.
type Work struct {
	// WarmItems is, per core, the items prewarm consumed from the source
	// (nil without prewarm).
	WarmItems []int64
	// LLCOps is the shared-level operations the parallel prewarm recorded
	// and replayed, and Chunks the chunks it warmed; both stay 0 when
	// prewarm ran the serial loop, which applies the same operations as
	// it goes (one core, GOMAXPROCS 1, or a source without NextBatch).
	LLCOps int64
	Chunks int64
	// WarmBytes is the capacity the parallel prewarm's record sets
	// reached, the logs of both sets it took for this System's cores
	// (0 on the serial loop). Store-heavy streams grow a log past its
	// chunk; on an Arena the sets may also keep what a predecessor grew.
	WarmBytes int64
	// CacheBytes is the size of the cache hierarchy's arrays
	// (cache.HierConfig.ArrayBytes), allocated afresh or taken from an
	// Arena.
	CacheBytes int64
	// Ctrl is the memory controllers' work, summed over channels.
	Ctrl memctrl.Work
	// Pools is how far the memory path's fixed and pooled objects were
	// used.
	Pools Pools
}

// Pools is the high-water marks of the simulated memory path's objects.
type Pools struct {
	// MSHRPeak is the most line fills the hierarchy's MSHR file held at
	// once (at most cache.HierConfig.MSHRs).
	MSHRPeak int
	// Tickets is the load tickets the cores' pools reached, summed over
	// cores.
	Tickets int
	// Requests is the request objects the controllers' pools reached,
	// summed over controllers.
	Requests int
}

// Work returns the System's work counts.
func (s *System) Work() Work {
	var w Work
	if s.work != nil {
		w = *s.work
		w.WarmItems = slices.Clone(w.WarmItems)
	}
	w.CacheBytes = s.cfg.Hier.ArrayBytes()
	w.Pools.MSHRPeak = s.hier.MSHRPeak()
	for _, c := range s.cores {
		w.Pools.Tickets += c.Tickets()
	}
	for _, ctrl := range s.ctrls {
		w.Pools.Requests += ctrl.Requests()
		cw := ctrl.Work()
		w.Ctrl.Ticks += cw.Ticks
		w.Ctrl.Replayed += cw.Replayed
		w.Ctrl.Rebuilds += cw.Rebuilds
		w.Ctrl.Retimes += cw.Retimes
		w.Ctrl.Asks += cw.Asks
	}
	return w
}

// newSystem assembles a system from a fully built Config running the given
// per-core instruction sources (len(sources) must equal cfg.Cores), on arena
// when that is not nil; New fronts it.
func newSystem(cfg Config, sources []cpu.Source, arena *Arena) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}

	channels := cfg.devices()
	sub := cfg.SubChannels
	if sub == 0 {
		sub = 1
	}
	mapper, err := addrmap.Select(cfg.Geom, sub, cfg.Channels, cfg.Map.String())
	if err != nil {
		return nil, err
	}

	s := &System{cfg: cfg, channels: channels, mapper: mapper}
	for ch := 0; ch < channels; ch++ {
		dev := dram.NewDevice(cfg.Geom, cfg.Tim)
		s.devs = append(s.devs, dev)
		// Every DRAM command is replayed through the independent timing
		// verifier.
		ver := dram.NewVerifier(cfg.Geom, cfg.Tim)
		dev.Trace = func(cycle int64, cmd dram.Command) {
			if vs := ver.Check(cycle, cmd); vs != nil {
				s.violations = append(s.violations, vs...)
			}
			if cfg.Trace != nil {
				cfg.Trace(cycle, cmd)
			}
		}
		ctrlCfg := cfg.Ctrl
		ctrlCfg.SampleInterval = cfg.SampleInterval
		// The simulator never retains a *Request past its completion
		// callback, so the controllers recycle request objects.
		ctrlCfg.Recycle = true
		ctrl, err := memctrl.New(dev, mapper, ctrlCfg)
		if err != nil {
			return nil, err
		}
		s.ctrls = append(s.ctrls, ctrl)
	}
	s.ctrlTicked = make([]int64, channels)
	s.ctrlNext = make([]int64, channels)
	s.wheel = sched.New()
	for ch := range s.ctrlTicked {
		s.ctrlTicked[ch] = -1
		s.wheel.Schedule(ch, 0)
	}
	if cfg.MaxMemCycles > 0 {
		s.wheel.Schedule(s.budgetActor(), cfg.MaxMemCycles)
	}
	if cfg.WarmupMemCycles > 0 {
		s.wheel.Schedule(s.warmupActor(), cfg.WarmupMemCycles)
	}
	if cfg.SampleInterval > 0 {
		s.wheel.Schedule(s.samplerActor(), cfg.SampleInterval)
	}
	s.readDone = func(r *memctrl.Request, at int64) {
		r.Meta.(cache.Waiter).MemDone(at*int64(s.cfg.CPUMult), r.QueueFraction(), r.RegFraction())
	}
	var slots *cache.Arena
	if arena != nil {
		s.arena, s.gen, slots = arena, arena.issue(), &arena.slots
	}
	s.hier, err = cache.NewHierarchyIn(slots, cfg.Hier, (*memPort)(s))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, cpu.New(i, cfg.Core, s.hier, sources[i]))
	}
	if cfg.PrewarmOps > 0 {
		s.prewarm(sources)
	}
	return s, nil
}

// Boundary actor IDs in the event wheel (after the controller actors).
// They only bound the CPU phase; the bookkeeping after each controller
// phase observes their cycles.
func (s *System) budgetActor() int  { return s.channels }
func (s *System) warmupActor() int  { return s.channels + 1 }
func (s *System) samplerActor() int { return s.channels + 2 }
func (s *System) pollActor() int    { return s.channels + 3 }

// memPort adapts the memory controller to the cache hierarchy's CPU-cycle
// view of time.
type memPort System

var _ cache.MemPort = (*memPort)(nil)

// route returns the channel index owning addr.
func (s *System) route(addr uint64) int {
	if s.channels == 1 {
		return 0
	}
	return s.mapper.Decode(addr).Channel
}

// enqueueTarget catches the addressed controller up to the cycle just
// before the current one (requests at cycle m arrive after Tick(m-1) and
// before Tick(m)) and marks it due for a real tick this cycle.
func (s *System) enqueueTarget(addr uint64) *memctrl.Controller {
	ch := s.route(addr)
	s.catchUpCtrl(ch, s.memCycle-1)
	if s.ctrlNext[ch] > s.memCycle {
		s.ctrlNext[ch] = s.memCycle
		s.wheel.Schedule(ch, s.memCycle)
	}
	return s.ctrls[ch]
}

// Read implements cache.MemPort. The waiter rides in Request.Meta and
// the completion path goes through the system's single pre-bound
// callback, so a read enqueues without allocating.
func (p *memPort) Read(nowCPU int64, addr uint64, src int, w cache.Waiter) bool {
	s := (*System)(p)
	s.memActive = true
	_, ok := s.enqueueTarget(addr).EnqueueReadFrom(s.memCycle, addr, src, s.readDone, w)
	return ok
}

// Write implements cache.MemPort.
func (p *memPort) Write(nowCPU int64, addr uint64, src int) bool {
	s := (*System)(p)
	s.memActive = true
	_, ok := s.enqueueTarget(addr).EnqueueWriteFrom(s.memCycle, addr, src, nil, nil)
	return ok
}

// Controller exposes the memory controller of channel 0 (for extra
// statistics in single-channel experiments).
func (s *System) Controller() *memctrl.Controller { return s.ctrls[0] }

// Hierarchy exposes the cache hierarchy.
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// SleepStats says how the cores' cycles of the run so far were
// simulated, summed over cores (see cpu.SleepStats). It is a diagnostic
// of the simulator and deliberately not part of Result: nothing hashed or
// encoded depends on it.
func (s *System) SleepStats() cpu.SleepStats {
	s.syncSleepers()
	var t cpu.SleepStats
	for _, c := range s.cores {
		t.Add(c.SleepStats())
	}
	return t
}

// Run simulates until the cycle budget is exhausted or every core's
// stream has committed and the memory system has drained.
func (s *System) Run() *Result { return s.RunContext(context.Background()) }

// cancelCheckMask controls how often RunContext polls the context: every
// 1024 memory cycles (~0.85 µs simulated), cheap enough to be invisible
// in profiles while bounding cancellation latency.
const cancelCheckMask = 1<<10 - 1

// RunContext simulates like Run but additionally polls ctx every 1024
// memory cycles. When ctx is cancelled the run stops promptly and
// returns the partial result accumulated so far (with Cancelled set);
// warmup subtraction and through-time sampling behave exactly as on a
// normal early stop, so the partial stacks remain internally consistent.
//
// Each iteration is a CPU phase (cpuPhase: one memory cycle, or as many
// as precede the wheel's next event), the controller phase of the last
// memory cycle it covered, and the boundary bookkeeping (see
// doc/PERF.md). Every stack, sample and statistic is byte-identical to
// the reference per-cycle loop the golden tests hold it against
// (reference_test.go), which ticks every component on every cycle.
func (s *System) RunContext(ctx context.Context) *Result {
	s.checkTenancy()
	done := ctx.Done()
	if done != nil {
		// The poll is a boundary like the others, so that a CPU phase
		// cannot carry the run across it.
		s.wheel.Schedule(s.pollActor(), (s.memCycle|cancelCheckMask)+1)
	}
	for {
		s.cpuPhase()
		m := s.memCycle
		s.wheel.Advance(m)
		for mask := s.wheel.PopDue(); mask != 0; {
			a := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(a)
			if a < s.channels {
				s.catchUpCtrl(a, m)
			}
		}
		s.memCycle++

		if s.cfg.WarmupMemCycles > 0 && !s.warmed && s.memCycle >= s.cfg.WarmupMemCycles {
			s.catchUpAll(s.memCycle - 1)
			s.snapWarm()
			s.wheel.Cancel(s.warmupActor())
		}
		if s.cfg.SampleInterval > 0 && s.memCycle-s.nextCut >= s.cfg.SampleInterval {
			s.catchUpAll(s.memCycle - 1)
			s.cutCycleSample()
			s.publishSamples()
			s.wheel.Schedule(s.samplerActor(), s.nextCut+s.cfg.SampleInterval)
		}
		if s.cfg.MaxMemCycles > 0 && s.memCycle >= s.cfg.MaxMemCycles {
			break
		}
		if done != nil && s.memCycle&cancelCheckMask == 0 {
			select {
			case <-done:
				s.cancelled = true
			default:
			}
			if s.cancelled {
				break
			}
			s.wheel.Schedule(s.pollActor(), s.memCycle+cancelCheckMask+1)
		}
		if s.done() {
			break
		}
	}
	s.catchUpAll(s.memCycle - 1)
	for _, ctrl := range s.ctrls {
		ctrl.FinishSampling()
	}
	s.finishCycleSample()
	s.publishSamples()
	return s.result()
}

// checkTenancy panics when the System's arena has since been issued to
// another System: the cache arrays the hierarchy walks are that one's now,
// and running would corrupt both silently.
func (s *System) checkTenancy() {
	if s.arena != nil && s.arena.gen != s.gen {
		panic("sim: RunContext on a System whose arena has been issued to a later one")
	}
}

// cpuPhase simulates the cores and the cache hierarchy from the first
// CPU cycle of memory cycle s.memCycle through the memory cycle before
// the wheel's next event — the current one, when a controller is busy —
// and leaves s.memCycle at the last memory cycle it covered, whose
// controller phase the caller runs next. No controller has anything to
// do in the cycles before that one, so no completion arrives meanwhile.
//
// Only due cores are ticked, each going back to sleep as soon as it can
// (cpu.Core.TrySleep), and while the hierarchy has no writeback to retry
// the phase jumps straight to the earliest deadline. The jump is
// CPU-cycle granular on purpose: cache-resident cores wake nearly once
// per memory cycle, and visiting every memory cycle they wake in costs a
// fifth of the throughput there (doc/PERF.md, "One loop").
func (s *System) cpuPhase() {
	mult := int64(s.cfg.CPUMult)
	cpu := s.memCycle * mult
	cycleEnd := cpu + mult // first CPU cycle past memory cycle s.memCycle
	end := cycleEnd        // first CPU cycle past the phase
	if e := s.wheel.Earliest() * mult; e > end {
		end = e
	}
	s.memActive = false
	for {
		if !s.hier.Backlogged() {
			next := int64(math.MaxInt64)
			for _, core := range s.cores {
				if w := core.WakeAt(); w < next {
					next = w
				}
			}
			if next == math.MaxInt64 {
				// Every core has finished, waits for a controller, or
				// waits at a barrier for one that does, so the reference
				// loop stops, or has a completion to deliver, at the
				// end of this memory cycle: the one just ticked —
				// not the next, if that tick was its last subcycle — or
				// the one the phase began in, which must run regardless.
				end = cycleEnd
			}
			if next > cpu {
				cpu = next
			}
		}
		if cpu >= end {
			break
		}
		for cpu >= cycleEnd {
			// memPort stamps enqueues with s.memCycle. (Counting up beats
			// dividing: cores wake a few memory cycles apart.)
			s.memCycle++
			cycleEnd += mult
		}
		for _, core := range s.cores {
			if !core.Due(cpu) {
				continue
			}
			if core.Asleep() {
				core.Resume(cpu)
			}
			core.CPUCycle(cpu)
			core.TrySleep(cpu)
		}
		s.hier.Tick(cpu)
		cpu++
		if s.memActive {
			end = cycleEnd // the controllers run every cycle again
		}
	}
	if end > cycleEnd {
		s.memCycle = end/mult - 1 // a jump ended the phase
	}
}

// catchUpCtrl brings controller ch up to date through memory cycle
// target: quiet gaps (cycles before the controller's next real event,
// pure refresh waits followed by idle) are replayed in closed form,
// everything else is ticked normally. Replaying later is byte-identical
// to ticking inline because no requests arrived in between (enqueues
// catch the controller up first), so the controller's evolution over the
// gap is closed.
func (s *System) catchUpCtrl(ch int, target int64) {
	ticked := false
	for s.ctrlTicked[ch] < target {
		t := s.ctrlTicked[ch] + 1
		if next := s.ctrlNext[ch]; t < next {
			end := target
			if next-1 < end {
				end = next - 1
			}
			s.ctrls[ch].FastForwardQuiet(t, end)
			s.ctrlTicked[ch] = end
		} else {
			s.ctrls[ch].Tick(t)
			s.ctrlTicked[ch] = t
			s.ctrlNext[ch] = s.ctrls[ch].NextEventCycle(t)
			ticked = true
		}
	}
	if ticked {
		s.wheel.Schedule(ch, s.ctrlNext[ch])
	}
}

// catchUpAll brings every controller up to date through memory cycle
// target (before anything reads controller-side stacks or samples).
func (s *System) catchUpAll(target int64) {
	for ch := range s.ctrls {
		s.catchUpCtrl(ch, target)
	}
}

// publishSamples delivers any newly cut per-channel samples to onSample,
// aggregated across channels (all channels sample on the same cycle grid,
// so index i lines up).
func (s *System) publishSamples() {
	if s.onSample == nil {
		return
	}
	n := len(s.ctrls[0].Samples())
	for _, ctrl := range s.ctrls[1:] {
		if k := len(ctrl.Samples()); k < n {
			n = k
		}
	}
	for i := s.published; i < n; i++ {
		merged := s.ctrls[0].Samples()[i]
		for _, ctrl := range s.ctrls[1:] {
			sc := ctrl.Samples()[i]
			merged.BW.Add(sc.BW)
			merged.Lat.Add(sc.Lat)
		}
		s.onSample(merged)
	}
	s.published = n
}

func (s *System) done() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	for _, ctrl := range s.ctrls {
		if ctrl.Pending() {
			return false
		}
	}
	return !s.hier.Pending()
}

func (s *System) aggregateCycleStack() cyclestack.Stack {
	var agg cyclestack.Stack
	for _, c := range s.cores {
		agg.Add(c.Stack())
	}
	return agg
}

// syncSleepers replays sleeping cores' skipped cycles up to the current
// simulation time, so cycle stacks can be read mid-sleep. A no-op for
// awake cores.
func (s *System) syncSleepers() {
	upto := s.memCycle * int64(s.cfg.CPUMult)
	for _, c := range s.cores {
		c.SyncSleep(upto)
	}
}

func (s *System) cutCycleSample() {
	s.syncSleepers()
	cur := s.aggregateCycleStack()
	s.cycleSamples = append(s.cycleSamples, cur.Sub(s.lastCycle))
	s.lastCycle = cur
	s.nextCut = s.memCycle
}

func (s *System) finishCycleSample() {
	if s.cfg.SampleInterval <= 0 || s.memCycle == s.nextCut {
		return
	}
	s.cutCycleSample()
}

// snapWarm records every controller's stacks at the warmup boundary so
// the reported stacks cover only the post-warmup interval. Per-source
// splits are snapshotted alongside (nil entries without a QoS policy).
func (s *System) snapWarm() {
	for _, ctrl := range s.ctrls {
		s.warmBW = append(s.warmBW, ctrl.BandwidthStack())
		s.warmLat = append(s.warmLat, ctrl.LatencyStack())
		s.warmSrcBW = append(s.warmSrcBW, ctrl.SourceStacks())
		s.warmSrcLat = append(s.warmSrcLat, ctrl.SourceLatencyStacks())
	}
	s.warmed = true
}

// Result carries everything an experiment reports.
type Result struct {
	Cfg Config
	// Channels is the number of independently timed memory devices the
	// run instantiated: addressed channels × sub-channels, so an HBM
	// pseudo-channel counts like a channel here (it has its own
	// controller, stacks and peak bandwidth contribution).
	Channels  int
	MemCycles int64
	// Cancelled reports that RunContext stopped early because its
	// context was cancelled; the stacks cover only the cycles simulated.
	Cancelled bool

	// BW and Lat cover the post-warmup interval, aggregated over all
	// channels (BW keeps the "components sum to total cycles" semantics;
	// the GB/s conversions below scale to the total peak bandwidth).
	BW  stacks.BandwidthStack
	Lat stacks.LatencyStack

	// PerChannelBW and PerChannelStats break the aggregate down per
	// memory controller (paper §IV: stacks per controller, aggregated
	// afterwards).
	PerChannelBW    []stacks.BandwidthStack
	PerChannelStats []memctrl.Stats

	// PerSourceBW and PerSourceLat split the post-warmup stacks by QoS
	// source (rows 0..n-1 for the sources, a final stacks.SourceShared
	// row for unattributed cycles), aggregated over channels. Both are
	// nil unless a QoS policy was configured; the rows sum to BW / Lat
	// cycle-exactly.
	PerSourceBW  []stacks.SourceStack
	PerSourceLat []stacks.LatencyStack

	// Through-time samples (whole run, including warmup), aggregated
	// over channels.
	BWSamples    []stacks.Sample
	CycleSamples []cyclestack.Stack

	// LatHist is the distribution of total read latencies over all
	// channels (whole run, including warmup).
	LatHist stacks.LatencyHistogram

	CycleStacks []cyclestack.Stack // per core, whole run
	CoreStats   []cpu.Stats
	CtrlStats   memctrl.Stats // summed over channels
	DevStats    dram.Stats    // summed over channels
	LLCStats    cache.LevelStats
	HierStats   cache.HierStats

	Violations []dram.Violation
}

func (s *System) result() *Result {
	s.syncSleepers()
	r := &Result{
		Cfg:          s.cfg,
		Channels:     s.channels,
		MemCycles:    s.memCycle,
		Cancelled:    s.cancelled,
		LLCStats:     s.hier.LLCStats(),
		HierStats:    s.hier.Stats(),
		Violations:   s.violations,
		CycleSamples: s.cycleSamples,
	}
	for ch, ctrl := range s.ctrls {
		bw := ctrl.BandwidthStack()
		lat := ctrl.LatencyStack()
		if s.warmed {
			bw = bw.Sub(s.warmBW[ch])
			lat = lat.Sub(s.warmLat[ch])
		}
		r.PerChannelBW = append(r.PerChannelBW, bw)
		r.PerChannelStats = append(r.PerChannelStats, ctrl.Stats())
		if srcBW := ctrl.SourceStacks(); srcBW != nil {
			srcLat := ctrl.SourceLatencyStacks()
			if s.warmed {
				for i := range srcBW {
					srcBW[i] = srcBW[i].Sub(s.warmSrcBW[ch][i])
					srcLat[i] = srcLat[i].Sub(s.warmSrcLat[ch][i])
				}
			}
			if r.PerSourceBW == nil {
				r.PerSourceBW, r.PerSourceLat = srcBW, srcLat
			} else {
				for i := range srcBW {
					r.PerSourceBW[i].Add(srcBW[i])
					r.PerSourceLat[i].Add(srcLat[i])
				}
			}
		}
		r.BW.Add(bw)
		r.Lat.Add(lat)
		addCtrlStats(&r.CtrlStats, ctrl.Stats())
		addDevStats(&r.DevStats, s.devs[ch].Stats())
		r.LatHist.Merge(ctrl.LatencyHistogram())
		r.BWSamples = mergeSamples(r.BWSamples, ctrl.Samples())
	}
	r.BW.Banks = s.cfg.Geom.TotalBanks()
	for _, c := range s.cores {
		r.CycleStacks = append(r.CycleStacks, c.Stack())
		r.CoreStats = append(r.CoreStats, c.Stats())
	}
	return r
}

func addCtrlStats(dst *memctrl.Stats, src memctrl.Stats) {
	dst.EnqueuedReads += src.EnqueuedReads
	dst.EnqueuedWrites += src.EnqueuedWrites
	dst.ForwardedReads += src.ForwardedReads
	dst.CoalescedWrites += src.CoalescedWrites
	dst.IssuedReads += src.IssuedReads
	dst.IssuedWrites += src.IssuedWrites
	dst.Refreshes += src.Refreshes
	dst.PageHits += src.PageHits
	dst.PageEmpty += src.PageEmpty
	dst.PageMiss += src.PageMiss
	dst.DrainEntries += src.DrainEntries
	dst.ReadQueueCycles += src.ReadQueueCycles
	dst.WriteQueueCycles += src.WriteQueueCycles
	dst.Cycles += src.Cycles
	if src.MaxReadQueue > dst.MaxReadQueue {
		dst.MaxReadQueue = src.MaxReadQueue
	}
	if src.MaxWriteQueue > dst.MaxWriteQueue {
		dst.MaxWriteQueue = src.MaxWriteQueue
	}
	for i := range src.BankAccesses {
		dst.BankAccesses[i] += src.BankAccesses[i]
	}
}

func addDevStats(dst *dram.Stats, src dram.Stats) {
	dst.ACT += src.ACT
	dst.PRE += src.PRE
	dst.AutoPRE += src.AutoPRE
	dst.RD += src.RD
	dst.WR += src.WR
	dst.REF += src.REF
}

// mergeSamples adds per-channel sample series element-wise (all channels
// sample on the same cycle grid).
func mergeSamples(dst, src []stacks.Sample) []stacks.Sample {
	if dst == nil {
		return append(dst, src...)
	}
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i].BW.Add(src[i].BW)
		dst[i].Lat.Add(src[i].Lat)
	}
	return dst
}

// PeakGBps returns the total peak bandwidth across all channels.
func (r *Result) PeakGBps() float64 {
	return r.Cfg.Geom.PeakBandwidthGBs() * float64(r.Channels)
}

// AchievedGBps returns the post-warmup achieved bandwidth summed over
// all channels.
func (r *Result) AchievedGBps() float64 {
	return r.BW.AchievedGBps(r.Cfg.Geom) * float64(r.Channels)
}

// BWGBps returns the post-warmup bandwidth stack in GB/s, scaled so the
// components sum to the total (all-channel) peak bandwidth.
func (r *Result) BWGBps() [stacks.NumBWComponents]float64 {
	g := r.BW.GBps(r.Cfg.Geom)
	for c := range g {
		g[c] *= float64(r.Channels)
	}
	return g
}

// LatNS returns the post-warmup average latency stack in ns.
func (r *Result) LatNS() [stacks.NumLatComponents]float64 { return r.Lat.AvgNS(r.Cfg.Geom) }

// TotalRetired sums committed uops over all cores.
func (r *Result) TotalRetired() int64 {
	var t int64
	for _, cs := range r.CoreStats {
		t += cs.Retired
	}
	return t
}

// RuntimeMS returns the simulated wall-clock time in milliseconds.
func (r *Result) RuntimeMS() float64 {
	return r.Cfg.Geom.CyclesToNS(r.MemCycles) / 1e6
}
