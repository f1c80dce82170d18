// Package cpu implements the core model: a 4-wide out-of-order core with
// a 224-entry reorder buffer, in-order retirement, loads that block
// retirement at the ROB head, stores that retire without waiting for
// their read-for-ownership, and a branch-misprediction fetch bubble.
//
// The paper (§VI) uses Skylake-like cores in the Sniper interval
// simulator; what the DRAM stacks need from the core is the closed-loop
// behavior — the rate and parallelism of the memory requests it can keep
// in flight given the latencies it observes — which this model reproduces
// with ROB occupancy, per-core MSHR limits (in package cache) and
// explicit load-to-load dependencies for pointer-chasing patterns.
//
// While running, the core attributes every CPU cycle to a cycle-stack
// component (package cyclestack): base, branch, dcache, dram-latency,
// dram-queue or idle, with DRAM stalls split using the per-request DRAM
// latency stack (queue fraction) exactly as Fig. 7 requires.
//
// The hot loop is allocation-free in steady state: load tickets are
// reference-counted and pooled, and memory completions arrive through
// the cache.Waiter interface (a pooled ticket is its own completion
// waiter) instead of per-access closures.
//
// A core whose coming cycles provably repeat is suspended: the system
// stops ticking it (TrySleep) and the cycles it slept are replayed in
// closed form when it resumes or is read (Resume/SyncSleep). Four of the
// reasons carry their own deadline, which no Wake moves: a finished core
// (idle, forever), an empty core inside a branch-misprediction bubble
// (branch), a single-load window, an ALU dispatch streak (base) — the
// states NextEventCycle sizes and FastForward replays. The other three
// end only when someone else says so. Blocked behind a load at the ROB
// head with dispatch inert, the core can do nothing with memory but wait
// for in-flight loads (a DRAM stall) and retry one access that the
// hierarchy refused for want of an MSHR (a parked retry); it is woken by
// a completion of its own (MemDone) or by the hierarchy when the refused
// access could be answered differently (Parker). Empty at a barrier its
// source has promised to announce the end of (BarrierSource), it can only
// idle; it is woken by the source, from inside the poll of the core that
// arrives last.
package cpu

import (
	"fmt"
	"math"

	"dramstacks/internal/cache"
	"dramstacks/internal/cyclestack"
)

// Kind classifies an instruction item from a Source.
type Kind uint8

const (
	// KindALU is plain computation (also used for internal chunks).
	KindALU Kind = iota
	// KindLoad reads memory and can block retirement.
	KindLoad
	// KindStore writes memory (write-allocate: triggers a
	// read-for-ownership) but does not block retirement.
	KindStore
	// KindBranch is a conditional branch, possibly mispredicted.
	KindBranch
	// KindStall means the source has no work this cycle (e.g. the thread
	// waits at a barrier): the core dispatches nothing and polls the
	// source again next cycle — or, if the source is a BarrierSource and
	// the core has nothing else to do, sleeps until the source wakes it,
	// which is the same thing. The stalled time shows up as the cycle
	// stack's idle component, as in the paper's Fig. 7 bfs dip.
	KindStall
)

// Instr is one macro item emitted by a workload: Work plain uops followed
// by one memory/branch operation (Kind). A pure-compute item has
// Kind == KindALU and only Work uops.
type Instr struct {
	// Work is the number of plain uops preceding the operation.
	Work int
	// Kind selects the trailing operation (KindALU for none).
	Kind Kind
	// Addr is the byte address for KindLoad / KindStore.
	Addr uint64
	// Mispredict marks a mispredicted KindBranch.
	Mispredict bool
	// LoadDep, for KindLoad, makes this load's address depend on the
	// k-th most recent earlier load (1 = previous load): the access
	// cannot start before that load's data returns. Zero means
	// independent. This is how pointer-chasing workloads bound their
	// memory-level parallelism.
	LoadDep int
}

// Source produces a core's instruction stream.
type Source interface {
	// Next returns the next item, or ok == false when the stream ends.
	Next() (ins Instr, ok bool)
}

// BatchSource is an optional Source fast path: NextBatch fills buf with
// the next instructions of the stream and returns how many it produced.
// Zero means end of stream, and every later call must also return zero.
//
// The contract is strict so the core may pull ahead: across any mix of
// Next and NextBatch calls, the k-th instruction handed out must be the
// k-th of the stream. Only pure sources — whose items are a function of
// consumption count alone — may implement BatchSource; a source whose
// result depends on when it is polled (a KindStall barrier tied to
// external simulation state, say) must stay a plain Source, and the
// core then polls it one instruction at a time exactly as before.
type BatchSource interface {
	Source
	NextBatch(buf []Instr) int
}

// BarrierSource is an optional promise a Source makes about its
// KindStall: once Next has returned one, every further Next returns
// KindStall again, with no side effect, until the source has called the
// wake function it was given — which it does from inside the Next of
// another core's source, the one that opens the next phase or ends the
// streams. A core with nothing else to do may then stop polling
// (TrySleep); the poll it makes when woken is the first that can be
// answered differently. Calling wake for a core that is not waiting, or
// more often than needed, is harmless. A BatchSource cannot make the
// promise: its items do not depend on when it is polled.
type BarrierSource interface {
	Source
	OnRelease(wake func())
}

// batchLen is the core's pull-buffer size: big enough to amortize the
// per-call generator overhead, small enough to stay cache resident.
const batchLen = 64

// Mem is the core's port into the cache hierarchy. Completions are
// delivered through the cache.Waiter the core passes in (a pooled load
// ticket, or the core itself for store read-for-ownerships).
type Mem interface {
	Access(now int64, core int, addr uint64, write bool, w cache.Waiter) cache.Outcome
}

// Parker is the part of a Mem that lets a core sleep on a refused access
// instead of retrying it every cycle (cache.Hierarchy has it; a Mem
// without it gets the per-cycle retry). Park reports whether the access
// to addr the Mem refused at cycle now may be slept on, and if so
// arranges for s.Wake when a retry could be answered differently;
// Retried accounts n skipped retries of that access on the memory side;
// Unpark ends the arrangement.
type Parker interface {
	Park(now int64, core int, addr uint64, s cache.Sleeper) bool
	Retried(core int, n int64)
	Unpark(core int)
}

// Config parameterizes a core.
type Config struct {
	Width         int // superscalar width (4)
	ROBSize       int // reorder buffer entries (224)
	BranchPenalty int // fetch bubble after a misprediction, CPU cycles
	// StartsPerCycle caps how many memory accesses may begin per cycle.
	StartsPerCycle int
}

// DefaultConfig returns the paper's Skylake-like core parameters.
func DefaultConfig() Config {
	return Config{Width: 4, ROBSize: 224, BranchPenalty: 15, StartsPerCycle: 4}
}

// InOrderConfig returns a small in-order-like core (2-wide, a 16-entry
// window, one memory access start per cycle): an ablation showing how
// much the stacks depend on the core's ability to overlap misses.
func InOrderConfig() Config {
	return Config{Width: 2, ROBSize: 16, BranchPenalty: 8, StartsPerCycle: 1}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.BranchPenalty < 0 || c.StartsPerCycle <= 0 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

// ticket tracks one load's completion state; dependent loads hold a
// pointer to their producer's ticket. Tickets are pooled by their core:
// refs counts the load-history slot and any dependent operations still
// pointing at the ticket, and a retired ticket returns to the pool when
// the last reference drops (see release). A ticket doubles as the
// cache.Waiter for its own in-flight fill.
type ticket struct {
	c         *Core
	started   bool
	retired   bool
	refs      int32 // load-history slot + dependent startQ entries
	done      int64 // completion CPU cycle, -1 while unknown
	level     int   // cache level of a hit; 0 = DRAM
	queueFrac float64
	regFrac   float64 // share of DRAM latency spent QoS-regulated
	stall     int64   // head-of-ROB stall cycles charged to this load
}

// MemDone implements cache.Waiter: the DRAM fill for this load is
// complete. It also wakes the owning core if the core slept through the
// stall (see TrySleep).
func (tk *ticket) MemDone(doneCPU int64, queueFrac, regFrac float64) {
	tk.done = doneCPU
	tk.queueFrac = queueFrac
	tk.regFrac = regFrac
	tk.c.Wake()
}

type robItem struct {
	kind    Kind
	count   int   // uops in an ALU chunk (1 for others)
	readyAt int64 // ALU/branch/store readiness
	tk      *ticket
}

type memOp struct {
	addr  uint64
	write bool
	dep   *ticket // must be done before the access can start
	tk    *ticket // load's own ticket (nil for stores)
}

// Stats counts a core's committed work.
type Stats struct {
	Retired     int64 // committed uops
	Loads       int64
	Stores      int64
	Branches    int64
	Mispredicts int64
	DramLoads   int64 // loads served by DRAM
}

// SleepStats says how the core's cycles were simulated: Ticks of them by
// a real CPUCycle, the rest replayed in closed form, split by the reason
// the core was suspended for (see TrySleep). It is a diagnostic of the
// simulator, not of the simulated machine: the system keeps it out of
// its Result.
type SleepStats struct {
	Ticks         int64 // CPUCycle calls
	StallCycles   int64 // cycles slept with no access parked: pure DRAM stall
	ParkedCycles  int64 // cycles slept on a parked access: one skipped retry each
	BarrierCycles int64 // cycles slept empty at a barrier: one skipped poll each
	IdleCycles    int64 // cycles slept finished
	BubbleCycles  int64 // cycles slept empty inside a fetch bubble
	WindowCycles  int64 // cycles slept as a single-load window (see windowLen)
	CoastCycles   int64 // cycles slept as an ALU dispatch streak (see streakLen)
	Sleeps        int64 // sleeps, of any reason
	Coasts        int64 // sleeps that were an ALU dispatch streak
	Parks         int64 // sleeps that parked an access
	Wakes         int64 // resumptions from such a sleep
	// SpuriousWakes counts the resumptions that changed nothing: the core
	// retired nothing and started no access before it parked again.
	SpuriousWakes int64
	Retries       int64 // refused accesses the core made itself, awake
}

// Slept returns the cycles replayed in closed form, over all reasons.
func (s SleepStats) Slept() int64 {
	return s.StallCycles + s.ParkedCycles + s.BarrierCycles + s.IdleCycles + s.BubbleCycles + s.WindowCycles + s.CoastCycles
}

// Add accumulates o into s.
func (s *SleepStats) Add(o SleepStats) {
	s.Ticks += o.Ticks
	s.StallCycles += o.StallCycles
	s.ParkedCycles += o.ParkedCycles
	s.BarrierCycles += o.BarrierCycles
	s.IdleCycles += o.IdleCycles
	s.BubbleCycles += o.BubbleCycles
	s.WindowCycles += o.WindowCycles
	s.CoastCycles += o.CoastCycles
	s.Sleeps += o.Sleeps
	s.Coasts += o.Coasts
	s.Parks += o.Parks
	s.Wakes += o.Wakes
	s.SpuriousWakes += o.SpuriousWakes
	s.Retries += o.Retries
}

// reason says why a core is suspended. The last four carry a deadline.
type reason uint8

const (
	awake   reason = iota
	stalled        // nothing to do but wait for in-flight loads: until Wake
	parked         // stalled, and skipping the retries of a refused access: until Wake
	barrier        // empty, its BarrierSource stalling: until Wake
	idle           // finished: forever
	bubble         // empty inside a fetch bubble: until it ends
	window         // a single-load window (windowLen)
	streak         // an ALU dispatch streak (streakLen)
)

// never is the deadline of a sleep that has none.
const never = math.MaxInt64

// Core is one out-of-order core.
type Core struct {
	id   int
	cfg  Config
	mem  Mem
	park Parker // mem's parking side, nil if it has none
	src  Source
	acct *cyclestack.Accountant

	rob   []robItem // ring buffer
	head  int
	tail  int
	items int
	occ   int // occupied uop slots
	loads int // KindLoad items currently in the ROB

	startQ []memOp

	// Batched source pull: when src implements BatchSource, dispatch
	// refills batch only when it runs dry, consuming one buffered
	// instruction per poll — the source sees the same consumption
	// sequence, batchLen at a time.
	bsrc     BatchSource
	batch    []Instr
	batchPos int
	batchN   int

	pendingWork int
	pendingOp   *Instr
	pendingBuf  Instr
	srcDone     bool

	// Barrier sleep: whether src is a BarrierSource, and the last CPU
	// cycle in which a poll of it returned KindStall.
	promised  bool
	stalledAt int64

	fetchBlockedUntil int64

	loadHist  [32]*ticket
	loadHistN int
	outStores int // store RFOs in flight in the memory system

	tkFree []*ticket // ticket pool

	// why is the reason the core is suspended, awake if it is not:
	// NextEventCycle records the four that carry a deadline, TrySleep the
	// three that Wake ends. While suspended the system does not tick the
	// core; sleepFrom is the first CPU cycle not yet simulated or
	// replayed, and the system resumes the core at the first cycle it
	// would tick that is not before wakeAt — the deadline, or never for a
	// stalled, parked or barrier sleeper until Wake lowers it to 0; 0
	// while awake.
	why       reason
	sleepFrom int64
	wakeAt    int64

	// Spurious-wake detection: the work done (uops retired + memory
	// accesses started) as of the last resumption from a parked sleep.
	starts   int64
	wokeWork int64

	stats Stats
	sleep SleepStats
}

// New returns a core. It panics on invalid configuration.
func New(id int, cfg Config, mem Mem, src Source) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		id:   id,
		cfg:  cfg,
		mem:  mem,
		src:  src,
		acct: cyclestack.NewAccountant(),
		rob:  make([]robItem, cfg.ROBSize+1),

		stalledAt: -1,
		wokeWork:  -1,
	}
	c.park, _ = mem.(Parker)
	if bs, ok := src.(BatchSource); ok {
		c.bsrc = bs
		c.batch = make([]Instr, batchLen)
	} else if bar, ok := src.(BarrierSource); ok {
		c.promised = true
		bar.OnRelease(c.Wake)
	}
	return c
}

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// SleepStats returns what the core's sleeps have covered so far (up to
// the last SyncSleep, for a core still asleep).
func (c *Core) SleepStats() SleepStats { return c.sleep }

// Stack returns the core's cycle stack so far.
func (c *Core) Stack() cyclestack.Stack { return c.acct.Stack() }

// Accountant exposes the cycle-stack accountant (for through-time
// sampling by the system).
func (c *Core) Accountant() *cyclestack.Accountant { return c.acct }

// Done reports whether the core has committed its whole stream and has
// no outstanding memory operations.
func (c *Core) Done() bool {
	return c.srcDone && c.pendingOp == nil && c.pendingWork == 0 &&
		c.items == 0 && len(c.startQ) == 0 && c.outStores == 0
}

func (c *Core) robFree() int { return c.cfg.ROBSize - c.occ }

// next is the ROB ring index after i; a % would divide by a variable here.
func (c *Core) next(i int) int {
	if i++; i == len(c.rob) {
		i = 0
	}
	return i
}

func (c *Core) push(it robItem) {
	c.rob[c.tail] = it
	c.tail = c.next(c.tail)
	c.items++
	c.occ += it.count
	if it.kind == KindLoad {
		c.loads++
	}
}

// newTicket takes a ticket from the pool (or allocates one) reset for a
// fresh load.
func (c *Core) newTicket() *ticket {
	if n := len(c.tkFree); n > 0 {
		tk := c.tkFree[n-1]
		c.tkFree = c.tkFree[:n-1]
		tk.started, tk.retired = false, false
		tk.done, tk.level, tk.queueFrac, tk.regFrac, tk.stall = -1, 0, 0, 0, 0
		return tk
	}
	return &ticket{c: c, done: -1}
}

// release drops one reference and recycles the ticket once it is
// retired and unreferenced. A retired DRAM load has already had its
// completion delivered (retirement requires done >= 0), so no callback
// can reach a pooled ticket.
func (c *Core) release(tk *ticket) {
	if tk.refs == 0 && tk.retired {
		c.tkFree = append(c.tkFree, tk)
	}
}

// unref drops one counted reference (history slot or dependent op).
func (c *Core) unref(tk *ticket) {
	tk.refs--
	c.release(tk)
}

// streakLen returns how many cycles of an ALU dispatch streak start at
// CPU cycle now, or 0. During a streak every cycle provably repeats the
// same step — retire Width ready uops, dispatch one Width-uop ALU
// chunk, attribute base — so it can be replayed in closed form
// (replayStreak):
//
//   - the Width uops the retire head reaches each cycle are ALU, branch
//     or store chunks pushed before now, so their readyAt is at most now
//     and retirement never blocks (retire treats the three kinds
//     identically): with occ >= Width that holds for the whole ROB when
//     it holds no load, and otherwise for the a plain uops ahead of the
//     first load, a/Width cycles' worth. Loads may ride along behind
//     them, in flight or not: the head never reaches one, so no
//     completion is read and no ticket is touched;
//   - pendingWork >= Width per cycle keeps dispatch from consulting the
//     source or reaching a memory operation; retirement has freed the
//     Width slots the push needs even in a full ROB, and occupancy is
//     constant (Width out, Width in);
//   - an empty start queue means no memory access can begin, so no
//     external state is touched (completions that arrive meanwhile only
//     set a ticket's done or decrement outStores, which no streak cycle
//     reads);
//   - outside a fetch bubble, or dispatch would push nothing.
//
// A core whose one load is about to retire is handled by windowLen.
func (c *Core) streakLen(now int64) int64 {
	w := c.cfg.Width
	if len(c.startQ) != 0 || c.pendingWork < w ||
		c.fetchBlockedUntil > now || c.occ < w {
		return 0
	}
	k := c.pendingWork / w
	if c.loads != 0 {
		if a, _ := c.plainAhead(k * w); a/w < k {
			k = a / w
		}
	}
	return int64(k)
}

// plainAhead returns a, the plain uops between the retire head and the
// first load in the ROB (which must hold one), and the load's index —
// or, once a has reached limit, a and an index short of the load.
func (c *Core) plainAhead(limit int) (a, idx int) {
	for idx = c.head; a < limit && c.rob[idx].kind != KindLoad; {
		a += c.rob[idx].count
		idx = c.next(idx)
	}
	return a, idx
}

// windowLen returns how many cycles of a single-load window start at
// CPU cycle now, or 0. The window covers a core whose ROB holds exactly
// one load with a known completion (a cache hit, or a DRAM fill whose
// timestamp has been delivered): retirement drains the uops ahead of
// the load at Width per cycle, stalls at the load until its completion,
// retires it, and drains on — every cycle of which is determined by the
// load's position and completion alone, so replayWindow can replay the
// whole stretch in closed form. Dispatch must be replayable for the
// window's length, which selects one of:
//
//   - regular dispatch — a full Width of buffered ALU uops pushed every
//     cycle: the window may run through the load's retirement and ends
//     when the source would be consulted (or a push would be partial),
//     min(pendingWork, robFree)/Width cycles out;
//   - a fetch bubble or provably inert dispatch (full ROB with work
//     buffered and the load at its head, so nothing retires to make
//     room; or an exhausted source) — no pushes: the window must end by
//     the load's completion, before retirement would change what
//     dispatch sees.
//
// An empty start queue (kept empty by ALU-only dispatch) means no
// memory access can begin, so no external state is touched.
func (c *Core) windowLen(now int64) int64 {
	if c.loads != 1 || len(c.startQ) != 0 {
		return 0
	}
	a, idx := c.plainAhead(math.MaxInt)
	tk := c.rob[idx].tk
	if !tk.started || tk.done < 0 {
		return 0 // completion unknown: sleep handles in-flight DRAM
	}
	w := c.cfg.Width
	switch {
	case c.fetchBlockedUntil > now:
		k := tk.done - now
		if b := c.fetchBlockedUntil - now; b < k {
			k = b
		}
		return k
	case c.pendingWork >= w && c.robFree() >= w:
		if a < w && tk.done <= now && c.occ-1 < w {
			// The load retires on the window's first cycle (jR = 0) with
			// fewer than Width uops in the ROB: the first cycle's retire
			// budget would outrun the ROB content (this cycle's dispatch
			// is not retirable yet), which the closed form does not
			// model. Take a real cycle.
			return 0
		}
		avail := c.pendingWork
		if f := c.robFree(); f < avail {
			avail = f
		}
		return int64(avail / w)
	case c.robFree() == 0 && a == 0 && (c.pendingWork > 0 || c.pendingOp != nil || c.srcDone):
		return tk.done - now
	case c.srcDone && c.pendingWork == 0 && c.pendingOp == nil:
		return tk.done - now
	default:
		return 0 // dispatch would consult the source or dispatch an op
	}
}

// NextEventCycle returns the first CPU cycle at or after now at which
// the core, ticked through cycle now-1, might do anything other than
// repeat its current steady-state cycle, whatever the memory system
// does meanwhile, and records the reason in why. Four states are
// provably repetitive:
//
//   - a finished core (Done) idles forever: never (math.MaxInt64);
//   - an empty core inside a branch-misprediction fetch bubble with no
//     memory operations outstanding repeats a pure branch-penalty cycle
//     until the bubble ends: fetchBlockedUntil;
//   - a core whose ROB holds exactly one load with a known completion
//     replays the whole drain/stall/retire window around it (see
//     windowLen): now + windowLen;
//   - a core in an ALU dispatch streak (see streakLen) repeats a
//     retire-and-dispatch base cycle until the source must be consulted
//     or the retire head reaches a load: now + streakLen.
//
// Everything else returns now and leaves the core awake: it consumes its
// source, starts memory accesses, or waits on in-flight memory whose
// completion time this side does not know. FastForward may only cover
// cycles strictly before the returned cycle.
func (c *Core) NextEventCycle(now int64) int64 {
	c.why = awake
	if c.Done() {
		c.why = idle
		return never
	}
	if c.items == 0 && len(c.startQ) == 0 && c.outStores == 0 &&
		c.pendingWork == 0 && c.pendingOp == nil && !c.srcDone &&
		c.fetchBlockedUntil > now {
		c.why = bubble
		return c.fetchBlockedUntil
	}
	if c.loads == 1 {
		if k := c.windowLen(now); k > 0 {
			c.why = window
			return now + k
		}
	}
	if k := c.streakLen(now); k > 0 {
		c.why = streak
		return now + k
	}
	return now
}

// FastForward charges the n CPU cycles starting at from in closed form,
// bit-identical to n CPUCycle calls in the steady state the last
// NextEventCycle (or TrySleep) proved, and by the reason it recorded
// rather than by the state at from: the n cycles may be any part of the
// stretch, and a streak's remainder, say, can look like a window once a
// fill has arrived.
func (c *Core) FastForward(from, n int64) {
	switch c.why {
	case idle:
		c.acct.AddCycles(cyclestack.Idle, n)
		c.sleep.IdleCycles += n
	case bubble:
		c.acct.AddCycles(cyclestack.Branch, n)
		c.sleep.BubbleCycles += n
	case window:
		// Past the load's retirement the window's tail is Width out,
		// Width in: a streak.
		if c.loads == 1 {
			c.replayWindow(from, n)
		} else {
			c.replayStreak(from, n)
		}
		c.sleep.WindowCycles += n
	case streak:
		c.replayStreak(from, n)
		c.sleep.CoastCycles += n
	case stalled:
		c.replayStall(n)
		c.sleep.StallCycles += n
	case parked:
		c.replayStall(n)
		c.park.Retried(c.id, n)
		c.sleep.ParkedCycles += n
	case barrier:
		c.acct.AddCycles(cyclestack.Idle, n)
		c.sleep.BarrierCycles += n
	default:
		panic("cpu: FastForward outside a provable steady state")
	}
}

// replayStall replays n cycles stalled behind the load at the ROB head:
// each charged it stall and total, both integers, when it is in flight,
// and was one dram-queue cycle when it has not started.
func (c *Core) replayStall(n int64) {
	if tk := c.rob[c.head].tk; tk.started {
		tk.stall += n
		c.acct.AddTotal(n)
		return
	}
	// dram-queue also receives the fractional splits of retired stalls
	// (addDramStall), so n unit additions do not round like one addition
	// of n: make them.
	for i := int64(0); i < n; i++ {
		c.acct.AddCycle(cyclestack.DramQueue)
	}
}

// consume retires k plain uops FIFO from the ROB head, the ring-level
// half of a replay. Chunk kinds and readiness are inert here (see
// replayStreak); occupancy and statistics are the caller's business.
func (c *Core) consume(k int64) {
	for k > 0 {
		if c.items == 0 {
			panic("cpu: replay drained the ROB")
		}
		it := &c.rob[c.head]
		if it.kind == KindLoad {
			panic("cpu: replay reached an in-flight load")
		}
		m := int64(it.count)
		if m > k {
			m = k
		}
		it.count -= int(m)
		k -= m
		if it.count == 0 {
			c.head = c.next(c.head)
			c.items--
		}
	}
}

// replayWindow replays n cycles of the single-load window starting at
// CPU cycle from, bit-identical to n CPUCycle calls in the state
// windowLen proved. With the load `a` uops behind the retire head,
// completing at D, and a retire budget of Width per cycle, the slow
// loop's behavior is fully determined (cycle indices j = 0..n-1
// relative to from):
//
//   - drain: cycles j < ceil(a/Width) retire pre-load uops (base);
//   - stall: cycles from ceil(a/Width) up to jR classify against the
//     load by its level (DRAM total / Dcache / L1-shadow base), where
//     jR = max(floor(a/Width), D-from) is the cycle the retire budget
//     reaches the load AND its completion has passed;
//   - retire: if n > jR (regular dispatch only — inert modes end by D),
//     cycle jR retires the load (releasing its ticket and settling the
//     DRAM queue/latency split) plus the rest of that cycle's budget
//     from the uops behind it, and later cycles drain Width each.
//
// Dispatch meanwhile pushes either nothing (bubble / inert modes) or
// exactly Width ALU uops per cycle; the n chunks collapse into one
// ready at from+n, pushed before the drain so post-load retirement can
// consume into it exactly as the slow loop consumes earlier pushes.
// Every consumed uop was ready when the budget reached it, and every
// survivor is first reachable at or after from+n — the same inertness
// argument as replayStreak.
func (c *Core) replayWindow(from, n int64) {
	ahead, idx := c.plainAhead(math.MaxInt)
	a := int64(ahead)
	tk := c.rob[idx].tk
	if len(c.startQ) != 0 || !tk.started || tk.done < 0 {
		panic("cpu: FastForward outside a provable steady state")
	}
	w := int64(c.cfg.Width)
	jR := a / w
	if d := tk.done - from; d > jR {
		jR = d
	}
	// Dispatch, mirroring the mode windowLen proved (checked before any
	// state moves).
	pushes := int64(0)
	switch {
	case c.fetchBlockedUntil > from:
		if c.fetchBlockedUntil < from+n || tk.done < from+n {
			panic("cpu: window replay crosses the end of a fetch bubble")
		}
	case c.pendingWork >= c.cfg.Width && c.robFree() >= c.cfg.Width:
		pushes = n * w
		if int64(c.pendingWork) < pushes || int64(c.robFree()) < pushes {
			panic("cpu: window replay outruns the buffered work")
		}
	default:
		inert := (c.robFree() == 0 && a == 0 && (c.pendingWork > 0 || c.pendingOp != nil || c.srcDone)) ||
			(c.srcDone && c.pendingWork == 0 && c.pendingOp == nil)
		if !inert || tk.done < from+n {
			panic("cpu: FastForward outside a provable steady state")
		}
	}
	// Attribution: stall cycles classify against the load, the rest
	// retire something and attribute base.
	s := jR
	if n < s {
		s = n
	}
	s -= (a + w - 1) / w
	if s < 0 {
		s = 0
	}
	base := n - s
	switch {
	case tk.level == 0:
		// DRAM stall: totals now, split at retirement (see retire).
		tk.stall += s
		c.acct.AddTotal(s)
	case tk.level >= 2:
		c.acct.AddCycles(cyclestack.Dcache, s)
	default:
		base = n // L1 hit shadow classifies base too
	}
	if base > 0 {
		c.acct.AddCycles(cyclestack.Base, base)
	}
	if pushes > 0 {
		c.pushALU(int(pushes), from+n)
		c.pendingWork -= int(pushes)
	}
	// Retirement. counted tracks what the slow loop's retire() adds to
	// stats.Retired, which is less than the uops actually drained when a
	// cycle ends blocked: retire() returns early at a not-yet-done load
	// and skips its stats update, dropping that cycle's partial drain
	// (a%Width pre-load uops) from the count. That happens exactly when
	// the pre-load drain empties mid-cycle before the load's completion
	// (jR past the drain); when the load retires the same cycle, the
	// cycle runs its full budget and everything is counted.
	retired := a
	counted := retired
	if m := n * w; m < retired {
		retired, counted = m, m
	} else if rem := a % w; rem > 0 && jR > a/w {
		counted -= rem
	}
	c.consume(retired)
	if n > jR {
		// The load retires at cycle jR with the ticket bookkeeping the
		// slow retire arm performs, and the rest of the window drains the
		// uops (and collapsed pushes) behind it.
		it := &c.rob[c.head]
		if it.kind != KindLoad || retired != a {
			panic("cpu: window replay lost track of its load")
		}
		if tk.level == 0 && tk.stall > 0 {
			// Split this load's head-of-ROB stall using its DRAM
			// latency stack (see retire).
			c.addDramStall(tk)
		}
		it.tk = nil
		tk.retired = true
		c.release(tk)
		c.head = c.next(c.head)
		c.items--
		c.loads--
		remPre := a - jR*w
		if remPre < 0 {
			remPre = 0
		}
		post := (w - remPre - 1) + (n-1-jR)*w
		c.consume(post)
		retired += 1 + post
		counted += 1 + post
	}
	c.occ -= int(retired) // pushALU already counted the pushes
	c.stats.Retired += counted
}

// replayStreak replays n cycles of an ALU dispatch streak starting
// at CPU cycle from, bit-identical to n CPUCycle calls: per cycle,
// Width uops retire FIFO from the head (all ready, as streakLen
// proved — ALU, branch and store chunks retire identically once their
// readyAt has passed) and one Width-uop chunk ready next cycle is
// pushed; the cycle attributes base. Occupancy is unchanged (Width in,
// Width out), so the net effect is consuming the first n*Width uops of
// the stream "current content, then the n pushed chunks" and keeping
// the rest.
//
// The survivors' chunk boundaries, kinds (ALU/branch/store retire and
// classify identically) and readiness are all inert: a surviving chunk
// is first reachable by the retire head at or after from+n, and every
// survivor is ready by then. That licenses two collapses, making the
// replay O(chunks consumed) instead of O(n): the n pushed chunks
// become one chunk ready at from+n, and when the streak consumes the
// entire prior content (no load rides along and occ <= n*Width uops,
// so the slow loop would start consuming its own pushes) the final ROB
// is exactly one such chunk holding the unchanged occupancy.
//
// streakLen sized n so the replay never consumes an in-flight load;
// the panic below enforces that invariant.
func (c *Core) replayStreak(from, n int64) {
	w := c.cfg.Width
	total := int(n) * w
	if len(c.startQ) != 0 || c.pendingWork < total {
		panic("cpu: FastForward outside a provable steady state")
	}
	if c.loads == 0 && c.occ <= total {
		// Everything currently buffered retires inside the window; what
		// remains is the tail of the replayed pushes, occ uops in one
		// collapsed chunk.
		c.head, c.tail, c.items = 0, 1, 1
		c.rob[0] = robItem{kind: KindALU, count: c.occ, readyAt: from + n}
	} else {
		need := total
		for need > 0 {
			it := &c.rob[c.head]
			if it.kind == KindLoad {
				panic("cpu: streak replay reached an in-flight load")
			}
			m := it.count
			if m > need {
				m = need
			}
			it.count -= m
			need -= m
			if it.count == 0 {
				c.head = c.next(c.head)
				c.items--
			}
		}
		c.rob[c.tail] = robItem{kind: KindALU, count: total, readyAt: from + n}
		c.tail = c.next(c.tail)
		c.items++
	}
	c.pendingWork -= total
	c.stats.Retired += n * int64(w)
	c.acct.AddCycles(cyclestack.Base, n)
}

// CPUCycle advances the core by one CPU cycle: retire, dispatch, start
// eligible memory accesses, then attribute the cycle.
func (c *Core) CPUCycle(now int64) {
	c.sleep.Ticks++
	if c.Done() {
		c.acct.AddCycle(cyclestack.Idle)
		return
	}
	retired := c.retire(now)
	c.dispatch(now)
	c.startAccesses(now)
	c.classify(now, retired)
}

// startAccesses begins memory accesses whose dependencies have resolved.
func (c *Core) startAccesses(now int64) {
	started := 0
	for i := 0; i < len(c.startQ) && started < c.cfg.StartsPerCycle; i++ {
		op := &c.startQ[i]
		if op.dep != nil && !(op.dep.done >= 0 && op.dep.done <= now) {
			continue // producer not finished: address unknown
		}
		tk := op.tk
		var w cache.Waiter
		if tk != nil {
			w = tk
		} else {
			w = c // store RFO: completion only drops outStores
		}
		out := c.mem.Access(now, c.id, op.addr, op.write, w)
		switch out.Status {
		case cache.Retry:
			// Structural hazard: leave the op queued; later ops would
			// hit the same hazard, so stop trying this cycle.
			c.sleep.Retries++
			return
		case cache.Hit:
			if tk != nil {
				tk.started = true
				tk.done = now + int64(out.Latency)
				tk.level = out.Level
			}
		case cache.Pending:
			if tk != nil {
				tk.started = true
				tk.done = -1
				tk.level = 0
				c.stats.DramLoads++
			}
			if op.write {
				c.outStores++
			}
		}
		started++
		c.starts++
		if op.dep != nil {
			c.unref(op.dep)
		}
		c.startQ = append(c.startQ[:i], c.startQ[i+1:]...)
		i--
	}
}

// MemDone implements cache.Waiter for store read-for-ownerships: the
// line arrived, the store's writeback obligation is met.
func (c *Core) MemDone(doneCPU int64, queueFrac, regFrac float64) {
	c.outStores--
	c.Wake()
}

// addDramStall charges a DRAM load's head-of-ROB stall to the cycle
// stack, split by the load's own DRAM latency stack: regulated cycles
// to dram-regulated, queueing cycles to dram-queue, the rest to
// dram-latency. regFrac is exactly 0 without a QoS policy, so the
// legacy two-way split is unchanged byte for byte.
func (c *Core) addDramStall(tk *ticket) {
	stall := float64(tk.stall)
	if tk.regFrac > 0 {
		c.acct.Add(cyclestack.DramRegulated, stall*tk.regFrac)
	}
	c.acct.Add(cyclestack.DramQueue, stall*tk.queueFrac)
	c.acct.Add(cyclestack.DramLatency, stall*(1-tk.queueFrac-tk.regFrac))
}

// retire commits up to Width ready uops from the ROB head and returns how
// many it committed.
func (c *Core) retire(now int64) int {
	budget := c.cfg.Width
	retired := 0
	for budget > 0 && c.items > 0 {
		it := &c.rob[c.head]
		switch it.kind {
		case KindALU, KindBranch, KindStore:
			if it.readyAt > now {
				return retired
			}
			n := it.count
			if n > budget {
				n = budget
			}
			it.count -= n
			c.occ -= n
			budget -= n
			retired += n
		case KindLoad:
			tk := it.tk
			if !tk.started || tk.done < 0 || tk.done > now {
				return retired
			}
			if tk.level == 0 && tk.stall > 0 {
				// Split this load's head-of-ROB stall using its DRAM
				// latency stack.
				c.addDramStall(tk)
			}
			it.count = 0
			c.occ--
			budget--
			retired++
			it.tk = nil
			tk.retired = true
			c.release(tk)
		}
		if it.count == 0 {
			if it.kind == KindLoad {
				c.loads--
			}
			c.head = c.next(c.head)
			c.items--
		}
	}
	c.stats.Retired += int64(retired)
	return retired
}

// dispatch fills the ROB with up to Width uops from the source.
func (c *Core) dispatch(now int64) {
	if c.fetchBlockedUntil > now {
		return
	}
	budget := c.cfg.Width
	for budget > 0 {
		if c.pendingWork == 0 && c.pendingOp == nil {
			if c.srcDone {
				return
			}
			ins, ok := c.nextIns()
			if !ok {
				c.srcDone = true
				return
			}
			if ins.Kind == KindStall {
				c.stalledAt = now
				return // barrier: no dispatch this cycle
			}
			c.pendingWork = ins.Work
			if ins.Kind != KindALU {
				c.pendingBuf = ins
				c.pendingOp = &c.pendingBuf
			}
		}
		if c.pendingWork > 0 {
			n := c.pendingWork
			if n > budget {
				n = budget
			}
			if free := c.robFree(); n > free {
				n = free
			}
			if n == 0 {
				return // ROB full
			}
			c.pushALU(n, now+1)
			c.pendingWork -= n
			budget -= n
			continue
		}
		// A single operation uop.
		if c.robFree() == 0 {
			return
		}
		op := c.pendingOp
		c.pendingOp = nil
		budget--
		switch op.Kind {
		case KindLoad:
			tk := c.newTicket()
			c.push(robItem{kind: KindLoad, count: 1, tk: tk})
			dep := c.depTicket(op.LoadDep)
			if dep != nil {
				dep.refs++
			}
			c.startQ = append(c.startQ, memOp{addr: op.Addr, write: false, dep: dep, tk: tk})
			slot := c.loadHistN % len(c.loadHist)
			if old := c.loadHist[slot]; old != nil {
				c.unref(old)
			}
			tk.refs++
			c.loadHist[slot] = tk
			c.loadHistN++
			c.stats.Loads++
		case KindStore:
			c.push(robItem{kind: KindStore, count: 1, readyAt: now + 1})
			c.startQ = append(c.startQ, memOp{addr: op.Addr, write: true})
			c.stats.Stores++
		case KindBranch:
			c.push(robItem{kind: KindBranch, count: 1, readyAt: now + 1})
			c.stats.Branches++
			if op.Mispredict {
				c.stats.Mispredicts++
				c.fetchBlockedUntil = now + int64(c.cfg.BranchPenalty)
				return // no dispatch past a mispredicted branch
			}
		}
	}
}

// nextIns returns the next source instruction, pulling batchLen at a
// time from BatchSource implementations. The buffer refills only when
// it runs dry, so end-of-stream is discovered at exactly the poll index
// the unbatched path would discover it, and a buffered KindStall is
// consumed by the poll that returns it — identical to Source.Next for
// any source honoring the BatchSource purity contract.
func (c *Core) nextIns() (Instr, bool) {
	if c.batchPos < c.batchN {
		ins := c.batch[c.batchPos]
		c.batchPos++
		return ins, true
	}
	if c.bsrc == nil {
		return c.src.Next()
	}
	c.batchN = c.bsrc.NextBatch(c.batch)
	if c.batchN == 0 {
		return Instr{}, false
	}
	c.batchPos = 1
	return c.batch[0], true
}

// pushALU appends an ALU chunk, merging with the tail chunk when the
// readiness matches (bounds ROB ring usage).
func (c *Core) pushALU(n int, readyAt int64) {
	if c.items > 0 {
		last := c.tail
		if last == 0 {
			last = len(c.rob)
		}
		it := &c.rob[last-1]
		if it.kind == KindALU && it.readyAt == readyAt {
			it.count += n
			c.occ += n
			return
		}
	}
	c.push(robItem{kind: KindALU, count: n, readyAt: readyAt})
}

// depTicket resolves "the k-th most recent load" into its ticket.
func (c *Core) depTicket(k int) *ticket {
	if k <= 0 || k > len(c.loadHist) || k > c.loadHistN {
		return nil
	}
	return c.loadHist[(c.loadHistN-k)%len(c.loadHist)]
}

// classify attributes this cycle to a cycle-stack component.
func (c *Core) classify(now int64, retired int) {
	switch {
	case retired > 0:
		c.acct.AddCycle(cyclestack.Base)
	case c.items == 0:
		if !c.srcDone && c.fetchBlockedUntil > now {
			c.acct.AddCycle(cyclestack.Branch)
		} else {
			c.acct.AddCycle(cyclestack.Idle)
		}
	default:
		it := &c.rob[c.head]
		if it.kind == KindLoad {
			tk := it.tk
			switch {
			case tk.started && tk.level == 0:
				// DRAM stall: total added now, split at retirement.
				tk.stall++
				c.acct.AddTotal(1)
			case tk.started && tk.level >= 2:
				c.acct.AddCycle(cyclestack.Dcache)
			case tk.started:
				c.acct.AddCycle(cyclestack.Base) // L1 hit shadow
			default:
				// Not started: blocked on a structural hazard (MSHRs
				// full — memory pressure) or an address dependency.
				c.acct.AddCycle(cyclestack.DramQueue)
			}
			return
		}
		c.acct.AddCycle(cyclestack.Base)
	}
}

// TrySleep suspends the core after it simulated CPU cycle now, if the
// cycles that follow provably repeat. If NextEventCycle says for how
// long, that is the deadline. Otherwise an empty core whose BarrierSource
// stalled it idles until the source calls Wake, and with a load at the
// ROB head the cycle repeats until the memory system intervenes:
//
//   - the load is in flight to DRAM (every cycle is "stall++, total++"
//     on it) or has not started (every cycle is a dram-queue cycle), so
//     nothing retires;
//   - dispatch is inert on its own (the ROB is full with buffered work,
//     or the source is exhausted with nothing buffered) and not inside a
//     fetch bubble that would end by itself;
//   - every queued memory operation up to the first one that can start
//     waits on an address dependency that is itself in flight, and that
//     first one, if there is one, was refused this very cycle for want
//     of an MSHR and is now parked with the hierarchy (Parker.Park): it
//     would be refused again every cycle, and a refusal ends the
//     cycle's starts, so nothing behind it is reached.
//
// Only a completion for this core or the hierarchy's Wake can change
// any of that. An access the memory port refused is not parked: whether
// the controller would take it is asked anew each cycle. Reports whether
// the core went to sleep.
func (c *Core) TrySleep(now int64) bool {
	if e := c.NextEventCycle(now + 1); e > now+1 {
		c.sleep.Sleeps++
		if c.why == streak {
			c.sleep.Coasts++
		}
		c.sleepFrom, c.wakeAt = now+1, e
		return true
	}
	if c.items == 0 {
		// Empty, and this cycle's poll stalled — so it was made: nothing
		// is buffered and no fetch bubble is open. If the source has
		// promised to stall every poll until it calls Wake and no access
		// waits to start (a retired store's, say), each coming cycle
		// retires nothing, polls in vain, starts nothing and is idle.
		if !c.promised || c.stalledAt != now || len(c.startQ) != 0 {
			return false
		}
		c.sleep.Sleeps++
		c.why, c.sleepFrom, c.wakeAt = barrier, now+1, never
		return true
	}
	if c.fetchBlockedUntil > now+1 {
		return false
	}
	head := &c.rob[c.head]
	if head.kind != KindLoad {
		return false
	}
	if tk := head.tk; tk.started && (tk.done >= 0 || tk.level != 0) {
		return false // a hit, or a fill that has arrived: retires by itself
	}
	if c.pendingWork > 0 || c.pendingOp != nil {
		if c.robFree() != 0 {
			return false // dispatch would push buffered work
		}
	} else if !c.srcDone {
		return false // dispatch would consult the source
	}
	why := stalled
	for i := range c.startQ {
		op := &c.startQ[i]
		if dep := op.dep; dep != nil {
			if dep.done < 0 {
				continue // address unknown until a completion arrives
			}
			if dep.done > now {
				return false // becomes startable on its own
			}
		}
		if c.park == nil || !c.park.Park(now, c.id, op.addr, c) {
			return false // not tried this cycle, or the port refused it
		}
		why = parked
		c.sleep.Parks++
		if c.wokeWork == c.stats.Retired+c.starts {
			c.sleep.SpuriousWakes++
		}
		break
	}
	c.sleep.Sleeps++
	c.why, c.sleepFrom, c.wakeAt = why, now+1, never
	return true
}

// Asleep reports whether the core is suspended (see TrySleep).
func (c *Core) Asleep() bool { return c.why != awake }

// WakeAt returns the first CPU cycle the system must simulate on the
// core: 0 if it is awake or Wake has marked it, else its deadline —
// math.MaxInt64 if only the memory system can set one, or nothing.
func (c *Core) WakeAt() int64 { return c.wakeAt }

// Due reports whether the system must simulate CPU cycle now on the
// core, resuming it first if it is asleep.
func (c *Core) Due(now int64) bool { return c.wakeAt <= now }

// Wake marks a stalled, parked or barrier sleeper for resumption; it
// implements cache.Sleeper and is what the core's own completions and
// its BarrierSource call. It deliberately does not end the sleep. A
// completion fires during the controller phase of memory cycle m with a
// CPU-domain timestamp that precedes the core's not-yet-simulated
// subcycles of that same memory cycle, all of which still repeat (a load
// retires no earlier than the next subcycle). The hierarchy's wake-ups
// fire either there, inside a fill, or inside another core's access at
// CPU cycle t, and a barrier's release inside another core's poll at t:
// after this core's turn at t if that core has a higher index — t itself
// still repeats — and before it otherwise. In every case the first cycle
// that can differ is the next one the system would tick this core at,
// which is where it calls Resume. A core asleep to a deadline ignores
// Wake: nothing of its is parked, and a completion — a fill for a load
// deeper in its ROB, a store's ownership — changes nothing a cycle
// before the deadline reads.
func (c *Core) Wake() {
	if c.why == stalled || c.why == parked || c.why == barrier {
		c.wakeAt = 0
	}
}

// Resume ends a sleep at CPU cycle at (exclusive), replaying the
// skipped cycles (see SyncSleep). at is the first cycle the system will
// tick the core at again; with a deadline it is at most the deadline
// (any prefix of a provable stretch is one).
func (c *Core) Resume(at int64) {
	c.SyncSleep(at)
	if c.why == parked {
		c.park.Unpark(c.id)
		c.sleep.Wakes++
		c.wokeWork = c.stats.Retired + c.starts
	}
	c.why, c.wakeAt = awake, 0
}

// SyncSleep replays a sleeping core's skipped cycles up to CPU cycle
// upto (exclusive) without waking it, so its cycle stack and the
// hierarchy's counters can be read mid-sleep (sample cuts, early stops,
// final results): that much of its stretch (FastForward), and nothing
// past a deadline.
func (c *Core) SyncSleep(upto int64) {
	if c.why == awake {
		return
	}
	if c.why >= idle && upto > c.wakeAt {
		upto = c.wakeAt
	}
	if from := c.sleepFrom; upto > from {
		c.sleepFrom = upto
		c.FastForward(from, upto-from)
	}
}
