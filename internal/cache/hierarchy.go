package cache

import (
	"fmt"

	"dramstacks/internal/lineidx"
	"dramstacks/internal/prefetch"
)

// Waiter receives the completion of an in-flight memory operation.
// MemDone is invoked with the completion CPU cycle, the fraction of the
// request's DRAM latency that was queueing-related (queue + writeburst
// + refresh), used for the cycle stack's dram-queue split, and the
// fraction spent held by QoS bandwidth regulation (dram-regulated;
// exactly 0 without a QoS policy).
//
// Completions are delivered through this interface rather than a
// callback closure so the hot path allocates nothing per access: a
// pooled ticket or an MSHR-file entry passed as a Waiter is a plain
// interface conversion of an existing pointer.
type Waiter interface {
	MemDone(doneCPU int64, queueFrac, regFrac float64)
}

// Sleeper is a core sleeping on an access the hierarchy refused for want
// of an MSHR (see Park). Wake tells it that a retry might now be answered
// differently. It is called from inside other cores' accesses and from
// fills, so it may only leave a mark for the sleeper's own next cycle.
type Sleeper interface {
	Wake()
}

// MemPort is the hierarchy's view of the memory controller. Times are in
// CPU cycles; the adapter owns the CPU-to-memory clock conversion.
// src is the requesting core's index — the multi-tenant source identity
// QoS budgets, priority tiers and per-source stacks key on. Writebacks
// carry the core whose eviction produced them (an approximation of the
// line's original writer that needs no per-line owner tracking).
type MemPort interface {
	// Read requests a line fill; w.MemDone fires when the data has
	// returned. Read reports false when the controller cannot accept
	// the request this cycle (back pressure: retry later).
	Read(now int64, addr uint64, src int, w Waiter) bool
	// Write hands a dirty line back to memory; false means retry later.
	Write(now int64, addr uint64, src int) bool
}

// Status classifies the outcome of a hierarchy access.
type Status uint8

const (
	// Hit means the access completes after Outcome.Latency CPU cycles.
	Hit Status = iota
	// Pending means the line is being fetched from DRAM; the callback
	// fires on completion.
	Pending
	// Retry means a structural resource (MSHR or controller queue) was
	// exhausted; the caller must retry next cycle, or Park.
	Retry
)

// Outcome is the result of a hierarchy access.
type Outcome struct {
	Status  Status
	Latency int // valid for Hit: CPU cycles until data
	Level   int // 1, 2, 3 for hits; 0 otherwise
}

// HierConfig configures a Hierarchy.
type HierConfig struct {
	Cores int
	L1    Config
	L2    Config
	LLC   Config
	// MSHRs bounds concurrent outstanding line fills (shared).
	MSHRs int
	// PerCoreMSHRs bounds outstanding fills per core (the line-fill
	// buffer limit that caps a single core's memory-level parallelism).
	PerCoreMSHRs int
	// Prefetch configures the per-core L2 stream prefetcher.
	Prefetch prefetch.Config
}

// DefaultHierConfig returns the paper's cache setup (§VI) for the given
// core count: 32 KB L1, 1 MB L2, 11 MB shared LLC regardless of cores.
func DefaultHierConfig(cores int) HierConfig {
	return HierConfig{
		Cores:        cores,
		L1:           Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 4},
		L2:           Config{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, Latency: 14},
		LLC:          Config{Name: "LLC", SizeBytes: 11 << 20, Ways: 11, LineBytes: 64, Latency: 44},
		MSHRs:        64,
		PerCoreMSHRs: 12,
		Prefetch:     prefetch.DefaultConfig(),
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c HierConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: cores must be positive, got %d", c.Cores)
	}
	for _, lv := range []Config{c.L1, c.L2, c.LLC} {
		if err := lv.Validate(); err != nil {
			return err
		}
	}
	if c.L1.LineBytes != c.L2.LineBytes || c.L2.LineBytes != c.LLC.LineBytes {
		return fmt.Errorf("cache: line sizes differ across levels")
	}
	if c.MSHRs <= 0 || c.PerCoreMSHRs <= 0 {
		return fmt.Errorf("cache: MSHR counts must be positive, got %d/%d", c.MSHRs, c.PerCoreMSHRs)
	}
	return nil
}

// Reach is the smallest of the three levels' reaches (Config.Reach): the
// hierarchy tells apart every address below it, and its entry points panic
// on any other.
func (c HierConfig) Reach() uint64 { return min(c.L1.Reach(), c.L2.Reach(), c.LLC.Reach()) }

// ArrayBytes is the size of the hierarchy's arrays: the LLC's and every
// core's L1 and L2.
func (c HierConfig) ArrayBytes() int64 {
	return c.LLC.ArrayBytes() + int64(c.Cores)*(c.L1.ArrayBytes()+c.L2.ArrayBytes())
}

// mshrEntry tracks one in-flight line fill. The entry itself is the
// Waiter handed to the memory port, so no per-miss closure is needed.
// Entries live in the hierarchy's MSHR file, built with it and never
// reallocated, so the pointer stays valid until the fill.
type mshrEntry struct {
	h        *Hierarchy
	id       int32 // the entry's index in the file
	addr     uint64
	core     int
	prefetch bool
	dirty    bool   // a store is waiting: mark the line dirty on fill
	first    Waiter // the first waiter, nil while none (a prefetch) waits
	more     []Waiter
}

// MemDone implements Waiter: the fill for this entry's line completed.
func (e *mshrEntry) MemDone(doneCPU int64, queueFrac, regFrac float64) {
	e.h.fill(doneCPU, e, queueFrac, regFrac)
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	DemandMissesToMem int64
	PrefetchesToMem   int64
	WritebacksToMem   int64
	MSHRMerges        int64
	Retries           int64
	PrefetchDropped   int64
}

// Hierarchy is the full three-level cache system for all cores.
type Hierarchy struct {
	cfg HierConfig
	l1  []*Cache
	l2  []*Cache
	llc *Cache
	mem MemPort

	pf []*prefetch.Streamer

	// The MSHR file: HierConfig.MSHRs entries, those not in flight on
	// the idle stack, those in flight indexed by line.
	mshrs       []mshrEntry
	idle        []int32
	inflight    lineidx.Index[int32]
	mshrPeak    int // the most entries in flight at once
	perCoreUsed []int

	pendingWB []pendingWB // dirty lines waiting for controller queue space

	park   []parkSlot // per core, see Park
	parked int        // cores currently parked

	hints []lineHint // per-core L1 way hint (see lineHint)

	lineMask uint64
	reach    uint64 // HierConfig.Reach
	stats    HierStats
}

// lineHint remembers where a core's most recent L1 hit landed: the next
// access to the same line probes that way first and falls back to the
// full scan when the tag no longer matches, so the hint is purely
// advisory. The zero value is safe: line 0 / way 0 is validated by the
// tag check like any other hint.
//
// There is no hint for the opposite shape, a miss at every level
// re-presented every cycle under MSHR back pressure: a core in that
// state sleeps instead (Park), and the few retries made awake take the
// full probes.
type lineHint struct {
	line uint64
	way  int32
}

// NewHierarchy builds the hierarchy over the given memory port.
func NewHierarchy(cfg HierConfig, mem MemPort) (*Hierarchy, error) {
	return NewHierarchyIn(nil, cfg, mem)
}

// NewHierarchyIn is NewHierarchy with every level's word array taken from
// a, which must have been Reset since the hierarchy it last served was in
// use. A nil arena allocates, exactly as NewHierarchy does.
func NewHierarchyIn(a *Arena, cfg HierConfig, mem MemPort) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:         cfg,
		llc:         newCache(cfg.LLC, a),
		mem:         mem,
		mshrs:       make([]mshrEntry, cfg.MSHRs),
		idle:        make([]int32, cfg.MSHRs),
		inflight:    lineidx.New[int32](cfg.MSHRs),
		perCoreUsed: make([]int, cfg.Cores),
		park:        make([]parkSlot, cfg.Cores),
		hints:       make([]lineHint, cfg.Cores),
		lineMask:    ^uint64(cfg.L1.LineBytes - 1),
		reach:       cfg.Reach(),
	}
	for i := range h.mshrs {
		h.mshrs[i].h, h.mshrs[i].id, h.idle[i] = h, int32(i), int32(i)
	}
	for i := 0; i < cfg.Cores; i++ {
		h.park[i].at = -1
		h.l1 = append(h.l1, newCache(cfg.L1, a))
		h.l2 = append(h.l2, newCache(cfg.L2, a))
		h.pf = append(h.pf, prefetch.NewStreamer(cfg.Prefetch))
	}
	return h, nil
}

// MustNewHierarchy is NewHierarchy for known-good configurations.
func MustNewHierarchy(cfg HierConfig, mem MemPort) *Hierarchy {
	h, err := NewHierarchy(cfg, mem)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns hierarchy-wide counters.
func (h *Hierarchy) Stats() HierStats { return h.stats }

// L1Stats, L2Stats return the private level counters of one core;
// LLCStats the shared level's.
func (h *Hierarchy) L1Stats(core int) LevelStats { return h.l1[core].stats }

// L2Stats returns core's L2 counters.
func (h *Hierarchy) L2Stats(core int) LevelStats { return h.l2[core].stats }

// LLCStats returns the shared LLC counters.
func (h *Hierarchy) LLCStats() LevelStats { return h.llc.stats }

// OutstandingMisses returns the number of in-flight line fills.
func (h *Hierarchy) OutstandingMisses() int { return h.inflight.Len() }

// MSHRPeak returns the most line fills that were in flight at once.
func (h *Hierarchy) MSHRPeak() int { return h.mshrPeak }

// Pending reports whether fills or writebacks are still in flight.
func (h *Hierarchy) Pending() bool { return h.inflight.Len() > 0 || len(h.pendingWB) > 0 }

// Backlogged reports whether Tick has a writeback to retry; while it has
// none, skipping its calls changes nothing.
func (h *Hierarchy) Backlogged() bool { return len(h.pendingWB) > 0 }

// pendingWB is one dirty line waiting for controller queue space, with
// the core whose eviction produced it (the writeback's QoS source).
type pendingWB struct {
	addr uint64
	src  int
}

// Tick retries writebacks that previously hit controller back pressure.
// Call once per CPU cycle (inlined, so free when the backlog is empty).
func (h *Hierarchy) Tick(now int64) {
	if h.Backlogged() {
		h.retryWritebacks(now)
	}
}

func (h *Hierarchy) retryWritebacks(now int64) {
	for len(h.pendingWB) > 0 {
		if !h.mem.Write(now, h.pendingWB[0].addr, h.pendingWB[0].src) {
			return
		}
		h.stats.WritebacksToMem++
		// Slide the backlog down instead of reslicing it from the head:
		// the slice keeps its capacity and later appends do not allocate.
		h.pendingWB = h.pendingWB[:copy(h.pendingWB, h.pendingWB[1:])]
	}
}

// line returns the line of addr, an address an entry point was given. It
// panics on one at or beyond the hierarchy's reach, before any level sees
// it.
func (h *Hierarchy) line(addr uint64) uint64 {
	if addr >= h.reach {
		panic(beyondReach{"hierarchy", h.reach, addr})
	}
	return addr & h.lineMask
}

// Warm performs a functional (timing-free) access, used to pre-warm the
// caches into their steady state before measurement begins: lines are
// installed and recency/dirtiness tracked, no prefetches are trained and
// dirty LLC evictions are dropped rather than written to memory. Warming
// is not demand traffic, so Accesses, Hits and Misses stay 0; the lines
// it pushes out are real evictions of the level's content, so Evictions
// and DirtyEvictions count them at every level.
func (h *Hierarchy) Warm(core int, addr uint64, write bool) {
	line := h.line(addr)
	l1, l2 := h.l1[core], h.l2[core]
	wb1, hit := l1.warmAccess(line, write)
	if hit {
		return
	}
	wb2, hit2 := l2.warmAccess(line, false)
	if !hit2 {
		h.llc.warmAccess(line, false) // LLC eviction dropped: warmup
	}
	if wb2 != 0 {
		h.llc.warmAccess(wb2, true)
	}
	if wb1 != 0 {
		if wb, _ := l2.warmAccess(wb1, true); wb != 0 {
			h.llc.warmAccess(wb, true) // eviction dropped
		}
	}
}

// LLCOp is one shared-LLC operation a Warm call performs, a
// touch-or-install of a line: the line's address, with bit 0 set when
// the operation is the writeback of a dirty private-level eviction.
// (Validate keeps lines at least two bytes long; the set and tag shifts
// drop the bit.) Recording these lets the private-level part of warming
// run per core while the shared level is replayed later in the original
// global order.
type LLCOp uint64

// WarmPrivate performs exactly the private-level (L1/L2) part of
// Warm(core, addr, write) and appends the LLC operations Warm performs,
// at most three and in Warm's order, to ops, which it returns. The
// private levels never observe the LLC, so for a fixed per-core access
// stream the calls of different cores are independent: WarmPrivate for
// every core followed by WarmLLC of the recorded operations in Warm's
// global interleaving (a WarmLog per core) is state-identical to the same
// sequence of Warm calls. Kept in lockstep with Warm above, which stays a
// walk of its own because an L1 hit, all a cache-resident stream does,
// must cost one call.
func (h *Hierarchy) WarmPrivate(core int, addr uint64, write bool, ops []LLCOp) []LLCOp {
	line := h.line(addr)
	l1, l2 := h.l1[core], h.l2[core]
	wb1, hit := l1.warmAccess(line, write)
	if hit {
		return ops
	}
	wb2, hit2 := l2.warmAccess(line, false)
	if !hit2 {
		ops = append(ops, LLCOp(line))
	}
	if wb2 != 0 {
		ops = append(ops, LLCOp(wb2))
	}
	if wb1 != 0 {
		if wb, _ := l2.warmAccess(wb1, true); wb != 0 {
			ops = append(ops, LLCOp(wb))
		}
	}
	return ops
}

// WarmLog is one core's record of a run of warm items for the shared
// level: the LLC operations WarmPrivate appended, in item order, and how
// many each item appended (0–3).
type WarmLog struct {
	Ops []LLCOp
	Cnt []uint8
	pos int // WarmLLC's cursor in Ops
}

// WarmLLC applies the operations logs[i] recorded for core i in the
// global order of the serial round-robin warm loop, which takes one item
// from every core in turn: item by item, and within an item core by core.
// A log shorter than the longest is a core whose stream ended or met its
// quota.
func (h *Hierarchy) WarmLLC(logs []WarmLog) {
	items := 0
	for i := range logs {
		items = max(items, len(logs[i].Cnt))
		logs[i].pos = 0
	}
	for j := range items {
		for i := range logs {
			l := &logs[i]
			if j >= len(l.Cnt) {
				continue
			}
			for _, op := range l.Ops[l.pos : l.pos+int(l.Cnt[j])] {
				h.llc.warmAccess(uint64(op), op&1 != 0)
			}
			l.pos += int(l.Cnt[j])
		}
	}
}

// Access performs a demand load (write=false) or a store's
// read-for-ownership (write=true) for core at CPU cycle now. For Pending
// outcomes w.MemDone fires when the fill completes; w must be non-nil
// for loads. Stores may pass nil.
//
// The L1→L2→LLC walk is flattened into this one frame: the probes are
// copies of Cache.Lookup sharing a single line-number computation (legal
// because Validate requires one line size across levels), and a per-core
// lineHint short-circuits a repeat L1 hit. Every statistic Lookup would
// have counted is counted here, per attempt, in the same order;
// TestAccessMatchesReference pins the equivalence against the composed
// per-level walk.
func (h *Hierarchy) Access(now int64, core int, addr uint64, write bool, w Waiter) Outcome {
	line := h.line(addr)
	ht := &h.hints[core]
	l1 := h.l1[core]
	l2 := h.l2[core]
	llc := h.llc

	// L1 probe (mirrors Cache.Lookup(line, true, write) — keep in sync).
	l1.stats.Accesses++
	n := line >> l1.setShift // the line number: its low bits pick the set
	i1 := n & l1.setMask
	s1 := l1.tags[i1*l1.ways:][:l1.ways]
	key := l1.key(line)
	hitWay := -1
	if ht.line == line && int(ht.way) < l1.cfg.Ways {
		// A tag matches at most one way per set (Insert refreshes in
		// place), so trusting the hinted way is exact, not heuristic.
		if s1[ht.way]&^tagFlags == key {
			hitWay = int(ht.way)
		}
	}
	if hitWay < 0 {
		hitWay = find(s1, key)
	}
	if hitWay >= 0 {
		l1.hit(s1, hitWay, write)
		l1.promote(&l1.orders[i1], hitWay)
		*ht = lineHint{line: line, way: int32(hitWay)}
		return Outcome{Status: Hit, Latency: h.cfg.L1.Latency, Level: 1}
	}
	l1.stats.Misses++

	// L2 probe.
	l2.stats.Accesses++
	i2 := n & l2.setMask
	s2 := l2.tags[i2*l2.ways:][:l2.ways]
	if i := find(s2, l2.key(line)); i >= 0 {
		l2.hit(s2, i, write)
		l2.promote(&l2.orders[i2], i)
		h.fillL1(core, line, write)
		h.train(now, core, line)
		return Outcome{Status: Hit, Latency: h.cfg.L2.Latency, Level: 2}
	}
	l2.stats.Misses++
	h.train(now, core, line)

	// LLC probe.
	llc.stats.Accesses++
	i3 := n & llc.setMask
	s3 := llc.tags[i3*llc.ways:][:llc.ways]
	if i := find(s3, llc.key(line)); i >= 0 {
		llc.hit(s3, i, write)
		llc.promote(&llc.orders[i3], i)
		h.fillL2(now, core, line, false)
		h.fillL1(core, line, write)
		return Outcome{Status: Hit, Latency: h.cfg.LLC.Latency, Level: 3}
	}
	llc.stats.Misses++
	return h.missToMem(now, core, line, write, w)
}

// missToMem handles the LLC-miss tail of Access: merge into or allocate
// an MSHR, or report structural back pressure.
func (h *Hierarchy) missToMem(now int64, core int, line uint64, write bool, w Waiter) Outcome {
	if i, ok := h.inflight.Get(line); ok {
		e := &h.mshrs[i]
		h.stats.MSHRMerges++
		e.dirty = e.dirty || write
		e.prefetch = false // a demand now waits on this fill
		e.wait(w)
		return Outcome{Status: Pending}
	}
	if h.mshrFull(core) {
		h.stats.Retries++
		h.park[core].line, h.park[core].at = line, now
		return Outcome{Status: Retry}
	}
	e := h.newEntry(line, core)
	e.dirty = write
	e.wait(w)
	if !h.mem.Read(now, line, core, e) {
		h.putEntry(e)
		h.stats.Retries++
		return Outcome{Status: Retry}
	}
	h.admit(e)
	h.stats.DemandMissesToMem++
	return Outcome{Status: Pending}
}

// mshrFull reports whether a new line fill for core would be refused:
// the shared MSHRs or the core's own share of them are all in use.
func (h *Hierarchy) mshrFull(core int) bool {
	return h.inflight.Len() >= h.cfg.MSHRs || h.perCoreUsed[core] >= h.cfg.PerCoreMSHRs
}

// admit records e, accepted by the memory port, as an in-flight fill.
func (h *Hierarchy) admit(e *mshrEntry) {
	h.inflight.Put(e.addr, e.id)
	h.mshrPeak = max(h.mshrPeak, h.inflight.Len())
	h.perCoreUsed[e.core]++
	if h.parked != 0 {
		h.wakeLine(e.addr) // a retry would now merge into e
	}
}

// parkSlot is one core's latest access refused for want of an MSHR, and
// the core itself while it sleeps on it.
type parkSlot struct {
	line uint64
	at   int64   // CPU cycle of the refusal, -1 before the first
	s    Sleeper // non-nil while parked
}

// Park lets core sleep on the access to addr that Access refused at CPU
// cycle now, instead of retrying it every cycle, and reports whether it
// may: only a refusal for want of an MSHR qualifies (one by the memory
// port keeps its per-cycle retry — the port is asked again each time),
// and Park must follow that Access directly, before anything else
// reaches the hierarchy. Until Unpark, every retry the core skips would
// have missed all three levels, trained the prefetcher on the same line
// and been refused again (Retried accounts them in closed form), unless
// one of three things happens first, each of which calls s.Wake:
//
//   - a fill releases an MSHR and mshrFull(core) no longer holds (any
//     fill for the shared limit, one of the core's own for its share;
//     prefetch fills count — they have no waiter to wake the core);
//   - the line is installed in the LLC: another core's dirty L2 victim;
//   - the line gets an MSHR of another core's, so a retry would merge.
//
// The core's private levels need no watch: asleep, it installs nothing
// but its own fills, and each of those releases one of its MSHRs.
func (h *Hierarchy) Park(now int64, core int, addr uint64, s Sleeper) bool {
	p := &h.park[core]
	if p.at != now || p.line != addr&h.lineMask {
		return false
	}
	p.s = s
	h.parked++
	return true
}

// Unpark ends core's Park.
func (h *Hierarchy) Unpark(core int) {
	h.park[core].s = nil
	h.parked--
}

// Retried accounts n more retries of core's parked access exactly as n
// refused Access calls would have: a miss at every level, one prefetcher
// observation of the line, one retry.
func (h *Hierarchy) Retried(core int, n int64) {
	for _, c := range [...]*Cache{h.l1[core], h.l2[core], h.llc} {
		c.stats.Accesses += n
		c.stats.Misses += n
	}
	h.stats.Retries += n
	h.pf[core].Repeat(h.park[core].line/uint64(h.cfg.L1.LineBytes), n)
}

// wakeLine wakes the cores parked on line.
func (h *Hierarchy) wakeLine(line uint64) {
	for i := range h.park {
		if p := &h.park[i]; p.s != nil && p.line == line {
			p.s.Wake()
		}
	}
}

// newEntry takes an idle entry of the MSHR file and sets it up for
// line/core. mshrFull(core) must be false: an entry is idle then.
func (h *Hierarchy) newEntry(line uint64, core int) *mshrEntry {
	n := len(h.idle) - 1
	e := &h.mshrs[h.idle[n]]
	h.idle = h.idle[:n]
	e.addr, e.core, e.prefetch, e.dirty = line, core, false, false
	return e
}

// putEntry returns an entry to the idle stack, dropping waiter
// references; its waiters' array keeps its capacity.
func (h *Hierarchy) putEntry(e *mshrEntry) {
	e.first = nil
	clear(e.more)
	e.more = e.more[:0]
	h.idle = append(h.idle, e.id)
}

// wait adds w, when not nil, to the waiters of e's fill.
func (e *mshrEntry) wait(w Waiter) {
	switch {
	case w == nil:
	case e.first == nil:
		e.first = w
	default:
		e.more = append(e.more, w)
	}
}

// fill completes an MSHR: install the line, cascade evictions, wake
// waiters, recycle the entry.
func (h *Hierarchy) fill(doneCPU int64, e *mshrEntry, queueFrac, regFrac float64) {
	h.inflight.Delete(e.addr)
	h.perCoreUsed[e.core]--
	if h.parked != 0 {
		for i := range h.park {
			if s := h.park[i].s; s != nil && !h.mshrFull(i) {
				s.Wake()
			}
		}
	}

	h.insertLLC(doneCPU, e.core, e.addr, false, e.prefetch)
	h.fillL2(doneCPU, e.core, e.addr, e.prefetch)
	if !e.prefetch {
		h.fillL1(e.core, e.addr, e.dirty)
	}
	if e.first != nil {
		e.first.MemDone(doneCPU, queueFrac, regFrac)
	}
	for _, w := range e.more {
		w.MemDone(doneCPU, queueFrac, regFrac)
	}
	h.putEntry(e)
}

// Prefetch issues a hardware prefetch for core into L2+LLC. It is
// dropped silently on structural hazards.
func (h *Hierarchy) Prefetch(now int64, core int, addr uint64) {
	line := h.line(addr)
	if h.l2[core].has(line) || h.llc.has(line) {
		return
	}
	if _, ok := h.inflight.Get(line); ok {
		return
	}
	if h.mshrFull(core) {
		h.stats.PrefetchDropped++
		return
	}
	e := h.newEntry(line, core)
	e.prefetch = true
	if !h.mem.Read(now, line, core, e) {
		h.putEntry(e)
		h.stats.PrefetchDropped++
		return
	}
	h.admit(e)
	h.stats.PrefetchesToMem++
}

// train feeds the core's streamer with a demand L2 access and issues the
// prefetches it asks for. A stream that runs off either end of the
// address space, up to the reach or below line 0 (which wraps to the
// top), asks for lines that do not exist; they are not prefetched.
func (h *Hierarchy) train(now int64, core int, line uint64) {
	lineBytes := uint64(h.cfg.L1.LineBytes)
	for _, ln := range h.pf[core].Observe(line / lineBytes) {
		if a := ln * lineBytes; a < h.reach {
			h.Prefetch(now, core, a)
		}
	}
}

func (h *Hierarchy) fillL1(core int, line uint64, dirty bool) {
	if ev, ok := h.l1[core].Insert(line, dirty, false); ok && ev.Dirty {
		// L1 dirty eviction: write back into L2 (full-line write, no
		// fetch needed).
		if !h.l2[core].Lookup(ev.Addr, false, true) {
			h.insertL2(core, ev.Addr, true)
		}
	}
}

func (h *Hierarchy) fillL2(now int64, core int, line uint64, prefetched bool) {
	h.insertL2x(now, core, line, false, prefetched)
}

func (h *Hierarchy) insertL2(core int, line uint64, dirty bool) {
	h.insertL2x(0, core, line, dirty, false)
}

func (h *Hierarchy) insertL2x(now int64, core int, line uint64, dirty, prefetched bool) {
	if ev, ok := h.l2[core].Insert(line, dirty, prefetched); ok && ev.Dirty {
		// L2 dirty eviction: write back into the LLC.
		if !h.llc.Lookup(ev.Addr, false, true) {
			h.insertLLC(now, core, ev.Addr, true, false)
		}
	}
}

func (h *Hierarchy) insertLLC(now int64, core int, line uint64, dirty, prefetched bool) {
	if h.parked != 0 {
		h.wakeLine(line) // a retry would now hit the LLC
	}
	if ev, ok := h.llc.Insert(line, dirty, prefetched); ok && ev.Dirty {
		// LLC dirty eviction: becomes a DRAM write attributed to the
		// evicting core.
		if len(h.pendingWB) == 0 && h.mem.Write(now, ev.Addr, core) {
			h.stats.WritebacksToMem++
			return
		}
		h.pendingWB = append(h.pendingWB, pendingWB{ev.Addr, core})
	}
}
