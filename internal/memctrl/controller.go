package memctrl

import (
	"math"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/lineidx"
	"dramstacks/internal/stacks"
)

// Stats aggregates controller activity counters.
type Stats struct {
	EnqueuedReads   int64
	EnqueuedWrites  int64
	ForwardedReads  int64 // reads served from the write buffer
	CoalescedWrites int64

	IssuedReads  int64 // column read commands issued to DRAM
	IssuedWrites int64
	Refreshes    int64

	PageHits  int64 // column command to an already-open row
	PageEmpty int64 // required an activate only
	PageMiss  int64 // required a precharge and an activate

	DrainEntries int64 // write-burst drains started

	// Queue occupancy telemetry, integrated per cycle.
	ReadQueueCycles  int64 // sum of read-queue length over all cycles
	WriteQueueCycles int64
	MaxReadQueue     int
	MaxWriteQueue    int
	Cycles           int64 // cycles observed (for the averages)

	// BankAccesses counts column commands per bank (channel-local
	// index), for bank-distribution analysis.
	BankAccesses [64]int64
}

// PageHitRate returns the fraction of DRAM column accesses that hit an
// open row.
func (s Stats) PageHitRate() float64 {
	total := s.PageHits + s.PageEmpty + s.PageMiss
	if total == 0 {
		return 0
	}
	return float64(s.PageHits) / float64(total)
}

// Controller schedules requests onto one DRAM channel.
type Controller struct {
	geo    dram.Geometry
	tim    dram.Timing
	cfg    Config
	dev    *dram.Device
	mapper addrmap.Mapper

	now int64

	readQ  reqList // arrival order; each request is also on its bank's list
	writeQ reqList
	wbuf   lineidx.Index[struct{}] // the queued writes' lines (forwarding, coalescing)

	drain     bool // between watermarks of a write burst
	writeMode bool // issuing writes this cycle (drain or opportunistic)

	nextRefresh []int64 // per rank
	refBanks    uint64  // the banks of every rank with a refresh pending
	refDue      int64   // the earliest nextRefresh of a rank with none pending

	// Completion FIFOs (each is ordered by completion cycle).
	inflight []pendingDone // reads in DRAM, done = data end + CtrlLatency
	fwdDone  []pendingDone // forwarded reads, done = arrive + CtrlLatency

	// Cumulative cycle counters for O(1) latency wait attribution.
	cumRefresh   int64
	cumDrainOnly int64

	bw      *stacks.BandwidthAccountant
	lat     *stacks.LatencyAccountant
	hist    stacks.LatencyHistogram
	sampler *stacks.Sampler

	// Request freelist, used only when cfg.Recycle is set, and how many
	// requests newRequest allocated: the list's size under Recycle.
	reqFree  []*Request
	requests int

	// Incremental scheduling state (see schedule's doc comment): per-bank
	// queues and candidates, and what retime derived from them: per tier
	// the banks with each kind of candidate, and the device's answers per
	// bank. stale marks the banks whose candidates must be rebuilt before
	// the next issue; candAge is a lower bound on the cycle at which aging
	// promotes a classified request into the priority tier; wake is a
	// lower bound on the cycle any candidate can issue.
	cand     []bankCand
	tiers    [2]tierMasks // normal, priority
	allBanks uint64
	stale    uint64
	candAge  int64
	wake     int64

	// Per bank: the first cycle its column command or activate may issue,
	// the first its precharge may; until blockedUntil the lead candidate
	// (col, else act, else pre) waits on a constraint shared by the banks
	// in wide (for markBlocked).
	ready, readyPre, blockedUntil [maxBanks]int64
	wide                          [maxBanks]uint64

	issuedCycle    int64 // cycle of the last issued command
	lastIssuedBank int   // bank index of the last issued command, -1 if none

	// QoS state (all zero/nil when cfg.QoS is disabled; the booleans
	// gate every QoS code path so a policy-less controller runs the
	// legacy logic byte-identically).
	qosTrack bool  // per-source stack attribution enabled
	qosReg   bool  // some source has a bandwidth budget
	qosPrio  bool  // some source is in the real-time tier
	qosAging int64 // effective starvation bound (priority tier)

	qosWindow  int64   // current regulation window index (now / Window)
	qosUsed    []int64 // column commands issued per source this window
	qosHeld    []bool  // per-source held state, recomputed each tick
	readsBySrc []int   // queued (unissued) reads per source
	heldReads  int     // queued reads belonging to held sources
	cumReg     []int64 // cumulative held cycles per source (latency attribution)

	// busOwner tracks which source's data occupies the bus, for
	// per-source read/write cycle attribution. Windows never overlap
	// (the device serializes the data bus), so a FIFO suffices.
	busOwner []busWindow

	// latSrc holds per-source latency accountants (rows 0..Sources-1,
	// row Sources = shared), nil unless per-source tracking is enabled.
	latSrc []*stacks.LatencyAccountant

	stats Stats
	work  Work
}

// Work counts what the controller did, in units that do not depend on the
// host's speed. It is not part of Stats, nor of any result.
type Work struct {
	Ticks    int64 // Tick calls
	Replayed int64 // cycles FastForwardQuiet accounted in closed form
	Rebuilds int64 // rebuild calls: a bank's candidates reclassified
	Retimes  int64 // retime calls: a bank's mask bits rewritten
	Asks     int64 // ask calls: the device asked about a bank's candidates
}

// busWindow is one claimed [start, end) data-bus interval and the source
// whose request claimed it.
type busWindow struct {
	start, end int64
	src        int
}

type pendingDone struct {
	req  *Request
	done int64
}

// slots are one bank's scheduling candidates: what classifying the
// bank's visible requests in arrival order against its open row yields.
// The prio slots are populated only under a QoS policy with a priority
// tier; they hold the oldest priority-tier (real-time or aged) request
// per class, which the tiered scheduler serves before any normal slot.
type slots struct {
	col          *Request // oldest request whose row is open (column command ready-ish)
	act          *Request // oldest request needing an activate (bank precharged)
	pre          *Request // oldest request needing a precharge (row conflict)
	colPrio      *Request // oldest priority-tier row hit
	actPrio      *Request // oldest priority-tier activate candidate
	prePrio      *Request // oldest priority-tier precharge candidate
	sameRowCount int      // queued requests (both queues) targeting the open row
}

// holds reports whether req occupies one of the candidate slots.
func (s *slots) holds(req *Request) bool {
	return s.col == req || s.act == req || s.pre == req ||
		s.colPrio == req || s.actPrio == req || s.prePrio == req
}

// bankCand is what the scheduler keeps per bank: its queued requests
// and the candidates among them.
type bankCand struct {
	slots
	queue reqList // the bank's requests of both directions, in arrival order
}

// tierMasks are one tier's candidates as bank sets, one bit per bank.
type tierMasks struct {
	col uint64 // a row hit waits
	act uint64 // an activate waits
	pre uint64 // a precharge waits and may close the row (see set)
}

// never is a cycle that does not come.
const never = math.MaxInt64

// maxBanks is dram.Geometry.Validate's cap on a channel's banks: a bank
// set is one uint64.
const maxBanks = 64

// New returns a controller for one channel of the given device, with the
// given address mapper (used to decode request addresses).
func New(dev *dram.Device, mapper addrmap.Mapper, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := dev.Geometry()
	c := &Controller{
		geo:         geo,
		tim:         dev.Timing(),
		cfg:         cfg,
		dev:         dev,
		mapper:      mapper,
		wbuf:        lineidx.New[struct{}](cfg.WriteQueueCap),
		cand:        make([]bankCand, geo.TotalBanks()),
		bw:          stacks.NewBandwidthAccountant(geo.TotalBanks()),
		lat:         stacks.NewLatencyAccountant(),
		nextRefresh: make([]int64, geo.Ranks),
		issuedCycle: -1,
		allBanks:    1<<geo.TotalBanks() - 1,
		candAge:     never,
		refDue:      never,
	}
	for b := range c.ready {
		c.ready[b], c.readyPre[b] = never, never // no candidates yet
	}
	for r := range c.nextRefresh {
		// Stagger rank refreshes across the interval.
		c.nextRefresh[r] = int64(c.tim.REFI) * int64(r+1) / int64(geo.Ranks)
		c.refDue = min(c.refDue, c.nextRefresh[r])
	}
	c.sampler = stacks.NewSampler(cfg.SampleInterval, c.bw, c.lat)
	if q := cfg.QoS; q.Enabled() {
		n := q.Sources
		c.qosTrack = true
		c.qosReg = q.Regulates()
		c.qosPrio = q.Prioritizes()
		c.qosAging = q.AgingBound()
		c.qosUsed = make([]int64, n)
		c.qosHeld = make([]bool, n)
		c.readsBySrc = make([]int, n)
		c.cumReg = make([]int64, n)
		c.bw.EnableSourceTracking(n)
		c.latSrc = make([]*stacks.LatencyAccountant, n+1)
		for i := range c.latSrc {
			c.latSrc[i] = stacks.NewLatencyAccountant()
		}
	}
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(dev *dram.Device, mapper addrmap.Mapper, cfg Config) *Controller {
	c, err := New(dev, mapper, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// Work returns the controller's work counts.
func (c *Controller) Work() Work { return c.work }

// Requests returns how many request objects the controller allocated:
// under Config.Recycle, the size its free list reached.
func (c *Controller) Requests() int { return c.requests }

// BandwidthStack returns the bandwidth stack accumulated so far.
func (c *Controller) BandwidthStack() stacks.BandwidthStack { return c.bw.Stack() }

// LatencyStack returns the latency stack accumulated so far.
func (c *Controller) LatencyStack() stacks.LatencyStack { return c.lat.Stack() }

// LatencyHistogram returns the distribution of total read latencies.
func (c *Controller) LatencyHistogram() stacks.LatencyHistogram { return c.hist }

// SourceStacks returns the per-source bandwidth split (rows 0..n-1 for
// the QoS sources, last row stacks.SourceShared), or nil when no QoS
// policy is configured. The rows sum to BandwidthStack cycle-exactly.
func (c *Controller) SourceStacks() []stacks.SourceStack { return c.bw.SourceStacks() }

// SourceLatencyStacks returns per-source latency stacks (index
// 0..n-1 for the QoS sources, index n for unattributed reads), or nil
// when no QoS policy is configured. Summed, they equal LatencyStack.
func (c *Controller) SourceLatencyStacks() []stacks.LatencyStack {
	if c.latSrc == nil {
		return nil
	}
	out := make([]stacks.LatencyStack, len(c.latSrc))
	for i, a := range c.latSrc {
		out[i] = a.Stack()
	}
	return out
}

// srcRow maps a request source to a latSrc row (out-of-range sources to
// the shared row).
func (c *Controller) srcRow(src int) int {
	if src < 0 || src >= len(c.latSrc)-1 {
		return len(c.latSrc) - 1
	}
	return src
}

// Samples returns the through-time samples cut so far (empty unless
// Config.SampleInterval is positive).
func (c *Controller) Samples() []stacks.Sample { return c.sampler.Samples() }

// FinishSampling cuts the final partial through-time sample.
func (c *Controller) FinishSampling() { c.sampler.Finish(c.now + 1) }

// Pending reports whether the controller still has queued or in-flight
// work (used to drain simulations).
func (c *Controller) Pending() bool {
	return c.readQ.n+c.writeQ.n+len(c.inflight)+len(c.fwdDone) > 0
}

// newRequest allocates a request, reusing a recycled one when the
// freelist is enabled and non-empty.
func (c *Controller) newRequest(addr uint64, write bool, src int, onComplete func(*Request, int64), meta any, now int64) *Request {
	if n := len(c.reqFree); n > 0 {
		req := c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
		*req = Request{Addr: addr, Write: write, OnComplete: onComplete, Meta: meta, arrive: now, src: src}
		return req
	}
	c.requests++
	return &Request{Addr: addr, Write: write, OnComplete: onComplete, Meta: meta, arrive: now, src: src}
}

// recycle returns a completed request to the freelist when cfg.Recycle
// is set. Callers guarantee the request's OnComplete has already run.
func (c *Controller) recycle(req *Request) {
	if !c.cfg.Recycle {
		return
	}
	req.OnComplete, req.Meta = nil, nil
	c.reqFree = append(c.reqFree, req)
}

// EnqueueRead presents a cache-line read at cycle now. It reports false
// (and does nothing) when the read queue is full. If the line is present
// in the write buffer the read is served by store forwarding and never
// reaches DRAM.
//
// The returned *Request is owned by the controller: the caller may
// inspect it until onComplete fires and must not retain it afterwards,
// when it returns to the free list.
//
//dramvet:allow poolescape(caller may inspect the request until onComplete fires; recycle happens at completion)
func (c *Controller) EnqueueRead(now int64, addr uint64, onComplete func(*Request, int64), meta any) (*Request, bool) {
	return c.EnqueueReadFrom(now, addr, stacks.SourceShared, onComplete, meta)
}

// EnqueueReadFrom is EnqueueRead with an explicit source identity (the
// requesting core's index, or stacks.SourceShared for unattributed
// reads). Under a QoS policy the source selects the request's bandwidth
// budget, priority tier and per-source stack row.
//
//dramvet:allow poolescape(caller may inspect the request until onComplete fires; recycle happens at completion)
func (c *Controller) EnqueueReadFrom(now int64, addr uint64, src int, onComplete func(*Request, int64), meta any) (*Request, bool) {
	addr &^= uint64(c.geo.LineBytes - 1)
	if _, hit := c.wbuf.Get(addr); hit {
		req := c.newRequest(addr, false, src, onComplete, meta, now)
		req.forwarded = true
		c.stats.ForwardedReads++
		c.stats.EnqueuedReads++
		c.fwdDone = append(c.fwdDone, pendingDone{req, now + int64(c.cfg.CtrlLatency)})
		return req, true
	}
	if c.readQ.n >= c.cfg.ReadQueueCap {
		return nil, false
	}
	req := c.newRequest(addr, false, src, onComplete, meta, now)
	req.refSnap = c.cumRefresh
	req.drainSnap = c.cumDrainOnly
	if c.qosReg {
		if s := req.src; s >= 0 && s < len(c.readsBySrc) {
			c.readsBySrc[s]++
			req.regSnap = c.cumReg[s]
		}
	}
	c.readQ.pushBack(req, inQueue)
	c.stats.EnqueuedReads++
	c.admit(req, now)
	return req, true
}

// EnqueueWrite presents a dirty-line writeback at cycle now. It reports
// false when the write buffer is full. Writes to a line already buffered
// coalesce into the existing entry (the new request completes immediately).
//
// Like EnqueueRead, the returned *Request stays owned by the controller
// and must not be retained after onComplete fires.
//
//dramvet:allow poolescape(caller may inspect the request until onComplete fires; recycle happens at completion)
func (c *Controller) EnqueueWrite(now int64, addr uint64, onComplete func(*Request, int64), meta any) (*Request, bool) {
	return c.EnqueueWriteFrom(now, addr, stacks.SourceShared, onComplete, meta)
}

// EnqueueWriteFrom is EnqueueWrite with an explicit source identity.
// Writes are posted and never held by regulation, but their column
// commands consume the source's budget and their data-bus cycles are
// attributed to the source's stack row.
//
//dramvet:allow poolescape(caller may inspect the request until onComplete fires; recycle happens at completion)
func (c *Controller) EnqueueWriteFrom(now int64, addr uint64, src int, onComplete func(*Request, int64), meta any) (*Request, bool) {
	addr &^= uint64(c.geo.LineBytes - 1)
	if _, dup := c.wbuf.Get(addr); dup {
		c.stats.CoalescedWrites++
		c.stats.EnqueuedWrites++
		req := c.newRequest(addr, true, src, nil, meta, now)
		if onComplete != nil {
			onComplete(req, now)
		}
		c.recycle(req)
		return req, true
	}
	if c.writeQ.n >= c.cfg.WriteQueueCap {
		return nil, false
	}
	req := c.newRequest(addr, true, src, onComplete, meta, now)
	c.writeQ.pushBack(req, inQueue)
	c.wbuf.Put(addr, struct{}{})
	c.stats.EnqueuedWrites++
	c.admit(req, now)
	return req, true
}

// Tick advances the controller by one memory cycle. Call with
// consecutive cycle numbers; enqueue requests for cycle n before Tick(n).
func (c *Controller) Tick(now int64) {
	c.now = now
	c.work.Ticks++
	// A landed auto-precharge closed its bank's row.
	c.stale |= c.dev.Sync(now)

	c.completeFinished(now)
	c.qosTick(now)
	c.updateRefresh(now)
	c.updateDrain()
	c.schedule(now)
	c.account(now)
}

// qosTick maintains the regulation window: budgets refill at absolute
// window boundaries (cycle N*Window, independent of traffic history, so
// fast-forwarded and per-cycle runs agree), and the per-source held
// state is recomputed for this cycle. No-op without bandwidth budgets.
func (c *Controller) qosTick(now int64) {
	if !c.qosReg {
		return
	}
	if w := now / c.cfg.QoS.Window; w != c.qosWindow {
		c.qosWindow = w
		for s := range c.qosUsed {
			c.qosUsed[s] = 0
		}
	}
	c.heldReads = 0
	for s := range c.qosHeld {
		b := c.cfg.QoS.SourceBudget(s)
		held := b > 0 && c.qosUsed[s] >= int64(b)
		if held != c.qosHeld[s] {
			// Held requests are invisible to the scheduler; a source
			// (un)holding changes every bank's candidates.
			c.stale = c.allBanks
		}
		c.qosHeld[s] = held
		if held {
			c.heldReads += c.readsBySrc[s]
		}
	}
}

// heldReq reports whether req is currently held by regulation.
func (c *Controller) heldReq(req *Request) bool {
	return c.qosReg && req.src >= 0 && req.src < len(c.qosHeld) && c.qosHeld[req.src]
}

// NextEventCycle returns the next cycle at which Tick must run for real,
// assuming no new requests are enqueued in between. Call it immediately
// after Tick(now). For a controller with queued or in-flight work, or
// with a pending refresh, or whose device still has observable activity
// beyond a pure refresh wait (banks opening/closing, data on the bus),
// it returns now+1: every cycle must be simulated. Otherwise the
// controller is provably quiet and the only future events are the end
// of an in-flight refresh (tRFC) and the earliest refresh deadline:
// every cycle before the sooner of the two is a pure refresh or idle
// cycle that FastForwardQuiet can account in closed form.
func (c *Controller) NextEventCycle(now int64) int64 {
	if c.Pending() || c.refBanks != 0 {
		return now + 1
	}
	next := c.refDue // no refresh is pending: the earliest deadline
	if c.dev.QuietAt() > now+1 && c.dev.RefreshOnlyUntil(now+1) <= now+1 {
		// Device activity beyond a bare refresh wait: tick every cycle.
		// (A pure refresh wait runs out by itself at a known cycle, so
		// the whole gap to the next refresh deadline replays in closed
		// form as refresh-then-idle; see FastForwardQuiet.)
		return now + 1
	}
	if next <= now {
		return now + 1 // defensive: a due refresh is already pending
	}
	return next
}

// FastForwardQuiet replays the ticks for cycles from..to (inclusive) in
// closed form across a gap NextEventCycle proved quiet: first the tail
// of an in-flight refresh wait (every cycle observes "refreshing,
// nothing else" — see dram.Device.RefreshOnlyUntil), then whole idle
// cycles. Queue-occupancy integrals gain zero, and through-time samples
// are cut at exactly the boundaries the per-cycle loop would have cut
// them: the result is byte-identical to calling Tick for every cycle of
// the gap.
func (c *Controller) FastForwardQuiet(from, to int64) {
	if refEnd := min(c.dev.RefreshOnlyUntil(from)-1, to); refEnd >= from {
		c.replay(from, refEnd, true)
		from = refEnd + 1
	}
	c.replay(from, to, false)
}

// replay is FastForwardQuiet's closed form for cycles from..to (none if
// to < from) that are all refresh waits or all idle.
func (c *Controller) replay(from, to int64, refreshing bool) {
	for t := from; t <= to; {
		end := to
		if next := c.sampler.NextCut(); next > 0 && next-1 < end {
			end = next - 1
		}
		n := end - t + 1
		if refreshing {
			c.bw.AccountRefreshing(n)
			c.cumRefresh += n
		} else {
			c.bw.AccountIdle(n)
		}
		c.stats.Cycles += n
		c.work.Replayed += n
		t = end + 1
		c.sampler.MaybeCut(t)
	}
	if to >= from {
		c.now = to
	}
}

func (c *Controller) completeFinished(now int64) {
	for _, fifo := range [...]*[]pendingDone{&c.inflight, &c.fwdDone} {
		for len(*fifo) > 0 && (*fifo)[0].done <= now {
			pd := (*fifo)[0]
			*fifo = popFront(*fifo)
			if pd.req.OnComplete != nil {
				pd.req.OnComplete(pd.req, pd.done)
			}
			c.recycle(pd.req)
		}
	}
}

// popFront drops q's first element by sliding the rest down: the short
// FIFOs here keep their capacity instead of draining it from the head
// and reallocating on a later append.
func popFront[T any](q []T) []T {
	return q[:copy(q, q[1:])]
}

// updateRefresh marks pending the refreshes that have come due: none
// before refDue.
func (c *Controller) updateRefresh(now int64) {
	if now < c.refDue {
		return
	}
	c.refDue = never
	for r, due := range c.nextRefresh {
		switch banks := c.dev.RankBanks(r); {
		case c.refBanks&banks != 0:
		case now >= due:
			c.refBanks |= banks
		default:
			c.refDue = min(c.refDue, due)
		}
	}
}

func (c *Controller) updateDrain() {
	if !c.drain && c.writeQ.n >= c.cfg.WriteHi {
		c.drain = true
		c.stats.DrainEntries++
	}
	if c.drain && c.writeQ.n <= c.cfg.WriteLo {
		c.drain = false
	}
	// A read queue whose every entry is held by regulation is effectively
	// empty: let buffered writes use the otherwise-forfeited cycles.
	wm := c.drain || (c.readQ.n-c.heldReads == 0 && c.writeQ.n > 0)
	if wm != c.writeMode {
		c.writeMode = wm
		// Direction flip: every bank's candidates come from the other queue.
		c.stale = c.allBanks
	}
}

// account feeds the bandwidth-stack accountant with this cycle's channel
// state and maintains the cumulative wait counters for latency stacks.
func (c *Controller) account(now int64) {
	view := stacks.CycleView{
		Data:       c.dev.ConsumeBusKind(now),
		Refreshing: c.dev.AnyRefreshing(now),
		DataSource: stacks.SourceShared,
		RegSource:  stacks.SourceShared,
	}
	if c.qosTrack && view.Data != dram.DataNone {
		view.DataSource = c.busOwnerAt(now)
	}
	if view.Data == dram.DataNone && !view.Refreshing {
		blocked := c.markBlocked(now)
		pre, act, _ := c.dev.BusyMasks(now)
		view.PreMask, view.ActMask, view.BlockedMask = pre, act, blocked
		if c.writeMode {
			view.Pending = c.writeQ.n > 0
		} else {
			// Held reads are not pending: a cycle lost because every
			// waiting read was over budget is regulation, not constraints.
			view.Pending = c.readQ.n-c.heldReads > 0
		}
		if pre|act|blocked == 0 && view.Pending && c.issuedCycle != now {
			// Nothing bank-attributable, yet a pending request did not
			// progress: a channel-level condition is in the way.
			view.ChannelBlocked = true
		}
		if pre|act|blocked == 0 && !view.Pending &&
			c.heldReads > 0 && c.issuedCycle != now {
			// The channel sat unused only because every waiting read was
			// held by its source's budget: a regulation cycle, charged to
			// the oldest held read's source.
			view.Regulated = true
			view.RegSource = c.oldestHeldSource()
		}
	}
	c.bw.Account(view)

	if c.qosReg && c.heldReads > 0 {
		// A held source with queued reads pays one regulation cycle: the
		// basis of the latency stacks' "regulated" component.
		for s := range c.qosHeld {
			if c.qosHeld[s] && c.readsBySrc[s] > 0 {
				c.cumReg[s]++
			}
		}
	}

	if view.Refreshing {
		c.cumRefresh++
	} else if c.writeMode {
		c.cumDrainOnly++
	}
	c.stats.Cycles++
	c.stats.ReadQueueCycles += int64(c.readQ.n)
	c.stats.WriteQueueCycles += int64(c.writeQ.n)
	c.stats.MaxReadQueue = max(c.stats.MaxReadQueue, c.readQ.n)
	c.stats.MaxWriteQueue = max(c.stats.MaxWriteQueue, c.writeQ.n)
	c.sampler.MaybeCut(now + 1)
}

// busOwnerAt returns the source whose data occupies the bus at cycle
// now, dropping expired windows from the FIFO.
func (c *Controller) busOwnerAt(now int64) int {
	for len(c.busOwner) > 0 && c.busOwner[0].end <= now {
		c.busOwner = popFront(c.busOwner)
	}
	if len(c.busOwner) > 0 && c.busOwner[0].start <= now {
		return c.busOwner[0].src
	}
	return stacks.SourceShared
}

// oldestHeldSource returns the source of the oldest held read (the
// queue is in arrival order), or stacks.SourceShared if none is found.
func (c *Controller) oldestHeldSource() int {
	for req := c.readQ.head; req != nil; req = req.link[inQueue].next {
		if c.heldReq(req) {
			return req.src
		}
	}
	return stacks.SourceShared
}

// readDone computes a finished read's latency decomposition and records
// it in the latency stack. Called at column-command issue, when the data
// timing is fully determined.
func (c *Controller) readDone(req *Request, colAt int64) {
	_, dataEnd := c.dev.DataWindow(dram.CmdRD, colAt)
	done := dataEnd + int64(c.cfg.CtrlLatency)
	c.inflight = append(c.inflight, pendingDone{req, done})

	var r stacks.ReadLatency
	r.Total = done - req.arrive
	r.Components[stacks.LatBaseCtrl] = float64(c.cfg.CtrlLatency)
	r.Components[stacks.LatBaseDRAM] = float64(c.tim.CL + c.tim.BL2)
	preact := float64(req.ownPre + req.ownAct)
	refresh := float64(c.cumRefresh - req.refSnap)
	burst := float64(c.cumDrainOnly - req.drainSnap)
	var regulated float64
	if c.qosReg && req.src >= 0 && req.src < len(c.cumReg) {
		regulated = float64(c.cumReg[req.src] - req.regSnap)
	}
	queue := float64(colAt-req.arrive) - preact - refresh - burst - regulated
	// The wait components can overlap in corner cases (e.g. a drain
	// begins while this request's activate is in flight); shave the
	// overlap so the components still sum to the total. Regulated comes
	// last: a cycle that was both held and waiting stays regulated.
	for _, comp := range []*float64{&burst, &refresh, &preact, &regulated} {
		if queue >= 0 {
			break
		}
		take := -queue
		if take > *comp {
			take = *comp
		}
		*comp -= take
		queue += take
	}
	if queue < 0 {
		queue = 0
	}
	r.Components[stacks.LatPreAct] = preact
	r.Components[stacks.LatRefresh] = refresh
	r.Components[stacks.LatWriteBurst] = burst
	r.Components[stacks.LatQueue] = queue
	r.Components[stacks.LatRegulated] = regulated
	req.lat = r
	c.lat.AddRead(r)
	if c.latSrc != nil {
		c.latSrc[c.srcRow(req.src)].AddRead(r)
	}
	c.hist.Add(r.Total)
}

func (c *Controller) classifyPage(req *Request) {
	switch {
	case req.ownPre > 0:
		c.stats.PageMiss++
	case req.ownAct > 0:
		c.stats.PageEmpty++
	default:
		c.stats.PageHits++
	}
}
