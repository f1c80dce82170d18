package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
)

// warmBatch is the per-source buffer size used while draining
// batch-capable sources during functional warming.
const warmBatch = 64

// warmFeed drains one source for prewarm. Sources that support batch
// generation are pulled through a small buffer: the consumption order
// is unchanged — only the generation is amortized, which the
// cpu.BatchSource purity contract makes invisible. A refill is only
// taken while the source is at least a full batch short of its warm
// quota, so every generated item is consumed before the quota check can
// retire the source.
type warmFeed struct {
	src    cpu.Source
	bs     cpu.BatchSource // nil: no batch fast path, use src.Next
	items  []cpu.Instr
	pos, n int
	warmed int64 // memory operations warmed so far
	quota  int64 // PrewarmOps
	used   int64 // items consumed so far
	done   bool  // the stream ended or met its quota: warm no further
}

// pending returns a batch feed's generated, unconsumed items, generating
// more when there are none: a full batch, or within a batch of the quota
// one item. Consuming k of them is f.pos += k. Empty means end of stream.
func (f *warmFeed) pending() []cpu.Instr {
	if f.pos >= f.n {
		f.pos, f.n = 0, 0
		if f.warmed+warmBatch <= f.quota {
			f.n = f.bs.NextBatch(f.items)
		} else if ins, ok := f.src.Next(); ok {
			f.items[0], f.n = ins, 1
		}
	}
	return f.items[f.pos:f.n]
}

func (f *warmFeed) next() (cpu.Instr, bool) {
	if f.bs == nil {
		return f.src.Next()
	}
	items := f.pending()
	if len(items) == 0 {
		return cpu.Instr{}, false
	}
	f.pos++
	return items[0], true
}

// prewarm consumes the head of each stream functionally so the caches
// start in steady state; the cores continue from where warming stopped.
// Sources are drained round-robin so barrier-synchronized workloads
// (package gap) make progress; stall items are skipped.
func (s *System) prewarm(sources []cpu.Source) {
	s.work = &Work{WarmItems: make([]int64, len(sources))}
	feeds := make([]warmFeed, len(sources))
	allBatch := len(sources) > 0
	for i, src := range sources {
		feeds[i] = warmFeed{src: src, quota: s.cfg.PrewarmOps}
		if bs, ok := src.(cpu.BatchSource); ok {
			feeds[i].bs = bs
			feeds[i].items = make([]cpu.Instr, warmBatch)
		} else {
			allBatch = false
		}
	}
	// Batch sources are pure: each core's stream is a function of its
	// own consumption count, with no cross-source barriers (the gap
	// barrier sources deliberately stay batch-free). The private cache
	// levels never observe the shared LLC, so with every source pure the
	// per-core warm work can run concurrently and only the LLC's
	// operation stream needs the global round-robin order — see
	// prewarmParallel. The split only pays when it can actually run
	// concurrently, so one core — or a single-processor host — keeps
	// the serial loop and its zero recording overhead.
	if allBatch && len(sources) > 1 && runtime.GOMAXPROCS(0) > 1 {
		s.prewarmParallel(feeds)
	} else {
		s.prewarmSerial(feeds)
	}
	for i := range feeds {
		s.work.WarmItems[i] = feeds[i].used
	}
}

// prewarmSerial is the round-robin loop: one item from every live feed in
// turn. A round in which nothing moves ends it: every feed is done, or
// every remaining source is stalled at a barrier that a finished source
// will never release.
func (s *System) prewarmSerial(feeds []warmFeed) {
	for progress := true; progress; {
		progress = false
		for i := range feeds {
			f := &feeds[i]
			if f.done {
				continue
			}
			ins, ok := cpu.Instr{}, f.warmed < f.quota
			if ok {
				ins, ok = f.next()
			}
			if !ok {
				f.done = true
				continue
			}
			f.used++
			switch ins.Kind {
			case cpu.KindLoad:
				s.hier.Warm(i, ins.Addr, false)
				f.warmed++
				progress = true
			case cpu.KindStore:
				s.hier.Warm(i, ins.Addr, true)
				f.warmed++
				progress = true
			case cpu.KindStall:
				// Barrier wait: progress only if someone else moves.
			default:
				progress = true // compute/branch item consumed
			}
		}
	}
}

// warmChunk is the number of items each core advances per parallel
// warming phase; it bounds the record memory, two sets of a log per core
// sized for one LLC operation an item (doc/PERF.md, "Prewarm").
const warmChunk = 1 << 11

// warmBuffers is prewarmParallel's scratch: two record sets of a log per
// core, about 295 KB for eight cores. The zero value is ready and sizes
// itself on use; a System built on an Arena uses the arena's, and so finds
// its predecessor's.
type warmBuffers struct {
	sets [2][]cache.WarmLog
}

// set returns record set k readied for cores feeds: a log each, empty, its
// buffers sized on first use for a chunk of items, or the quota if less.
func (b *warmBuffers) set(k, cores int, quota int64) []cache.WarmLog {
	n := int(min(warmChunk, quota))
	if len(b.sets[k]) < cores {
		b.sets[k] = append(b.sets[k], make([]cache.WarmLog, cores-len(b.sets[k]))...)
	}
	logs := b.sets[k][:cores]
	for i := range logs {
		l := &logs[i]
		if l.Ops == nil {
			l.Ops, l.Cnt = make([]cache.LLCOp, 0, n), make([]uint8, 0, n)
		}
		l.Ops, l.Cnt = l.Ops[:0], l.Cnt[:0]
	}
	return logs
}

// bytes returns the capacity of every log of both record sets.
func (b *warmBuffers) bytes() int64 {
	return logBytes(b.sets[0]) + logBytes(b.sets[1])
}

// logBytes returns the capacity of logs' buffers.
func logBytes(logs []cache.WarmLog) int64 {
	n := int64(0)
	for i := range logs {
		n += int64(cap(logs[i].Ops))*8 + int64(cap(logs[i].Cnt))
	}
	return n
}

// prewarmParallel is prewarm for the all-batch-source case, a two-stage
// pipeline over chunks of warmChunk items a core. Private: one worker a
// core, living for the whole warm, warms the core's L1/L2 through chunk
// k+1 (disjoint state: the core's caches, feed and RNG) and records in one
// set of logs the LLC operations each item emits. Shared: meanwhile this
// goroutine replays chunk k from the other set with Hierarchy.WarmLLC,
// which applies it in the serial loop's (item, core) order — every live
// source consumes one item per round of that loop, and cores stay
// item-aligned at chunk boundaries because a worker leaves a chunk early
// only when its feed is done for good. The private levels never observe
// the shared one, so the final hierarchy state is identical to the serial
// loop's whatever GOMAXPROCS is. A worker's panic is re-raised here once
// its chunk is over, and no worker outlives the warm.
func (s *System) prewarmParallel(feeds []warmFeed) {
	buf := new(warmBuffers)
	if s.arena != nil {
		buf = &s.arena.warm
	}
	var wg sync.WaitGroup
	workers := make([]warmWorker, len(feeds))
	for i := range workers {
		workers[i].logs = make(chan *cache.WarmLog, 1)
		go workers[i].run(s, i, &feeds[i], &wg)
	}
	defer func() {
		wg.Wait() // a panic of this goroutine's own may leave a chunk running
		for i := range workers {
			close(workers[i].logs)
		}
	}()
	var prev []cache.WarmLog // the chunk warmed last, not yet replayed
	// The record sets this warm took, for Work.WarmBytes.
	var used [2][]cache.WarmLog
	for k := 0; ; k ^= 1 {
		var logs []cache.WarmLog
		for i := range feeds {
			if feeds[i].done {
				continue
			}
			if logs == nil {
				logs = buf.set(k, len(feeds), s.cfg.PrewarmOps)
				used[k] = logs
			}
			wg.Add(1)
			workers[i].logs <- &logs[i]
		}
		if prev != nil {
			s.hier.WarmLLC(prev)
		}
		wg.Wait()
		for i := range workers {
			if p := workers[i].fault; p != nil {
				panic(p)
			}
		}
		if logs == nil {
			s.work.WarmBytes = logBytes(used[0]) + logBytes(used[1])
			return
		}
		s.work.Chunks++
		for i := range logs {
			s.work.LLCOps += int64(len(logs[i].Ops))
		}
		prev = logs
	}
}

// warmWorker is one core's private stage of a pipelined warm.
type warmWorker struct {
	logs  chan *cache.WarmLog // the core's log for the next chunk; closed when the warm ends
	fault *warmPanic          // the worker's panic; read after the chunk's Wait
}

// warmPanic is a prewarm worker's panic as its caller re-raises it: the
// worker's value and the stack it panicked on.
type warmPanic struct {
	core  int
	value any
	stack []byte
}

func (p *warmPanic) Error() string {
	return fmt.Sprintf("%v [prewarm worker of core %d]\n\n%s", p.value, p.core, p.stack)
}

// run warms core's chunks as they arrive on w.logs, each log empty, until
// the channel closes. A panic ends it: w.catch records it and ends the
// worker's part in that chunk.
func (w *warmWorker) run(s *System, core int, f *warmFeed, wg *sync.WaitGroup) {
	defer w.catch(core, wg)
	for l := range w.logs {
		s.warmPrivateChunk(core, f, l)
		wg.Done()
	}
}

// catch, deferred by a worker, records the worker's panic, if any, and
// marks its chunk done.
func (w *warmWorker) catch(core int, wg *sync.WaitGroup) {
	if v := recover(); v != nil {
		w.fault = &warmPanic{core: core, value: v, stack: debug.Stack()}
		wg.Done()
	}
}

// warmPrivateChunk advances core's feed by up to warmChunk items through
// the private levels, ranging over the feed's batches in place, and
// records what they emit for the LLC in l, which arrives empty and is
// written once, at the end.
func (s *System) warmPrivateChunk(core int, f *warmFeed, l *cache.WarmLog) {
	ops, cnt := l.Ops, l.Cnt
	for len(cnt) < warmChunk && !f.done {
		// Every pending item is inside the quota (see pending); the chunk
		// may end before they do.
		items := f.pending()
		items = items[:min(len(items), warmChunk-len(cnt))]
		for k := range items {
			ins := &items[k]
			n := len(ops)
			if ins.Kind == cpu.KindLoad || ins.Kind == cpu.KindStore {
				ops = s.hier.WarmPrivate(core, ins.Addr, ins.Kind == cpu.KindStore, ops)
				f.warmed++
			}
			cnt = append(cnt, uint8(len(ops)-n))
		}
		f.pos += len(items)
		f.used += int64(len(items))
		f.done = len(items) == 0 || f.warmed >= f.quota
	}
	l.Ops, l.Cnt = ops, cnt
}
