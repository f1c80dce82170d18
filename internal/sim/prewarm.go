package sim

import (
	"runtime"
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
		return
	}
	exhausted := make([]bool, len(feeds))
	active := len(feeds)
	for active > 0 {
		progress := false
		for i := range feeds {
			f := &feeds[i]
			if exhausted[i] || f.warmed >= f.quota {
				if !exhausted[i] {
					exhausted[i] = true
					active--
				}
				continue
			}
			ins, ok := f.next()
			if !ok {
				exhausted[i] = true
				active--
				continue
			}
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
		if !progress {
			// Every remaining source is stalled at a barrier that a
			// finished source will never release: stop warming here.
			return
		}
	}
}

// warmChunk is the number of items each core advances per parallel
// warming phase; it bounds the recorded-LLC-operation memory. A quarter of
// it saves 1.5–3 MB a job and costs four times the barrier phases, about
// 0.1 s of an 8-core set-up (doc/PERF.md, "Prewarm").
const warmChunk = 1 << 14

// warmRecord is what one core's private-level warm of a chunk leaves for
// the shared level.
type warmRecord struct {
	ops  []cache.LLCOp // the LLC operations emitted, in the core's item order
	cnt  []uint8       // how many of them each item of the chunk emitted (0–3)
	done bool          // the feed ended or met its quota: no further chunks
}

// warmBuffers is prewarmParallel's scratch, about 2.2 MB for eight cores.
// The zero value is ready and sizes itself on use; a System built on an
// Arena uses the arena's, and so finds its predecessor's.
type warmBuffers struct {
	recs   []warmRecord
	merged []cache.LLCOp
}

// size readies b for cores feeds: a record each, with empty buffers and done
// unset, and a merge buffer for a chunk of them all, or the quota if less.
func (b *warmBuffers) size(cores int, quota int64) {
	n := int(min(warmChunk, quota))
	if len(b.recs) < cores {
		grown := make([]warmRecord, cores)
		copy(grown, b.recs)
		b.recs = grown
	}
	for i := range b.recs[:cores] {
		r := &b.recs[i]
		if r.ops == nil {
			r.ops = make([]cache.LLCOp, 0, n)
			r.cnt = make([]uint8, 0, n)
		}
		r.done = false
	}
	if cap(b.merged) < cores*n {
		b.merged = make([]cache.LLCOp, 0, cores*n)
	}
}

func (b *warmBuffers) bytes() int64 {
	n := int64(cap(b.merged)) * 8
	for i := range b.recs {
		n += int64(cap(b.recs[i].ops))*8 + int64(cap(b.recs[i].cnt))
	}
	return n
}

// prewarmParallel is prewarm for the all-batch-source case. Each chunk
// has three phases. Private: every core's L1/L2 warm runs in its own
// goroutine (disjoint state: the core's caches, feed and RNG) and records
// the shared-LLC operations each item emits. Merge: because every active
// source consumes one item per round of the serial loop, an item's global
// position is (item index, core index), so laying the records out by that
// key gives the LLC's operation stream in exactly the serial order.
// Replay: Hierarchy.WarmLLC applies that stream, sharded by set over the
// available processors with position-derived recency stamps. The final
// hierarchy state is identical to the serial loop's whatever GOMAXPROCS
// is. Chunks bound the record memory; cores remain item-aligned at chunk
// boundaries because a worker leaves a chunk early only when its feed is
// done for good. Buffers are sized for one LLC operation per item, which
// only store-heavy streams exceed.
func (s *System) prewarmParallel(feeds []warmFeed) {
	buf := new(warmBuffers)
	if s.arena != nil {
		buf = &s.arena.warm
	}
	buf.size(len(feeds), s.cfg.PrewarmOps)
	recs, merged := buf.recs[:len(feeds)], buf.merged
	cur := make([]int, len(feeds)) // merge position in each record's ops
	shards := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for {
		live := 0
		for i := range feeds {
			r := &recs[i]
			r.ops, r.cnt, cur[i] = r.ops[:0], r.cnt[:0], 0
			if r.done {
				continue
			}
			live++
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.warmPrivateChunk(i, &feeds[i], r)
			}()
		}
		if live == 0 {
			return
		}
		wg.Wait()

		items := 0
		for i := range recs {
			items = max(items, len(recs[i].cnt))
		}
		merged = merged[:0]
		for j := 0; j < items; j++ {
			for i := range recs {
				r := &recs[i]
				if j >= len(r.cnt) {
					continue
				}
				for n := r.cnt[j]; n > 0; n-- {
					merged = append(merged, r.ops[cur[i]])
					cur[i]++
				}
			}
		}
		buf.merged = merged // it may have grown
		s.hier.WarmLLC(merged, shards)
	}
}

// warmPrivateChunk advances core's feed by up to warmChunk items through
// the private levels, ranging over the feed's batches in place, and
// records what they emit for the LLC in r, which arrives empty.
func (s *System) warmPrivateChunk(core int, f *warmFeed, r *warmRecord) {
	for len(r.cnt) < warmChunk {
		if f.warmed >= f.quota {
			r.done = true
			return
		}
		// Every pending item is inside the quota (see pending); the chunk
		// may end before they do.
		items := f.pending()
		if len(items) == 0 {
			r.done = true
			return
		}
		items = items[:min(len(items), warmChunk-len(r.cnt))]
		for k := range items {
			ins := &items[k]
			n := len(r.ops)
			if ins.Kind == cpu.KindLoad || ins.Kind == cpu.KindStore {
				r.ops = s.hier.WarmPrivate(core, ins.Addr, ins.Kind == cpu.KindStore, r.ops)
				f.warmed++
			}
			r.cnt = append(r.cnt, uint8(len(r.ops)-n))
		}
		f.pos += len(items)
	}
}
