package gap

import (
	"dramstacks/internal/cpu"
	"dramstacks/internal/graph"
)

// BC is Brandes betweenness centrality from a set of sample sources: per
// source, a forward level-synchronous BFS that counts shortest paths
// (sigma), then a backward sweep over the levels accumulating
// dependencies (delta) into the centrality scores.
type BC struct {
	kernelBase
	depth Array // 4 B per vertex
	sigma Array // 4 B per vertex
	delta Array // 4 B per vertex
	score Array // 4 B per vertex
	queue []Array

	d      []int32
	sig    []float64
	del    []float64
	scores []float64

	levels   [][]int32 // frontier per level of the current source
	next     [][]int32
	sources  []int32
	srcIdx   int
	level    int32 // forward: level being expanded; backward: level index
	backward bool
	started  bool

	cur []bcCur
}

type bcCur struct {
	i, hi    int
	u        int32
	ei, eEnd int64
	active   bool
}

// NewBC builds the kernel for the given sample sources.
func NewBC(g *graph.Graph, cores int, lay *Layout, sources []int32) *BC {
	b := &BC{
		kernelBase: newKernelBase(g, cores, lay, 606),
		depth:      lay.Array(int64(g.N), 4),
		sigma:      lay.Array(int64(g.N), 4),
		delta:      lay.Array(int64(g.N), 4),
		score:      lay.Array(int64(g.N), 4),
		d:          make([]int32, g.N),
		sig:        make([]float64, g.N),
		del:        make([]float64, g.N),
		scores:     make([]float64, g.N),
		next:       make([][]int32, cores),
		sources:    append([]int32(nil), sources...),
		cur:        make([]bcCur, cores),
	}
	for i := 0; i < cores; i++ {
		b.queue = append(b.queue, lay.Array(int64(g.N), 4))
	}
	return b
}

// Name implements Kernel.
func (b *BC) Name() string { return "bc" }

// Score returns v's accumulated centrality (for correctness tests).
func (b *BC) Score(v int32) float64 { return b.scores[v] }

func (b *BC) initSource(src int32) {
	for i := range b.d {
		b.d[i] = -1
		b.sig[i] = 0
		b.del[i] = 0
	}
	b.d[src] = 0
	b.sig[src] = 1
	b.levels = b.levels[:0]
	b.levels = append(b.levels, []int32{src})
	b.level = 0
	b.backward = false
}

// NextPhase implements Kernel: forward phases expand one BFS level each;
// backward phases accumulate one level each, deepest first.
func (b *BC) NextPhase() bool {
	if !b.started {
		if len(b.sources) == 0 {
			return false
		}
		b.started = true
		b.initSource(b.sources[0])
	} else if !b.backward {
		// Forward level finished: gather the next frontier.
		var frontier []int32
		for c := range b.next {
			frontier = append(frontier, b.next[c]...)
			b.next[c] = b.next[c][:0]
		}
		if len(frontier) > 0 {
			b.levels = append(b.levels, frontier)
			b.level++
		} else {
			// Forward done: start the backward sweep from the deepest
			// level with successors.
			b.backward = true
			b.level = int32(len(b.levels)) - 2
			if b.level < 0 {
				if !b.advanceSource() {
					return false
				}
			}
		}
	} else {
		b.level--
		if b.level < 0 {
			if !b.advanceSource() {
				return false
			}
		}
	}

	for c := 0; c < b.cores; c++ {
		lo, hi := sliceRange(c, b.cores, len(b.levels[b.level]))
		b.cur[c] = bcCur{i: lo, hi: hi}
	}
	return true
}

func (b *BC) advanceSource() bool {
	b.srcIdx++
	if b.srcIdx >= len(b.sources) {
		return false
	}
	b.initSource(b.sources[b.srcIdx])
	return true
}

// Fill implements Kernel.
func (b *BC) Fill(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool) {
	if b.backward {
		return b.fillBackward(core, buf, max)
	}
	return b.fillForward(core, buf, max)
}

// fillForward expands the current level, counting shortest paths.
func (b *BC) fillForward(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool) {
	e := b.begin(core, buf, max)
	cur := &b.cur[core]
	frontier := b.levels[b.level]
	for !e.full() {
		if !cur.active {
			if cur.i >= cur.hi {
				return e.buf, false
			}
			cur.u = frontier[cur.i]
			cur.i++
			e.load(b.off, int64(cur.u), 2)
			e.load(b.sigma, int64(cur.u), 1)
			cur.ei, cur.eEnd = b.g.Offsets[cur.u], b.g.Offsets[cur.u+1]
			cur.active = true
		}
		for cur.ei < cur.eEnd && !e.full() {
			v := b.g.Neighbors[cur.ei]
			e.load(b.nbr, cur.ei, 1)
			e.load(b.depth, int64(v), 1)
			e.branch(bfsMispredict)
			switch {
			case b.d[v] == -1:
				b.d[v] = b.level + 1
				b.sig[v] += b.sig[cur.u]
				e.store(b.depth, int64(v), 1)
				e.store(b.sigma, int64(v), 1)
				e.store(b.queue[core], int64(len(b.next[core])), 1)
				b.next[core] = append(b.next[core], v)
			case b.d[v] == b.level+1:
				// Another shortest path into v.
				b.sig[v] += b.sig[cur.u]
				e.load(b.sigma, int64(v), 1)
				e.store(b.sigma, int64(v), 1)
			}
			cur.ei++
		}
		if cur.ei >= cur.eEnd {
			cur.active = false
		}
	}
	return e.buf, true
}

// fillBackward accumulates dependencies for the current level.
func (b *BC) fillBackward(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool) {
	e := b.begin(core, buf, max)
	cur := &b.cur[core]
	frontier := b.levels[b.level]
	for !e.full() {
		if !cur.active {
			if cur.i >= cur.hi {
				return e.buf, false
			}
			cur.u = frontier[cur.i]
			cur.i++
			e.load(b.off, int64(cur.u), 2)
			e.load(b.sigma, int64(cur.u), 1)
			cur.ei, cur.eEnd = b.g.Offsets[cur.u], b.g.Offsets[cur.u+1]
			cur.active = true
		}
		u := cur.u
		for cur.ei < cur.eEnd && !e.full() {
			v := b.g.Neighbors[cur.ei]
			e.load(b.nbr, cur.ei, 1)
			e.load(b.depth, int64(v), 1)
			e.branch(bfsMispredict)
			if b.d[v] == b.d[u]+1 {
				e.load(b.sigma, int64(v), 1)
				e.load(b.delta, int64(v), 1)
				b.del[u] += float64(b.sig[u] / b.sig[v] * (1 + b.del[v])) // unfused (tools/nofma.sh)
				e.store(b.delta, int64(u), 2)
			}
			cur.ei++
		}
		if cur.ei >= cur.eEnd {
			if u != b.sources[b.srcIdx] {
				b.scores[u] += b.del[u]
				e.load(b.score, int64(u), 1)
				e.store(b.score, int64(u), 1)
			}
			cur.active = false
		}
	}
	return e.buf, true
}
