package gap

import (
	"math"

	"dramstacks/internal/cpu"
	"dramstacks/internal/graph"
)

// PR is the GAP pull-based PageRank: per iteration, a contribution phase
// (contrib[v] = rank[v]/degree[v], streaming) and a gather phase
// (rank[v] = base + damping × Σ contrib[u] over in-neighbors, streaming
// over CSR with irregular contrib reads), until the L1 error drops below
// the tolerance or MaxIters is reached.
type PR struct {
	kernelBase
	rank    Array // 4 B score per vertex
	contrib Array

	ranks   []float64
	contr   []float64
	newRank []float64

	damping   float64
	tolerance float64
	MaxIters  int

	iter    int
	gather  bool // false: contribution phase, true: gather phase
	started bool
	err     []float64 // per-core error accumulators
	cur     []prCur
	done    bool
	iters   int
}

type prCur struct {
	v, hi    int32
	ei, eEnd int64
	sum      float64
	active   bool
}

// NewPR builds the kernel.
func NewPR(g *graph.Graph, cores int, lay *Layout) *PR {
	p := &PR{
		kernelBase: newKernelBase(g, cores, lay, 202),
		rank:       lay.Array(int64(g.N), 4),
		contrib:    lay.Array(int64(g.N), 4),
		ranks:      make([]float64, g.N),
		contr:      make([]float64, g.N),
		newRank:    make([]float64, g.N),
		damping:    0.85,
		tolerance:  1e-4,
		MaxIters:   10,
		err:        make([]float64, cores),
		cur:        make([]prCur, cores),
	}
	for i := range p.ranks {
		p.ranks[i] = 1 / float64(g.N)
	}
	return p
}

// Name implements Kernel.
func (p *PR) Name() string { return "pr" }

// Rank returns vertex v's final score (for correctness tests).
func (p *PR) Rank(v int32) float64 { return p.ranks[v] }

// Iterations returns how many full iterations ran.
func (p *PR) Iterations() int { return p.iters }

// NextPhase implements Kernel: phases alternate contribution and gather.
func (p *PR) NextPhase() bool {
	if p.done {
		return false
	}
	if !p.started {
		p.started = true
		p.gather = false
	} else if !p.gather {
		p.gather = true
	} else {
		// A gather phase just finished: evaluate convergence.
		var errSum float64
		for c := range p.err {
			errSum += p.err[c]
			p.err[c] = 0
		}
		p.ranks, p.newRank = p.newRank, p.ranks
		p.iters++
		p.iter++
		if errSum < p.tolerance || p.iter >= p.MaxIters {
			p.done = true
			return false
		}
		p.gather = false
	}
	for c := 0; c < p.cores; c++ {
		lo, hi := p.vertexRange(c, p.g.N)
		p.cur[c] = prCur{v: lo, hi: hi}
	}
	return true
}

// Fill implements Kernel.
func (p *PR) Fill(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool) {
	if p.gather {
		return p.fillGather(core, buf, max)
	}
	return p.fillContrib(core, buf, max)
}

// fillContrib streams contrib[v] = rank[v] / degree[v].
func (p *PR) fillContrib(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool) {
	e := p.begin(core, buf, max)
	cur := &p.cur[core]
	for !e.full() {
		if cur.v >= cur.hi {
			return e.buf, false
		}
		v := cur.v
		cur.v++
		e.load(p.rank, int64(v), 1)
		e.load(p.off, int64(v), 1)
		deg := p.g.Degree(v)
		if deg > 0 {
			p.contr[v] = p.ranks[v] / float64(deg)
		} else {
			p.contr[v] = 0
		}
		e.store(p.contrib, int64(v), 3)
	}
	return e.buf, true
}

// fillGather pulls neighbor contributions and writes the new rank.
func (p *PR) fillGather(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool) {
	e := p.begin(core, buf, max)
	cur := &p.cur[core]
	base := (1 - p.damping) / float64(p.g.N)
	for !e.full() {
		if !cur.active {
			if cur.v >= cur.hi {
				return e.buf, false
			}
			e.load(p.off, int64(cur.v), 2)
			cur.ei, cur.eEnd = p.g.Offsets[cur.v], p.g.Offsets[cur.v+1]
			cur.sum = 0
			cur.active = true
		}
		for cur.ei < cur.eEnd && !e.full() {
			u := p.g.Neighbors[cur.ei]
			e.load(p.nbr, cur.ei, 1)
			e.load(p.contrib, int64(u), 2)
			cur.sum += p.contr[u]
			cur.ei++
		}
		if cur.ei >= cur.eEnd {
			v := cur.v
			nr := base + float64(p.damping*cur.sum) // unfused (tools/nofma.sh): p.err decides convergence
			p.newRank[v] = nr
			p.err[core] += math.Abs(nr - p.ranks[v])
			e.store(p.rank, int64(v), 4)
			cur.active = false
			cur.v++
		}
	}
	return e.buf, true
}
