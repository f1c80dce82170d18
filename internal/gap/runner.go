// Package gap implements the six GAP benchmark kernels (Beamer et al.)
// as instruction-stream generators for the simulated cores: bfs
// (direction-optimizing breadth-first search), pr (pull PageRank), cc
// (Shiloach-Vishkin connected components), bc (Brandes betweenness
// centrality), sssp (frontier-based single-source shortest paths) and tc
// (merge-based triangle counting).
//
// Each kernel runs the real algorithm over a real in-memory CSR graph;
// every data-structure access it performs is also emitted as a load or
// store at that structure's simulated address, so the cores present the
// genuine mix of streaming (CSR offsets/neighbors) and irregular
// (per-vertex property) traffic that makes graph workloads memory bound.
//
// Kernels are phase-parallel: vertices are partitioned over cores, and
// cores synchronize at phase barriers (BFS levels, PageRank iterations,
// relaxation rounds). A core that reaches a barrier early emits stall
// items (cpu.KindStall) until the others catch up, which the cycle
// stacks report as idle time — the paper's Fig. 7 shows exactly this for
// the low-parallelism phase of bfs. The sources are cpu.BarrierSources:
// the last arrival wakes the others, so a core need not poll meanwhile.
package gap

import (
	"fmt"

	"dramstacks/internal/cpu"
)

// Kernel is one GAP benchmark, generated phase by phase.
type Kernel interface {
	// Name returns the GAP short name (bfs, pr, cc, bc, sssp, tc).
	Name() string
	// NextPhase advances the algorithm to its next parallel phase,
	// returning false when the algorithm has completed. It is called
	// once before the first Fill and then every time all cores have
	// drained the current phase.
	NextPhase() bool
	// Fill appends up to max instruction items of core's share of the
	// current phase to buf and reports whether the core still has work
	// remaining in this phase.
	Fill(core int, buf []cpu.Instr, max int) ([]cpu.Instr, bool)
}

// chunk is how many instruction items a source buffers per refill.
const chunk = 4096

// Runner coordinates one kernel across cores with barrier semantics and
// hands out one cpu.Source per core.
type Runner struct {
	k     Kernel
	cores int

	bufs    [][]cpu.Instr
	pos     []int
	barrier []bool
	wake    []func() // per core, nil unless its consumer asked (OnRelease)
	waiting int
	done    bool
	phases  int
}

// NewRunner prepares a kernel for the given core count.
func NewRunner(k Kernel, cores int) (*Runner, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("gap: cores must be positive, got %d", cores)
	}
	r := &Runner{
		k:       k,
		cores:   cores,
		bufs:    make([][]cpu.Instr, cores),
		pos:     make([]int, cores),
		barrier: make([]bool, cores),
		wake:    make([]func(), cores),
	}
	if !k.NextPhase() {
		r.done = true
	} else {
		r.phases = 1
	}
	return r, nil
}

// MustNewRunner is NewRunner for known-good arguments.
func MustNewRunner(k Kernel, cores int) *Runner {
	r, err := NewRunner(k, cores)
	if err != nil {
		panic(err)
	}
	return r
}

// Phases returns how many phases have been started so far.
func (r *Runner) Phases() int { return r.phases }

// Sources returns the per-core instruction sources.
func (r *Runner) Sources() []cpu.Source {
	out := make([]cpu.Source, r.cores)
	for i := range out {
		out[i] = &coreSource{r: r, core: i}
	}
	return out
}

type coreSource struct {
	r    *Runner
	core int
}

var stall = cpu.Instr{Kind: cpu.KindStall}

// OnRelease implements cpu.BarrierSource. The promise holds because a
// core at the barrier has drained its buffer and Next then only reads
// the runner's state until release changes it.
func (s *coreSource) OnRelease(wake func()) { s.r.wake[s.core] = wake }

// release ends the barrier: the next phase is open, or the kernel is
// over. The caller is the last arrival; waking it too is harmless.
func (r *Runner) release() {
	for i := range r.barrier {
		r.barrier[i] = false
		if r.wake[i] != nil {
			r.wake[i]()
		}
	}
	r.waiting = 0
}

// Next implements cpu.Source.
func (s *coreSource) Next() (cpu.Instr, bool) {
	r := s.r
	c := s.core
	for {
		if r.pos[c] < len(r.bufs[c]) {
			ins := r.bufs[c][r.pos[c]]
			r.pos[c]++
			return ins, true
		}
		if r.done {
			return cpu.Instr{}, false
		}
		if !r.barrier[c] {
			// Refill from the current phase.
			buf, more := r.k.Fill(c, r.bufs[c][:0], chunk)
			r.bufs[c] = buf
			r.pos[c] = 0
			if len(buf) > 0 {
				continue
			}
			if more {
				// Kernel promised more but produced nothing: treat as
				// phase-exhausted to guarantee progress.
				more = false
			}
			r.barrier[c] = true
			r.waiting++
		}
		// At the barrier: last arrival opens the next phase.
		if r.waiting == r.cores {
			if r.k.NextPhase() {
				r.phases++
			} else {
				r.done = true
			}
			r.release()
			continue
		}
		return stall, true
	}
}
