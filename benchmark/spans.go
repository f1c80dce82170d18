package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// layer names a module of the simulator a span can belong to. The seams
// are the calls the benchmark's own shims make into each layer's public
// functions; memctrl includes dram, stacks and addrmap beneath it, which
// have no public seam between them.
type layer uint8

const (
	layerLoop layer = iota // one simulated memory cycle of the benchmark's loop
	layerCPU
	layerWorkload
	layerCache
	layerMemctrl
	numLayers
)

var layerNames = [numLayers]string{"loop", "cpu", "workload", "cache", "memctrl"}

// span is one timed call across a seam: which layer, when, and the span
// that caused it. Spans of one simulated memory cycle share its number
// as their identifier.
type span struct {
	layer      layer
	parent     int32 // index of the causing span, -1 for a root
	cycle      int64
	start, end int64 // host ns since the recorder's epoch
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 for none
	cycle int64 // identifier given to new spans
}

// newRecorder returns a recorder with room for capacity spans. The room
// is written once up front, so that recording a span later never waits
// for the operating system to hand over a fresh page.
func newRecorder(capacity int) *recorder {
	spans := make([]span, capacity)
	for i := range spans {
		spans[i].parent = -1
	}
	return &recorder{epoch: time.Now(), spans: spans[:0], open: -1}
}

func (r *recorder) begin(l layer) int32 {
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{layer: l, parent: r.open, cycle: r.cycle})
	r.open = i
	r.spans[i].start = int64(time.Since(r.epoch))
	return i
}

func (r *recorder) end(i int32) {
	s := &r.spans[i]
	s.end = int64(time.Since(r.epoch))
	r.open = s.parent
}

// timerCost is the price of recording one span: total is the host time
// an empty span takes from its caller, inner the part of it that falls
// between the span's own start and end.
type timerCost struct{ total, inner float64 }

// calibrate measures timerCost by recording empty spans back to back. It
// is the best case — everything the timer touches is in the processor's
// caches — so the traced run only takes the inner/total split from it
// and measures the total in place (see analyze).
func calibrate() timerCost {
	const n = 20000
	best := timerCost{}
	for round := 0; round < 5; round++ {
		r := newRecorder(n + 1)
		root := r.begin(layerLoop)
		for i := 0; i < n; i++ {
			r.end(r.begin(layerCPU))
		}
		r.end(root)
		var inner float64
		for _, s := range r.spans[1:] {
			inner += float64(s.end - s.start)
		}
		c := timerCost{
			total: float64(r.spans[0].end-r.spans[0].start) / n,
			inner: inner / n,
		}
		if round == 0 || c.total < best.total {
			best = c
		}
	}
	return best
}

// selfTimes returns, per layer, the sum of its spans' self times: a
// span's duration minus what its direct children cover, minus the timer
// calls inside it. A span's own duration contains tc.inner of timer; each
// direct child adds, beyond its own duration, the tc.total-tc.inner of
// its bracket that falls outside it. Spans of the cycles in dropped are
// left out.
func selfTimes(spans []span, tc timerCost, dropped map[int64]bool) (self [numLayers]float64) {
	childDur := make([]float64, len(spans))
	childN := make([]float64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childDur[s.parent] += float64(s.end - s.start)
			childN[s.parent]++
		}
	}
	outer := tc.total - tc.inner
	for i, s := range spans {
		if !dropped[s.cycle] {
			self[s.layer] += float64(s.end-s.start) - tc.inner - childDur[i] - childN[i]*outer
		}
	}
	return self
}

// analysis is what a traced run's spans say about where the host time of
// a simulated memory cycle goes.
type analysis struct {
	selfNS   [numLayers]float64 // per layer, host ns per memory cycle
	timerNS  float64            // cost of one span, measured in place
	coverage float64            // sum of self times / traced wall
}

// analyze turns spans into per-layer self times per memory cycle.
//
// Cycles slower than the 99th percentile are dropped first: a garbage
// collection or a descheduling that lands in one traced cycle would
// otherwise be charged to whichever span was open.
//
// The cost of one span is then measured in place rather than taken from
// calibrate: the traced cycles take (wall - refNS) longer than the same
// loop's untraced cycles, tracing adds nothing but spans, so that excess
// divided by the spans recorded is what one span cost here, cache misses
// of the recorder included. Only the inner/total split comes from
// calibrate, which is also the fallback if the traced cycles were not
// slower at all (the two runs' speeds drifted apart). The self times of
// all layers then add up to refNS.
func analyze(spans []span, best timerCost, refNS float64) analysis {
	var roots []float64
	for _, s := range spans {
		if s.layer == layerLoop {
			roots = append(roots, float64(s.end-s.start))
		}
	}
	if len(roots) == 0 {
		return analysis{}
	}
	limit := percentile(roots, 99)
	dropped := map[int64]bool{}
	var wall, cycles, inside float64
	for _, s := range spans {
		if s.layer == layerLoop && float64(s.end-s.start) > limit {
			dropped[s.cycle] = true
		}
	}
	for _, s := range spans {
		switch {
		case dropped[s.cycle]:
		case s.layer == layerLoop:
			wall += float64(s.end - s.start)
			cycles++
		default:
			inside++
		}
	}
	split := best.inner / best.total
	tc := best
	if total := (wall - refNS*cycles) / (inside + split*cycles); total > 0 {
		tc = timerCost{total: total, inner: split * total}
	}
	a := analysis{timerNS: tc.total}
	var sum float64
	for l, ns := range selfTimes(spans, tc, dropped) {
		a.selfNS[l] = ns / cycles
		sum += ns
	}
	a.coverage = sum / wall
	return a
}

// writeSpans writes one line per span: identifier, layer, parent, start
// and end.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for i, s := range spans {
		if _, err := fmt.Fprintf(bw, `{"span":%d,"cycle":%d,"layer":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.cycle, layerNames[s.layer], s.parent, s.start, s.end); err != nil {
			return err
		}
	}
	return bw.Flush()
}
