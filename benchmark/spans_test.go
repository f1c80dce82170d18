package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRecorderTracksTheCausingSpan(t *testing.T) {
	r := newRecorder(8)
	r.cycle = 42
	root := r.begin(layerLoop)
	a := r.begin(layerCPU)
	b := r.begin(layerCache)
	r.end(b)
	r.end(a)
	c := r.begin(layerMemctrl)
	r.end(c)
	r.end(root)
	wantParent := []int32{-1, root, a, root}
	for i, s := range r.spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, s.parent, wantParent[i])
		}
		if s.cycle != 42 {
			t.Errorf("span %d: identifier %d, want 42", i, s.cycle)
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if r.open != -1 {
		t.Errorf("open span after the root ended: %d", r.open)
	}
}

// A layer's self time is its span minus its children, minus the timer
// calls inside it.
func TestSelfTimesNestingAndTimerCost(t *testing.T) {
	// loop [0,1000] > cpu [100,600] > cache [200,500] > memctrl [250,350]
	//               > memctrl [700,900]
	spans := []span{
		{layer: layerLoop, parent: -1, cycle: 1, start: 0, end: 1000},
		{layer: layerCPU, parent: 0, cycle: 1, start: 100, end: 600},
		{layer: layerCache, parent: 1, cycle: 1, start: 200, end: 500},
		{layer: layerMemctrl, parent: 2, cycle: 1, start: 250, end: 350},
		{layer: layerMemctrl, parent: 0, cycle: 1, start: 700, end: 900},
	}
	self := selfTimes(spans, timerCost{}, nil)
	want := [numLayers]float64{layerLoop: 300, layerCPU: 200, layerCache: 200, layerMemctrl: 300}
	if self != want {
		t.Errorf("without timer cost: %v, want %v", self, want)
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("self times add up to %v, want the root's 1000", sum)
	}

	// One span costs 30 ns, 10 of them between its own start and end: a
	// span loses 10, and 20 more per direct child.
	self = selfTimes(spans, timerCost{total: 30, inner: 10}, nil)
	want = [numLayers]float64{
		layerLoop:    300 - 10 - 2*20,
		layerCPU:     200 - 10 - 20,
		layerCache:   200 - 10 - 20,
		layerMemctrl: (100 - 10) + (200 - 10),
	}
	if self != want {
		t.Errorf("with timer cost: %v, want %v", self, want)
	}

	// A dropped cycle contributes nothing.
	if got := selfTimes(spans, timerCost{}, map[int64]bool{1: true}); got != [numLayers]float64{} {
		t.Errorf("dropped cycle still counted: %v", got)
	}
}

// analyze measures the span cost in place, so the layers' self times add
// up to the untraced loop's time per cycle, and drops cycles beyond the
// 99th percentile.
func TestAnalyzeAddsUpToTheUntracedLoop(t *testing.T) {
	const refNS, cost, inner = 500.0, 40.0, 10.0
	var spans []span
	clock := int64(0)
	for c := int64(0); c < 200; c++ {
		// Each cycle: 200 ns of loop, a 300 ns cpu span, and their timers.
		root := int32(len(spans))
		start := clock
		cpuStart := start + 100 + int64(cost-inner)/2
		cpuEnd := cpuStart + 300 + inner
		end := cpuEnd + int64(cost-inner)/2 + 100 + inner
		if c == 77 {
			end += 1_000_000 // the host was away during this cycle
		}
		spans = append(spans,
			span{layer: layerLoop, parent: -1, cycle: c, start: start, end: end},
			span{layer: layerCPU, parent: root, cycle: c, start: cpuStart, end: cpuEnd})
		clock = end + 50
	}
	a := analyze(spans, timerCost{total: 80, inner: 20}, refNS)
	if math.Abs(a.timerNS-cost) > 1e-9 {
		t.Errorf("span cost measured in place = %v, want %v", a.timerNS, cost)
	}
	if math.Abs(a.selfNS[layerCPU]-300) > 1e-9 || math.Abs(a.selfNS[layerLoop]-200) > 1e-9 {
		t.Errorf("self times %v, want cpu 300 and loop 200", a.selfNS)
	}
	if want := refNS / (refNS + cost + inner); math.Abs(a.coverage-want) > 1e-9 {
		t.Errorf("coverage %v, want %v", a.coverage, want)
	}
	if (analyze(nil, timerCost{total: 80, inner: 20}, refNS) != analysis{}) {
		t.Error("no spans, yet an analysis")
	}
}

func TestCalibrateIsPositiveAndOrdered(t *testing.T) {
	tc := calibrate()
	if tc.total <= 0 || tc.inner <= 0 || tc.inner > tc.total {
		t.Errorf("calibrate() = %+v", tc)
	}
}

func TestWriteSpansOneLineEach(t *testing.T) {
	var buf bytes.Buffer
	err := writeSpans(&buf, []span{
		{layer: layerLoop, parent: -1, cycle: 7, start: 1, end: 9},
		{layer: layerMemctrl, parent: 0, cycle: 7, start: 2, end: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"span":0,"cycle":7,"layer":"loop","parent":-1,"start_ns":1,"end_ns":9}
{"span":1,"cycle":7,"layer":"memctrl","parent":0,"start_ns":2,"end_ns":5}
`
	if buf.String() != want {
		t.Errorf("got\n%s\nwant\n%s", buf.String(), want)
	}
	if strings.Count(buf.String(), "\n") != 2 {
		t.Error("not one line per span")
	}
}
