package exp

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dramstacks/internal/graph"
)

// cachedGraphs counts the cache's unprepared graphs of one scale.
func cachedGraphs(scale int) int {
	graphs.mu.Lock()
	defer graphs.mu.Unlock()
	n := 0
	for k := range graphs.index {
		if k.scale == scale && k.variant == "" {
			n++
		}
	}
	return n
}

// TestBuildGraphSharesAcrossKernels runs bfs and pr concurrently at a
// scale no other test uses: gap.Prepare does nothing for either, so they
// must generate once and simulate over one graph.
func TestBuildGraphSharesAcrossKernels(t *testing.T) {
	const scale = 11
	var wg sync.WaitGroup
	for _, w := range []string{"bfs", "pr", "bfs", "pr"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunSpec(context.Background(), Spec{Workload: w, Cores: 2, Scale: scale, Budget: 4_000}, RunOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := cachedGraphs(scale); n != 1 {
		t.Errorf("bfs and pr at one scale and seed cached %d graphs, want 1", n)
	}
	bfs, err := buildGraph("bfs", scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"pr", "cc", "bc"} {
		if g, err := buildGraph(bench, scale); err != nil || g != bfs {
			t.Errorf("%s does not share bfs's graph (%p, %p, %v)", bench, g, bfs, err)
		}
	}
	for _, bench := range []string{"sssp", "tc"} {
		if g, err := buildGraph(bench, scale); err != nil || g == bfs {
			t.Errorf("%s shares the graph bfs reads, though Prepare changes it (%v)", bench, err)
		}
	}
	if _, err := buildGraph("nosuch", scale); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := buildGraph("bfs", 31); err == nil {
		t.Error("scale 31 accepted")
	}
}

// TestBuildGraphCachedKeyDoesNotWait asks for a cached graph while
// another key is being generated: the map lock is not held across
// generation, so the cached one is returned before the other is done.
func TestBuildGraphCachedKeyDoesNotWait(t *testing.T) {
	cached, err := buildGraph("bfs", 5)
	if err != nil {
		t.Fatal(err)
	}
	const big = 16 // a scale no other test uses: ≈ 0.1 s of generation, far more under -race
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := buildGraph("bfs", big); err != nil {
			t.Error(err)
		}
	}()
	for cachedGraphs(big) == 0 { // big's entry is inserted before it generates
		runtime.Gosched()
	}
	g, err := buildGraph("bfs", 5)
	if err != nil || g != cached {
		t.Fatalf("cached graph not returned: %p, want %p (%v)", g, cached, err)
	}
	select {
	case <-done:
		t.Error("the cached graph was returned only after the other key had finished generating")
	default:
	}
	<-done
}

// TestBuildGraphCacheIsBounded serves more graphs than the budget holds,
// as a daemon asked for GAP kernels at one scale after another does: the
// cache must drop the least recently used — a graph asked for again in
// between is not that — and never hold more than its budget. A job that
// has a dropped graph keeps it, and asking for it again generates an
// equal one. A graph larger than the whole budget is served and not kept,
// and costs the others nothing.
func TestBuildGraphCacheIsBounded(t *testing.T) {
	key := func(scale int) graphKey { return graphKey{scale: scale} }
	size := func(scale int) int64 { return graphBytes(graph.Kronecker(scale, graphDegree, graphSeed)) }
	c := newGraphLRU(size(8) + size(9) + size(10))
	held := func() (scales []int) { // most recently used first
		c.mu.Lock()
		defer c.mu.Unlock()
		var sum int64
		for el := c.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*graphEntry)
			scales = append(scales, e.key.scale)
			sum += e.bytes
		}
		if sum != c.bytes || sum > c.budget || len(c.index) != c.ll.Len() {
			t.Errorf("the cache accounts %d bytes for %d entries holding %d (budget %d, %d indexed)",
				c.bytes, c.ll.Len(), sum, c.budget, len(c.index))
		}
		return scales
	}
	get := func(scale int) *graph.Graph {
		t.Helper()
		g, err := c.get(key(scale), "bfs")
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g8, _, g10 := get(8), get(9), get(10)
	if get(8) != g8 {
		t.Error("a cached graph was generated again")
	}
	if got := held(); !reflect.DeepEqual(got, []int{8, 10, 9}) {
		t.Fatalf("after 8, 9, 10, 8 the cache holds %v, most recent first", got)
	}
	get(7) // 9 must go: the least recently used, not the oldest or the largest
	if got := held(); !reflect.DeepEqual(got, []int{7, 8, 10}) {
		t.Errorf("after one graph too many the cache holds %v, want 9 dropped", got)
	}
	get(9)
	if got := held(); !reflect.DeepEqual(got, []int{9, 7, 8}) {
		t.Errorf("the cache holds %v, want 10 dropped for 9", got)
	}
	again := get(10)
	if again == g10 {
		t.Error("a dropped graph is still served from the cache")
	}
	if !reflect.DeepEqual(again, g10) {
		t.Error("a dropped key generated a different graph")
	}
	before := held()
	if g := get(12); graphBytes(g) <= c.budget {
		t.Fatalf("scale 12 is %d bytes, not beyond the budget of %d", graphBytes(g), c.budget)
	}
	if got := held(); !reflect.DeepEqual(got, before) {
		t.Errorf("a graph beyond the budget changed the cache from %v to %v", before, got)
	}
}
