package exp

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// cachedGraphs counts the cache's unprepared graphs of one scale.
func cachedGraphs(scale int) int {
	graphMu.Lock()
	defer graphMu.Unlock()
	n := 0
	for k := range graphCache {
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
	spec := DefaultGap("bfs", 2)
	spec.Scale = scale
	bfs, err := buildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"pr", "cc", "bc"} {
		spec.Bench = bench
		if g, err := buildGraph(spec); err != nil || g != bfs {
			t.Errorf("%s does not share bfs's graph (%p, %p, %v)", bench, g, bfs, err)
		}
	}
	for _, bench := range []string{"sssp", "tc"} {
		spec.Bench = bench
		if g, err := buildGraph(spec); err != nil || g == bfs {
			t.Errorf("%s shares the graph bfs reads, though Prepare changes it (%v)", bench, err)
		}
	}
	spec.Bench = "nosuch"
	if _, err := buildGraph(spec); err == nil {
		t.Error("unknown kernel accepted")
	}
	spec.Bench, spec.Scale = "bfs", 31
	if _, err := buildGraph(spec); err == nil {
		t.Error("scale 31 accepted")
	}
}

// TestBuildGraphCachedKeyDoesNotWait asks for a cached graph while
// another key is being generated: the map lock is not held across
// generation, so the cached one is returned before the other is done.
func TestBuildGraphCachedKeyDoesNotWait(t *testing.T) {
	small := DefaultGap("bfs", 1)
	small.Scale = 5
	cached, err := buildGraph(small)
	if err != nil {
		t.Fatal(err)
	}
	big := DefaultGap("bfs", 1)
	big.Scale, big.Seed = 16, 977 // ≈ 0.1 s of generation, far more under -race
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := buildGraph(big); err != nil {
			t.Error(err)
		}
	}()
	for cachedGraphs(big.Scale) == 0 { // big's entry is inserted before it generates
		runtime.Gosched()
	}
	g, err := buildGraph(small)
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
