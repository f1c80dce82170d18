package gap

import (
	"fmt"

	"dramstacks/internal/graph"
)

// Benchmarks lists the GAP kernel names in the paper's Fig. 9 order.
func Benchmarks() []string { return []string{"bc", "bfs", "cc", "pr", "sssp", "tc"} }

// PickSource returns a deterministic, well-connected source vertex: the
// first vertex whose degree is at least the average (GAP samples random
// non-trivial sources; a fixed one keeps experiments reproducible).
func PickSource(g *graph.Graph) int32 {
	if g.N == 0 {
		return 0
	}
	avg := g.Edges() / int64(g.N)
	for v := 0; v < g.N; v++ {
		if g.Degree(int32(v)) >= avg && g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	return 0
}

// Variant names the form of the graph the named kernel runs on: "" for
// the graph as generated (bfs, pr, cc, bc), else the kernel Prepare
// changes it for. Kernels of one variant can share one prepared graph.
func Variant(name string) (string, error) {
	switch name {
	case "sssp", "tc":
		return name, nil
	case "bfs", "pr", "cc", "bc":
		return "", nil
	}
	return "", fmt.Errorf("gap: unknown benchmark %q (have %v)", name, Benchmarks())
}

// Prepare mutates g as the named kernel requires: uniform weights for
// sssp, a deduplicated sorted-adjacency simple graph for tc. Call it
// once per graph before Build; it is idempotent but not safe to run
// concurrently with kernels reading the graph.
func Prepare(name string, g *graph.Graph) error {
	v, err := Variant(name)
	if err != nil {
		return err
	}
	switch v {
	case "sssp":
		if g.Weights == nil {
			g.AddUniformWeights(64, 7)
		}
	case "tc":
		g.Dedup()
	}
	return nil
}

// Build constructs the named kernel over a prepared graph (see Prepare)
// for the given core count and returns a ready Runner. Build does not
// mutate the graph, so concurrent Builds over one shared graph are safe.
func Build(name string, g *graph.Graph, cores int) (*Runner, Kernel, error) {
	lay := NewLayout(0)
	var k Kernel
	switch name {
	case "bfs":
		k = NewBFS(g, cores, lay, []int32{PickSource(g)})
	case "pr":
		k = NewPR(g, cores, lay)
	case "cc":
		k = NewCC(g, cores, lay)
	case "bc":
		k = NewBC(g, cores, lay, []int32{PickSource(g)})
	case "sssp":
		if g.Weights == nil {
			return nil, nil, fmt.Errorf("gap: sssp needs a prepared (weighted) graph; call Prepare first")
		}
		k = NewSSSP(g, cores, lay, PickSource(g))
	case "tc":
		k = NewTC(g, cores, lay)
	default:
		return nil, nil, fmt.Errorf("gap: unknown benchmark %q (have %v)", name, Benchmarks())
	}
	r, err := NewRunner(k, cores)
	if err != nil {
		return nil, nil, err
	}
	return r, k, nil
}
