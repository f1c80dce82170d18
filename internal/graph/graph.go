// Package graph provides the compressed-sparse-row graph substrate for
// the GAP benchmark kernels (package gap): CSR construction, synthetic
// uniform and Kronecker (R-MAT) generators as used by the GAP suite, and
// utilities (transpose, neighbor sorting, weights).
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is a directed graph in CSR form. For undirected graphs every
// edge appears in both directions (symmetric CSR), which is how the GAP
// suite stores them.
type Graph struct {
	N         int     // number of vertices
	Offsets   []int64 // len N+1; neighbors of v are Neighbors[Offsets[v]:Offsets[v+1]]
	Neighbors []int32
	Weights   []int32 // nil for unweighted graphs; parallel to Neighbors
}

// Edges returns the number of stored (directed) edges.
func (g *Graph) Edges() int64 { return int64(len(g.Neighbors)) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int32) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neigh returns v's adjacency slice.
func (g *Graph) Neigh(v int32) []int32 {
	return g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighW returns v's adjacency and weight slices.
func (g *Graph) NeighW(v int32) ([]int32, []int32) {
	return g.Neighbors[g.Offsets[v]:g.Offsets[v+1]], g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate reports a descriptive error if the CSR arrays are inconsistent.
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.N > 0 && (g.Offsets[0] != 0 || g.Offsets[g.N] != int64(len(g.Neighbors))) {
		return fmt.Errorf("graph: offsets endpoints [%d,%d], want [0,%d]",
			g.Offsets[0], g.Offsets[g.N], len(g.Neighbors))
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	for _, n := range g.Neighbors {
		if n < 0 || int(n) >= g.N {
			return fmt.Errorf("graph: neighbor %d out of range", n)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Neighbors) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Neighbors))
	}
	return nil
}

// FromEdges builds a CSR graph from an edge list. When symmetric is true
// every edge is inserted in both directions (undirected semantics).
// Self-loops are dropped; duplicate edges are kept (like the GAP loader's
// default).
func FromEdges(n int, edges [][2]int32, symmetric bool) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: vertex count must be positive, got %d", n)
	}
	deg := make([]int64, n+1)
	add := func(u, v int32) error {
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		deg[u+1]++
		return nil
	}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		if err := add(e[0], e[1]); err != nil {
			return nil, err
		}
		if symmetric {
			if err := add(e[1], e[0]); err != nil {
				return nil, err
			}
		}
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	g := &Graph{N: n, Offsets: deg, Neighbors: make([]int32, deg[n])}
	fill := make([]int64, n)
	copy(fill, deg[:n])
	put := func(u, v int32) {
		g.Neighbors[fill[u]] = v
		fill[u]++
	}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		put(e[0], e[1])
		if symmetric {
			put(e[1], e[0])
		}
	}
	return g, nil
}

// Uniform generates an Erdős–Rényi-style graph: n vertices, n×degree
// edges with uniformly random endpoints, symmetrized.
func Uniform(n, degree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int32, 0, n*degree)
	for i := 0; i < n*degree; i++ {
		edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err) // unreachable: generated edges are in range
	}
	return g
}

// Kronecker generates an R-MAT / Kronecker graph with 2^scale vertices
// and edgeFactor × 2^scale edges, using the Graph500/GAP parameters
// (A, B, C) = (0.57, 0.19, 0.19), symmetrized. The skewed degree
// distribution is what gives graph workloads their irregularity.
//
// It panics unless CheckKronecker(scale, edgeFactor) is nil.
func Kronecker(scale, edgeFactor int, seed int64) *Graph {
	if err := CheckKronecker(scale, edgeFactor); err != nil {
		panic(err)
	}
	return kronecker(scale, edgeFactor, rand.NewSource(seed))
}

// CheckKronecker reports why Kronecker cannot generate a graph of the
// given scale and edge factor: vertex ids are int32, and a graph has at
// least one vertex bit and one edge per vertex.
func CheckKronecker(scale, edgeFactor int) error {
	if scale < 1 || scale > 30 {
		return fmt.Errorf("graph: Kronecker scale must be in 1..30, got %d", scale)
	}
	if edgeFactor < 1 {
		return fmt.Errorf("graph: Kronecker edge factor must be positive, got %d", edgeFactor)
	}
	return nil
}

// kronecker is Kronecker over a given draw stream. Every bit of every
// endpoint is one uniform variate r in [0,1) put in a quadrant: r < A
// sets nothing, r < A+B the bit of v, r < A+B+C the bit of u, the rest
// both. The variates are those of rand.New(src).Float64() —
// float64(Int63())/2^63, redrawn when that rounds to 1 — but the
// conversion is monotonic, so the raw draw is compared with the smallest
// integer that converts to each bound (cutPoint) instead: no conversion,
// no divide, and no four-way branch for a predictor to guess.
func kronecker(scale, edgeFactor int, src rand.Source) *Graph {
	n := 1 << scale
	const a, b, c = 0.57, 0.19, 0.19
	q := rmatCuts{cutPoint(a), cutPoint(a + b), cutPoint(a + b + c)}
	redraw := cutPoint(1)
	mask := uint64(n - 1)
	edges := make([][2]int32, n*edgeFactor)
	for i := range edges {
		var nu, nv uint64 // the complements of u and v, see quadrant
		for bit := 0; bit < scale; bit++ {
			x := uint64(src.Int63())
			for x >= redraw {
				x = uint64(src.Int63())
			}
			bu, bv := q.quadrant(x)
			nu |= bu << bit
			nv |= bv << bit
		}
		edges[i] = [2]int32{int32(^nu & mask), int32(^nv & mask)}
	}
	// Permute vertex labels so degree does not correlate with index. Perm
	// draws from the same source, where the edges left it.
	perm := rand.New(src).Perm(n)
	for i := range edges {
		edges[i][0] = int32(perm[edges[i][0]])
		edges[i][1] = int32(perm[edges[i][1]])
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err)
	}
	return g
}

// cutPoint returns the smallest 63-bit draw x whose uniform variate
// float64(x)/2^63 is at least p, for p in (0,1]: a draw's variate is
// below p exactly when the draw is below cutPoint(p). cutPoint(1) is the
// first draw Float64 rejects.
func cutPoint(p float64) uint64 {
	lo, hi := int64(0), int64(math.MaxInt64) // float64(hi)/2^63 is 1
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// rmatCuts are the cut points of the three quadrant bounds A, A+B and
// A+B+C.
type rmatCuts struct{ a, ab, abc uint64 }

// quadrant classifies one accepted draw, returning the complements of
// the bits it gives u and v. Draw and cuts are below 2^63, so the top
// bit of draw - cut is the borrow: the draw is below the cut. u's bit is
// set from A+B up, v's in the second and fourth quadrants — after an odd
// number of cuts.
func (q rmatCuts) quadrant(x uint64) (nu, nv uint64) {
	return (x - q.ab) >> 63, ((x - q.a) ^ (x - q.ab) ^ (x - q.abc)) >> 63
}

// AddUniformWeights attaches uniformly random integer weights in
// [1, maxW] to every edge (for sssp). Symmetric edge pairs may get
// different weights, which sssp tolerates.
func (g *Graph) AddUniformWeights(maxW int32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.Weights = make([]int32, len(g.Neighbors))
	for i := range g.Weights {
		g.Weights[i] = 1 + int32(rng.Int63n(int64(maxW)))
	}
}

// SortNeighbors sorts every adjacency list ascending (required by the
// merge-based triangle count).
func (g *Graph) SortNeighbors() {
	for v := 0; v < g.N; v++ {
		nb := g.Neigh(int32(v))
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
}

// Dedup sorts every adjacency list and removes duplicate neighbors,
// rebuilding the CSR arrays (weights, if present, keep the first copy).
// Triangle counting requires a simple graph.
func (g *Graph) Dedup() {
	newOff := make([]int64, g.N+1)
	newNbr := g.Neighbors[:0]
	var newWgt []int32
	if g.Weights != nil {
		newWgt = g.Weights[:0]
	}
	// In-place compaction is safe: the write cursor never passes the
	// read cursor because deduplication only removes entries.
	pos := int64(0)
	for v := 0; v < g.N; v++ {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		nb := g.Neighbors[lo:hi]
		var wt []int32
		if g.Weights != nil {
			wt = g.Weights[lo:hi]
		}
		sort.Sort(&nbrSorter{nb, wt})
		newOff[v] = pos
		var prev int32 = -1
		for i, u := range nb {
			if u == prev {
				continue
			}
			prev = u
			newNbr = append(newNbr, u)
			if wt != nil {
				newWgt = append(newWgt, wt[i])
			}
			pos++
		}
	}
	newOff[g.N] = pos
	g.Offsets = newOff
	g.Neighbors = newNbr[:pos:pos]
	if g.Weights != nil {
		g.Weights = newWgt[:pos:pos]
	}
}

// nbrSorter sorts an adjacency slice and its parallel weights together.
type nbrSorter struct {
	nb []int32
	wt []int32
}

func (s *nbrSorter) Len() int           { return len(s.nb) }
func (s *nbrSorter) Less(i, j int) bool { return s.nb[i] < s.nb[j] }
func (s *nbrSorter) Swap(i, j int) {
	s.nb[i], s.nb[j] = s.nb[j], s.nb[i]
	if s.wt != nil {
		s.wt[i], s.wt[j] = s.wt[j], s.wt[i]
	}
}

// Transpose returns the reverse graph (for pull-based kernels on
// directed graphs; symmetric graphs are their own transpose).
func (g *Graph) Transpose() *Graph {
	deg := make([]int64, g.N+1)
	for _, v := range g.Neighbors {
		deg[v+1]++
	}
	for v := 0; v < g.N; v++ {
		deg[v+1] += deg[v]
	}
	t := &Graph{N: g.N, Offsets: deg, Neighbors: make([]int32, len(g.Neighbors))}
	if g.Weights != nil {
		t.Weights = make([]int32, len(g.Weights))
	}
	fill := make([]int64, g.N)
	copy(fill, deg[:g.N])
	for u := 0; u < g.N; u++ {
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			v := g.Neighbors[i]
			t.Neighbors[fill[v]] = int32(u)
			if g.Weights != nil {
				t.Weights[fill[v]] = g.Weights[i]
			}
			fill[v]++
		}
	}
	return t
}
