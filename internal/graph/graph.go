// Package graph provides the compressed-sparse-row graph substrate for
// the GAP benchmark kernels (package gap): CSR construction, synthetic
// uniform and Kronecker (R-MAT) generators as used by the GAP suite, and
// utilities (transpose, neighbor sorting, weights).
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
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
// default). A vertex's neighbours are in edge-list order.
//
// With more than one processor and at least edgeRange edges a half, the
// two halves of the list are built in parallel, see fromEdges.
func FromEdges(n int, edges [][2]int32, symmetric bool) (*Graph, error) {
	split := len(edges)
	if len(edges) >= 2*edgeRange && runtime.GOMAXPROCS(0) > 1 {
		split = len(edges) / 2
	}
	return fromEdges(n, edges, symmetric, split)
}

// edgeRange is the fewest edges FromEdges gives a range of its own.
const edgeRange = 1 << 14

// fromEdges is FromEdges over two ranges, edges[:split] and
// edges[split:], which count degrees and then place neighbours in
// parallel: a stable counting sort, so the CSR does not depend on split.
// The first range counts into deg and the second into fill; a prefix sum
// turns them into each range's cursors, the first starting where v's
// neighbours start and the second after the first's count. Placing
// leaves the second range's cursor at the next vertex's start, which is
// v's end offset.
func fromEdges(n int, edges [][2]int32, symmetric bool, split int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: vertex count must be positive, got %d", n)
	}
	deg := make([]int64, n+1)
	fill := make([]int64, n)
	ranges := [2][][2]int32{edges[:split], edges[split:]}
	cursors := [2][]int64{deg[:n], fill}
	nr := 1
	if split < len(edges) {
		nr = 2
	}
	var errs [2]error
	inParts(nr, func(r int) {
		errs[r] = countDegrees(cursors[r], ranges[r], symmetric)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var start int64
	for v := range n {
		d0, d1 := deg[v], fill[v]
		deg[v], fill[v] = start, start+d0
		start += d0 + d1
	}
	g := &Graph{N: n, Offsets: deg, Neighbors: make([]int32, start)}
	inParts(nr, func(r int) {
		place(g.Neighbors, cursors[r], ranges[r], symmetric)
	})
	copy(deg[1:], fill)
	deg[0] = 0
	return g, nil
}

// countDegrees adds each edge's endpoints' degrees to deg, or reports the
// first edge out of range.
func countDegrees(deg []int64, edges [][2]int32, symmetric bool) error {
	n := int32(len(deg))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		deg[u]++
		if symmetric {
			deg[v]++
		}
	}
	return nil
}

// place writes each edge's endpoints at their vertices' cursors.
func place(nb []int32, cur []int64, edges [][2]int32, symmetric bool) {
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		nb[cur[u]] = v
		cur[u]++
		if symmetric {
			nb[cur[v]] = u
			cur[v]++
		}
	}
}

// inParts runs f(0), …, f(parts-1) in parallel, f(0) on the calling
// goroutine.
func inParts(parts int, f func(p int)) {
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(p)
		}()
	}
	f(0)
	wg.Wait()
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
// The graph is that of one loop over rand.NewSource(seed), however many
// processors draw it (see kroneckerSplit).
//
// It panics unless CheckKronecker(scale, edgeFactor) is nil.
func Kronecker(scale, edgeFactor int, seed int64) *Graph {
	if err := CheckKronecker(scale, edgeFactor); err != nil {
		panic(err)
	}
	parts := min(runtime.GOMAXPROCS(0), max(1, scale*edgeFactor<<scale/partDraws))
	g, _ := kroneckerSplit(scale, edgeFactor, seed, parts, cutPoint(1))
	return g
}

// partDraws is the fewest draws Kronecker gives a part of its own: a
// part's jump, 1–2 ms, is then a few per cent of its drawing.
const partDraws = 1 << 22

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

// kroneckerSplit is Kronecker drawn in parts, contiguous runs of edges
// drawn in parallel, with draws at or above redraw redrawn (cutPoint(1)
// is Float64's bound). Part 0 draws from rand.NewSource(seed) itself and
// every later part from a generator jumped to its first draw (lagBase).
// It also returns how many rounds of drawing that took.
func kroneckerSplit(scale, edgeFactor int, seed int64, parts int, redraw uint64) (*Graph, int) {
	var base *lagBase
	if parts > 1 {
		base = newLagBase(seed)
	}
	edges, rounds := kroneckerEdges(scale, edgeFactor, rand.NewSource(seed), parts, redraw, base)
	g, err := FromEdges(1<<scale, edges, true)
	if err != nil {
		panic(err)
	}
	return g, rounds
}

// edgePart is a run of edges drawn from one generator.
type edgePart struct {
	lo, hi  int         // the edges
	start   int         // the draw src stood at when the part began
	redraws int         // draws the part redrew
	src     rand.Source // after the part's last draw
}

// kroneckerEdges draws the edge list in parts and relabels it. Part p
// starts at draw lo·scale plus the redraws of the parts before it. Those
// are not known until the parts have drawn, so every part first assumes
// the earlier parts redrew nothing — a seeded generator redraws once in
// 2^54 draws — and counts its own redraws; then any part whose start the
// counts contradict is drawn again from its corrected start, in rounds
// until none is (one part more is settled every round). Perm continues
// from the last part's generator. It returns the rounds of drawing too.
//
// Every bit of every endpoint is one uniform variate r in [0,1) put in a
// quadrant: r < A sets nothing, r < A+B the bit of v, r < A+B+C the bit
// of u, the rest both. The variates are those of rand.New(src).Float64()
// — float64(Int63())/2^63, redrawn when that rounds to 1 — but the
// conversion is monotonic, so the raw draw is compared with the smallest
// integer that converts to each bound (cutPoint) instead: no conversion,
// no divide, and no four-way branch for a predictor to guess.
func kroneckerEdges(scale, edgeFactor int, src rand.Source, parts int, redraw uint64, base *lagBase) ([][2]int32, int) {
	n := 1 << scale
	const a, b, c = 0.57, 0.19, 0.19
	q := rmatCuts{cutPoint(a), cutPoint(a + b), cutPoint(a + b + c)}
	edges := make([][2]int32, n*edgeFactor)
	ps := make([]edgePart, parts)
	for p := range ps {
		ps[p].lo, ps[p].hi = p*len(edges)/parts, (p+1)*len(edges)/parts
		ps[p].start = -1
	}
	ps[0].src = src
	rounds := 0
	for ; ; rounds++ {
		var stale []int
		start := 0
		for p := range ps {
			if at := ps[p].lo*scale + start; ps[p].start != at {
				ps[p].start = at
				stale = append(stale, p)
			}
			start += ps[p].redraws
		}
		if len(stale) == 0 {
			break
		}
		inParts(len(stale), func(i int) {
			pt := &ps[stale[i]]
			if stale[i] > 0 {
				pt.src = base.at(pt.start)
			}
			pt.redraws = q.draw(edges[pt.lo:pt.hi], pt.src, scale, redraw)
		})
	}
	// Permute vertex labels so degree does not correlate with index. Perm
	// draws from the same stream, where the edges left it.
	perm := rand.New(ps[parts-1].src).Perm(n)
	inParts(parts, func(p int) {
		for i := ps[p].lo; i < ps[p].hi; i++ {
			edges[i][0] = int32(perm[edges[i][0]])
			edges[i][1] = int32(perm[edges[i][1]])
		}
	})
	return edges, rounds
}

// draw fills edges from src, one accepted draw per vertex bit, and
// returns how many draws it redrew.
func (q rmatCuts) draw(edges [][2]int32, src rand.Source, scale int, redraw uint64) (redraws int) {
	mask := uint64(1)<<scale - 1
	for i := range edges {
		var nu, nv uint64 // the complements of u and v, see quadrant
		for bit := 0; bit < scale; bit++ {
			x := uint64(src.Int63())
			for x >= redraw {
				x = uint64(src.Int63())
				redraws++
			}
			bu, bv := q.quadrant(x)
			nu |= bu << bit
			nv |= bv << bit
		}
		edges[i] = [2]int32{int32(^nu & mask), int32(^nv & mask)}
	}
	return redraws
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
