package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	g, err := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 4 {
		t.Errorf("edges = %d, want 4", g.Edges())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(3))
	}
	nb := g.Neigh(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("neighbors of 0 = %v", nb)
	}
}

func TestFromEdgesSymmetric(t *testing.T) {
	g, err := FromEdges(3, [][2]int32{{0, 1}, {1, 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 4 {
		t.Errorf("edges = %d, want 4 (symmetrized)", g.Edges())
	}
	if g.Degree(1) != 2 {
		t.Errorf("degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestFromEdgesDropsSelfLoopsRejectsBad(t *testing.T) {
	g, err := FromEdges(3, [][2]int32{{1, 1}, {0, 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 1 {
		t.Errorf("edges = %d, want 1 (self loop dropped)", g.Edges())
	}
	if _, err := FromEdges(3, [][2]int32{{0, 5}}, false); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(0, nil, false); err == nil {
		t.Error("zero vertices accepted")
	}
}

func TestUniformProperties(t *testing.T) {
	g := Uniform(256, 8, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 256 {
		t.Fatalf("n = %d", g.N)
	}
	// Symmetric and roughly 2 × n × degree edges (minus self loops).
	if g.Edges() < 2*256*8*9/10 || g.Edges() > 2*256*8 {
		t.Errorf("edges = %d, want near %d", g.Edges(), 2*256*8)
	}
	// Determinism.
	h := Uniform(256, 8, 42)
	if h.Edges() != g.Edges() || h.Neighbors[0] != g.Neighbors[0] {
		t.Error("generator not deterministic")
	}
}

func TestKroneckerSkew(t *testing.T) {
	g := Kronecker(10, 8, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var max int64
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	avg := float64(g.Edges()) / float64(g.N)
	if float64(max) < 5*avg {
		t.Errorf("max degree %d not skewed vs avg %.1f (R-MAT should be heavy-tailed)", max, avg)
	}
}

func TestSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Uniform(64, 4, seed)
		// Every edge (u,v) has a matching (v,u).
		count := map[[2]int32]int{}
		for u := 0; u < g.N; u++ {
			for _, v := range g.Neigh(int32(u)) {
				count[[2]int32{int32(u), v}]++
			}
		}
		for e, c := range count {
			if count[[2]int32{e[1], e[0]}] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTranspose(t *testing.T) {
	g, _ := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {3, 0}}, false)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Degree(0) != 1 || tr.Neigh(0)[0] != 3 {
		t.Errorf("transpose wrong: deg(0)=%d neigh=%v", tr.Degree(0), tr.Neigh(0))
	}
	if tr.Degree(1) != 1 || tr.Neigh(1)[0] != 0 {
		t.Errorf("transpose wrong at 1: %v", tr.Neigh(1))
	}
	// Transposing twice restores the degree sequence.
	back := tr.Transpose()
	for v := 0; v < g.N; v++ {
		if back.Degree(int32(v)) != g.Degree(int32(v)) {
			t.Fatalf("double transpose changed degree of %d", v)
		}
	}
}

func TestSortNeighborsAndWeights(t *testing.T) {
	g := Uniform(128, 6, 3)
	g.SortNeighbors()
	for v := 0; v < g.N; v++ {
		nb := g.Neigh(int32(v))
		for i := 1; i < len(nb); i++ {
			if nb[i-1] > nb[i] {
				t.Fatalf("neighbors of %d not sorted: %v", v, nb)
			}
		}
	}
	g.AddUniformWeights(10, 9)
	if len(g.Weights) != len(g.Neighbors) {
		t.Fatal("weights length mismatch")
	}
	for _, w := range g.Weights {
		if w < 1 || w > 10 {
			t.Fatalf("weight %d out of [1,10]", w)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Uniform(32, 2, 1)
	g.Neighbors[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("out-of-range neighbor not caught")
	}
	h := Uniform(32, 2, 1)
	h.Offsets[5] = h.Offsets[6] + 1
	if err := h.Validate(); err == nil {
		t.Error("decreasing offsets not caught")
	}
}

func TestDedupRemovesDuplicates(t *testing.T) {
	g, err := FromEdges(4, [][2]int32{{0, 1}, {0, 1}, {0, 2}, {1, 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 8 {
		t.Fatalf("pre-dedup edges = %d, want 8", g.Edges())
	}
	g.Dedup()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 6 {
		t.Errorf("post-dedup edges = %d, want 6", g.Edges())
	}
	nb := g.Neigh(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("neighbors of 0 = %v, want [1 2]", nb)
	}
	// Sorted after dedup.
	for v := 0; v < g.N; v++ {
		list := g.Neigh(int32(v))
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] {
				t.Fatalf("vertex %d list not strictly sorted: %v", v, list)
			}
		}
	}
}

func TestDedupKeepsWeights(t *testing.T) {
	g, _ := FromEdges(3, [][2]int32{{0, 2}, {0, 1}, {0, 1}}, false)
	g.Weights = []int32{7, 5, 9} // parallel to [2 1 1]
	g.Dedup()
	nb, w := g.NeighW(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors = %v", nb)
	}
	// Sorted order is [1 2]; the kept weight for 1 is the first of the
	// sorted duplicates, and 2 keeps its 7.
	if w[1] != 7 {
		t.Errorf("weight of edge to 2 = %d, want 7", w[1])
	}
	if len(g.Weights) != 2 {
		t.Errorf("weights length = %d, want 2", len(g.Weights))
	}
}

func TestTransposeWithWeights(t *testing.T) {
	g, _ := FromEdges(3, [][2]int32{{0, 1}, {1, 2}}, false)
	g.Weights = []int32{3, 4}
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	nb, w := tr.NeighW(1)
	if len(nb) != 1 || nb[0] != 0 || w[0] != 3 {
		t.Errorf("transpose(1) = %v %v, want [0] [3]", nb, w)
	}
	nb, w = tr.NeighW(2)
	if len(nb) != 1 || nb[0] != 1 || w[0] != 4 {
		t.Errorf("transpose(2) = %v %v, want [1] [4]", nb, w)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := Kronecker(8, 4, 99)
	b := Kronecker(8, 4, 99)
	if a.Edges() != b.Edges() {
		t.Fatal("kronecker not deterministic")
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatal("kronecker neighbors differ")
		}
	}
}

// kroneckerFloat is the generator as it was written before the integer
// cut points: one Float64 per vertex bit through a four-way switch. It is
// the reference kronecker is differenced against.
func kroneckerFloat(scale, edgeFactor int, src rand.Source) *Graph {
	rng := rand.New(src)
	n := 1 << scale
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([][2]int32, 0, n*edgeFactor)
	for i := 0; i < n*edgeFactor; i++ {
		var u, v int32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, [2]int32{u, v})
	}
	// Permute vertex labels so degree does not correlate with index.
	perm := rng.Perm(n)
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

// TestKroneckerMatchesFloatLoop differences the generator against the
// float loop. The smallest cases draw a handful of numbers in all (scale
// 1 × edge factor 1: two bits and a two-element Perm), fewer than the 607
// words of the generator's state.
func TestKroneckerMatchesFloatLoop(t *testing.T) {
	seeds := []int64{0, -1, -77, -1 << 62, 1, 2, 3, 7, 42, 77, 99, 607, 1 << 31, 1<<31 - 1, 1 << 40, 1<<63 - 1, 12345, 271828, 314159, 1000003}
	for scale := 1; scale <= 12; scale++ {
		for ef := 1; ef <= 3; ef++ {
			for _, seed := range seeds {
				got, want := Kronecker(scale, ef, seed), kroneckerFloat(scale, ef, rand.NewSource(seed))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Kronecker(%d, %d, %d) differs from the float loop", scale, ef, seed)
				}
			}
		}
	}
}

// TestKroneckerMatchesFloatLoopLarge covers the benchmark's graph and the
// default experiment's, at the processor counts a generator that split its
// work would behave differently at.
func TestKroneckerMatchesFloatLoopLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds scale-16 and scale-17 graphs several times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		scale, ef int
		seed      int64
	}{{16, 16, 1}, {17, 16, 42}} {
		want := kroneckerFloat(c.scale, c.ef, rand.NewSource(c.seed))
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			if !reflect.DeepEqual(Kronecker(c.scale, c.ef, c.seed), want) {
				t.Errorf("Kronecker(%d, %d, %d) at GOMAXPROCS %d differs from the float loop", c.scale, c.ef, c.seed, procs)
			}
		}
	}
}

// floatQuadrant is the float loop's switch on one raw draw, as the
// complements quadrant returns, and whether Float64 would redraw it.
func floatQuadrant(x uint64) (nu, nv uint64, redrawn bool) {
	const a, b, c = 0.57, 0.19, 0.19
	r := float64(int64(x)) / (1 << 63)
	switch {
	case r == 1:
		return 0, 0, true
	case r < a:
		return 1, 1, false
	case r < a+b:
		return 1, 0, false
	case r < a+b+c:
		return 0, 1, false
	}
	return 0, 0, false
}

// TestKroneckerCutPoints checks the integer comparisons against the float
// ones where they could part: on both sides of every cut point, at the
// ends of the draw range, and on a million random draws.
func TestKroneckerCutPoints(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	q := rmatCuts{cutPoint(a), cutPoint(a + b), cutPoint(a + b + c)}
	redraw := cutPoint(1)
	if !(0 < q.a && q.a < q.ab && q.ab < q.abc && q.abc < redraw && redraw < 1<<63) {
		t.Fatalf("cut points out of order: %+v, redraw %d", q, redraw)
	}
	check := func(x uint64) {
		t.Helper()
		wu, wv, redrawn := floatQuadrant(x)
		if redrawn != (x >= redraw) {
			t.Fatalf("draw %d: redrawn by Float64 %v, by the bound %v", x, redrawn, x >= redraw)
		}
		if redrawn {
			return
		}
		if nu, nv := q.quadrant(x); nu != wu || nv != wv {
			t.Fatalf("draw %d: quadrant (%d,%d), float loop (%d,%d)", x, nu, nv, wu, wv)
		}
	}
	for _, cut := range []uint64{q.a, q.ab, q.abc, redraw} {
		for d := uint64(0); d <= 2; d++ {
			check(cut - d)
			check(cut + d)
		}
	}
	check(0)
	check(1)
	check(1<<63 - 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1<<20; i++ {
		check(uint64(rng.Int63()))
	}
}

// scripted is a rand.Source that plays draws, then a seeded generator.
type scripted struct {
	draws []int64
	rand.Source
}

func (s *scripted) Int63() int64 {
	if len(s.draws) == 0 {
		return s.Source.Int63()
	}
	x := s.draws[0]
	s.draws = s.draws[1:]
	return x
}

// TestKroneckerRedraws feeds both loops a draw stream with values at and
// above Float64's redraw bound — which a seeded generator yields once in
// 2^54 draws — among values at the cut points: first of all, back to back,
// mid-edge, and as the last draw before Perm takes over.
func TestKroneckerRedraws(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	ca, cab, cabc, redraw := int64(cutPoint(a)), int64(cutPoint(a+b)), int64(cutPoint(a+b+c)), int64(cutPoint(1))
	const top = 1<<63 - 1
	script := []int64{
		redraw, ca, top, top, cab - 1, cabc, redraw + 1, redraw - 1,
		0, ca - 1, redraw, cab, cabc - 1, top, redraw, 5,
	}
	// The script is 9 accepted draws among 7 rejected. At scale 1 (2 edge
	// draws) Perm starts inside it, at scale 3 (24) it ends mid-edge.
	for _, scale := range []int{1, 3, 5} {
		mk := func() rand.Source { return &scripted{append([]int64(nil), script...), rand.NewSource(9)} }
		got, want := kronecker(scale, 1, mk()), kroneckerFloat(scale, 1, mk())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scale %d: a draw stream with redraws gives a different graph than the float loop", scale)
		}
	}
	// The last edge draw rejected: Perm must start at the draw after the
	// accepted one that follows.
	mk := func() rand.Source { return &scripted{[]int64{1, top, ca, 7, 7, 7}, rand.NewSource(9)} }
	if got, want := kronecker(1, 1, mk()), kroneckerFloat(1, 1, mk()); !reflect.DeepEqual(got, want) {
		t.Error("a redraw on the last edge draw gives a different graph than the float loop")
	}
}

func csrDigest(t *testing.T, g *Graph) string {
	t.Helper()
	h := sha256.New()
	for _, v := range []any{int64(g.N), g.Offsets, g.Neighbors, g.Weights} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorPins pins the generated CSR arrays (sha256 over N, Offsets,
// Neighbors, little-endian), computed before Kronecker left floats behind.
// The first is the benchmark's gap-bfs-4c graph: benchmark/golden.json
// pins the simulation over it, this pins the graph itself.
func TestGeneratorPins(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"Kronecker(16,16,1)", Kronecker(16, 16, 1), "49ec3024fe72e745478f08ca346f1c153b1ce87d890d3fce4b40f5f3f2febab4"},
		{"Kronecker(10,8,7)", Kronecker(10, 8, 7), "7e0f0984664b1cab39b6e7f7cb65d869d7b5466ec227957b6b29e73df3ee9d87"},
		{"Uniform(256,8,42)", Uniform(256, 8, 42), "48529821e9d72326db106fed9d65250bb638b13f32e8ba7fb18b37796d5b4c5a"},
	} {
		if got := csrDigest(t, c.g); got != c.want {
			t.Errorf("%s: CSR sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

func TestKroneckerRejectsBadSizes(t *testing.T) {
	for _, c := range []struct {
		scale, ef int
		want      string
	}{{0, 16, "scale"}, {-3, 16, "scale"}, {31, 1, "scale"}, {64, 1, "scale"}, {10, 0, "edge factor"}, {10, -1, "edge factor"}} {
		if err := CheckKronecker(c.scale, c.ef); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CheckKronecker(%d, %d) = %v, want an error naming the %s", c.scale, c.ef, err, c.want)
		}
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("Kronecker(%d, %d, 1) panicked with %v, want an error naming the %s", c.scale, c.ef, err, c.want)
				}
			}()
			Kronecker(c.scale, c.ef, 1)
		}()
	}
	for _, ok := range [][2]int{{1, 1}, {30, 1}, {4, 1000}} {
		if err := CheckKronecker(ok[0], ok[1]); err != nil {
			t.Errorf("CheckKronecker(%d, %d) = %v", ok[0], ok[1], err)
		}
	}
}

// BenchmarkKronecker is the set-up kernel of a GAP point: the graph of the
// benchmark's gap-bfs-4c workload.
func BenchmarkKronecker(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Kronecker(16, 16, 1)
	}
}
