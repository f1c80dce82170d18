package exp

import (
	"container/list"
	"sync"

	"dramstacks/internal/gap"
	"dramstacks/internal/graph"
)

// graphCacheBudget bounds the prepared graphs the process keeps between
// experiments: thirty at the default scale 17 (17 MB each, twice that
// with sssp's weights), one at scale 21; a larger graph is generated for
// each job that asks. A daemon serving GAP kernels at many scales
// otherwise holds every graph it ever built.
const graphCacheBudget = 512 << 20

// graphs shares generated, kernel-prepared graphs across experiments
// (generation dominates setup time at scale 17). Prepared graphs are
// read-only afterwards, so concurrent experiments may share them.
var graphs = newGraphLRU(graphCacheBudget)

// Every experiment's graph is a Kronecker graph of this edge factor and
// seed; only the scale is the spec's to choose.
const (
	graphDegree = 16 // edges per vertex before symmetrization
	graphSeed   = 42
)

// graphKey is what tells two prepared graphs apart: the generator's one
// free argument and what gap.Prepare does for the kernel (gap.Variant).
type graphKey struct {
	scale   int
	variant string
}

// graphLRU keeps the most recently used graphs whose bytes fit a budget.
// mu guards the list and the index only: an entry generates its graph
// once, on first call and outside the lock, so a job whose graph is
// cached never waits for another key's generation. Eviction drops the
// cache's reference; a job running on the graph keeps its own.
type graphLRU struct {
	mu     sync.Mutex
	budget int64
	bytes  int64      // of the entries charged so far
	ll     *list.List // of *graphEntry, most recently used first
	index  map[graphKey]*list.Element
}

type graphEntry struct {
	key   graphKey
	build func() (*graph.Graph, error)
	bytes int64 // 0 until the graph exists and has been charged
}

func newGraphLRU(budget int64) *graphLRU {
	return &graphLRU{budget: budget, ll: list.New(), index: make(map[graphKey]*list.Element)}
}

// get returns key's graph prepared for bench, generating it if the cache
// does not hold it.
func (c *graphLRU) get(key graphKey, bench string) (*graph.Graph, error) {
	c.mu.Lock()
	el := c.index[key]
	if el != nil {
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&graphEntry{key: key, build: sync.OnceValues(func() (*graph.Graph, error) {
			g := graph.Kronecker(key.scale, graphDegree, graphSeed)
			if err := gap.Prepare(bench, g); err != nil {
				return nil, err
			}
			return g, nil
		})})
		c.index[key] = el
	}
	e := el.Value.(*graphEntry)
	c.mu.Unlock()

	g, err := e.build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes == 0 {
		e.bytes = graphBytes(g)
		c.bytes += e.bytes
		if e.bytes > c.budget {
			c.evict(el) // it can never fit: the others are not flushed for it
		}
		// Least recently used first. Entries still generating have nothing
		// to give back yet and stay.
		for old := c.ll.Back(); old != nil && c.bytes > c.budget; {
			prev := old.Prev()
			if old.Value.(*graphEntry).bytes > 0 {
				c.evict(old)
			}
			old = prev
		}
	}
	return g, nil
}

// evict drops the cache's reference to a charged entry.
func (c *graphLRU) evict(el *list.Element) {
	e := c.ll.Remove(el).(*graphEntry)
	delete(c.index, e.key)
	c.bytes -= e.bytes
}

// graphBytes is the size of g's CSR arrays.
func graphBytes(g *graph.Graph) int64 {
	return 8*int64(len(g.Offsets)) + 4*int64(len(g.Neighbors)) + 4*int64(len(g.Weights))
}

// buildGraph returns the scale's graph prepared for the bench kernel,
// shared with every other experiment that asks for the same.
func buildGraph(bench string, scale int) (*graph.Graph, error) {
	variant, err := gap.Variant(bench)
	if err != nil {
		return nil, err
	}
	if err := graph.CheckKronecker(scale, graphDegree); err != nil {
		return nil, err
	}
	return graphs.get(graphKey{scale, variant}, bench)
}
