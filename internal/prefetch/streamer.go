// Package prefetch implements an L2 stream prefetcher in the style of the
// Skylake L2 streamer: it detects ascending or descending sequences of
// cache-line accesses and runs ahead of them by a configurable depth.
// The prefetcher is what lets a single core's sequential stream approach
// the bandwidth the paper reports (§VII-A: "caches and prefetchers are
// very effective in hiding the memory latency"), while random patterns
// get no benefit.
package prefetch

// Config parameterizes a Streamer.
type Config struct {
	// Streams is the number of independent streams tracked (table size).
	Streams int
	// Depth is how many lines ahead of the stream head to prefetch.
	Depth int
	// Degree caps how many prefetches one observation may issue.
	Degree int
}

// DefaultConfig returns a Skylake-like streamer configuration.
func DefaultConfig() Config {
	return Config{Streams: 16, Depth: 20, Degree: 2}
}

// Enabled reports whether the configuration prefetches at all.
func (c Config) Enabled() bool {
	return c.Streams > 0 && c.Depth > 0 && c.Degree > 0
}

type stream struct {
	lastLine uint64
	dir      int    // +1, -1 or 0 (direction not yet known)
	conf     int    // consecutive matches
	ahead    uint64 // furthest line already requested
	lastUse  int64
	valid    bool
}

// Streamer detects line-granular streams for one core.
type Streamer struct {
	cfg   Config
	slots []stream
	clock int64
	out   []uint64 // Observe's result, reused by the next call

	observed int64
	issued   int64
}

// NewStreamer returns a streamer with the given configuration.
func NewStreamer(cfg Config) *Streamer {
	return &Streamer{
		cfg:   cfg,
		slots: make([]stream, max(cfg.Streams, 1)),
		out:   make([]uint64, 0, max(cfg.Degree, 0)),
	}
}

// Observed returns how many demand accesses the streamer has seen.
func (s *Streamer) Observed() int64 { return s.observed }

// Issued returns how many prefetch candidates the streamer has produced.
func (s *Streamer) Issued() int64 { return s.issued }

// Observe trains the streamer on a demand access to the given cache line
// (an address divided by the line size) and returns the lines to
// prefetch, nearest first. The returned slice is valid until the next
// call.
func (s *Streamer) Observe(line uint64) []uint64 {
	if !s.cfg.Enabled() {
		return nil
	}
	s.clock++
	s.observed++

	// Continue an established or tentative stream.
	for i := range s.slots {
		sl := &s.slots[i]
		if !sl.valid {
			continue
		}
		switch {
		case sl.dir != 0 && line == next(sl.lastLine, sl.dir):
			sl.lastLine = line
			sl.conf++
			sl.lastUse = s.clock
			return s.run(sl)
		case sl.dir != 0 && line == sl.lastLine:
			sl.lastUse = s.clock // repeated access: keep the stream warm
			return nil
		case sl.dir == 0 && line == sl.lastLine+1:
			sl.dir = 1
			sl.lastLine = line
			sl.conf = 1
			sl.ahead = line
			sl.lastUse = s.clock
			return s.run(sl)
		case sl.dir == 0 && line == sl.lastLine-1:
			sl.dir = -1
			sl.lastLine = line
			sl.conf = 1
			sl.ahead = line
			sl.lastUse = s.clock
			return s.run(sl)
		}
	}

	// Allocate a new tentative stream in the LRU slot.
	victim := 0
	for i := range s.slots {
		if !s.slots[i].valid {
			victim = i
			break
		}
		if s.slots[i].lastUse < s.slots[victim].lastUse {
			victim = i
		}
	}
	s.slots[victim] = stream{lastLine: line, valid: true, lastUse: s.clock}
	return nil
}

// Repeat is n more Observe calls of the line the last Observe call was
// given, in closed form: a core retrying one refused access observes the
// same line every cycle. Such a repeat never returns candidates, so
// there is nothing to hand back. After Observe(line) the scan can only
// end one of two ways, each of which then repeats itself:
//
//   - the stream Observe advanced, confirmed or kept warm now sits on
//     line with a direction, and every repeat is the keep-alive case on
//     that slot: the clock moves n and the slot's lastUse follows it;
//   - no slot matches. Observe left a tentative stream on line, which
//     its own line does not continue (only line±1 would), so every
//     repeat allocates one more tentative stream on line in the LRU
//     slot — a modelling defect reproduced here, not fixed: see
//     DESIGN.md. Every slot holds the same stream after len(slots)
//     calls, the one with the oldest lastUse taking the new clock each
//     time, so len(slots) further calls only add len(slots) to every
//     lastUse: whole rotations are added at once and at most
//     2·len(slots)-1 calls are made one by one.
func (s *Streamer) Repeat(line uint64, n int64) {
	if n <= 0 || !s.cfg.Enabled() {
		return
	}
	for i := range s.slots {
		sl := &s.slots[i]
		if !sl.valid {
			continue
		}
		switch {
		case sl.dir != 0 && line == sl.lastLine:
			s.clock += n
			s.observed += n
			sl.lastUse = s.clock
			return
		case sl.dir != 0 && line == next(sl.lastLine, sl.dir),
			sl.dir == 0 && (line == sl.lastLine+1 || line == sl.lastLine-1):
			panic("prefetch: Repeat of a line Observe was not just given")
		}
	}
	size := int64(len(s.slots))
	literal, turns := n, int64(0)
	if n > size {
		literal = size + (n-size)%size
		turns = (n - size) / size
	}
	for ; literal > 0; literal-- {
		s.Observe(line)
	}
	if add := turns * size; add > 0 {
		s.clock += add
		s.observed += add
		for i := range s.slots {
			s.slots[i].lastUse += add
		}
	}
}

// run emits up to Degree prefetches extending the stream to Depth lines
// ahead of its head.
func (s *Streamer) run(sl *stream) []uint64 {
	target := next(sl.lastLine, sl.dir*s.cfg.Depth)
	out := s.out[:0]
	cur := sl.ahead
	// Never fall behind the head.
	if (sl.dir > 0 && cur < sl.lastLine) || (sl.dir < 0 && cur > sl.lastLine) {
		cur = sl.lastLine
	}
	for len(out) < s.cfg.Degree && cur != target {
		cur = next(cur, sl.dir)
		out = append(out, cur)
		if cur == 0 { // wrapped below zero on a descending stream
			break
		}
	}
	if len(out) == 0 {
		return nil
	}
	sl.ahead = out[len(out)-1]
	s.issued += int64(len(out))
	return out
}

func next(line uint64, delta int) uint64 {
	return uint64(int64(line) + int64(delta))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
