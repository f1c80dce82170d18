package prefetch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refStreamer is the streamer as it was before its valid slots became a
// prefix: every slot carries a valid flag, Observe tries every valid slot
// in order, and a new stream takes the first invalid slot, else the one
// with the smallest lastUse (the first of them on a tie).
type refStreamer struct {
	cfg   Config
	slots []refStream
	clock int64

	observed int64
	issued   int64
}

type refStream struct {
	stream
	valid bool
}

func newRefStreamer(cfg Config) *refStreamer {
	return &refStreamer{cfg: cfg, slots: make([]refStream, max(cfg.Streams, 1))}
}

func (s *refStreamer) Observe(line uint64) []uint64 {
	if !s.cfg.Enabled() {
		return nil
	}
	s.clock++
	s.observed++
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
			return s.run(&sl.stream)
		case sl.dir != 0 && line == sl.lastLine:
			sl.lastUse = s.clock
			return nil
		case sl.dir == 0 && line == sl.lastLine+1:
			sl.dir, sl.lastLine, sl.conf, sl.ahead, sl.lastUse = 1, line, 1, line, s.clock
			return s.run(&sl.stream)
		case sl.dir == 0 && line == sl.lastLine-1:
			sl.dir, sl.lastLine, sl.conf, sl.ahead, sl.lastUse = -1, line, 1, line, s.clock
			return s.run(&sl.stream)
		}
	}
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
	s.slots[victim] = refStream{stream{lastLine: line, lastUse: s.clock}, true}
	return nil
}

func (s *refStreamer) run(sl *stream) []uint64 {
	target := next(sl.lastLine, sl.dir*s.cfg.Depth)
	var out []uint64
	cur := sl.ahead
	if (sl.dir > 0 && cur < sl.lastLine) || (sl.dir < 0 && cur > sl.lastLine) {
		cur = sl.lastLine
	}
	for len(out) < s.cfg.Degree && cur != target {
		cur = next(cur, sl.dir)
		out = append(out, cur)
		if cur == 0 {
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

// checkState requires s to hold exactly ref's streams: the valid slots
// first, in the same places, the free ones zero.
func checkState(t *testing.T, s *Streamer, ref *refStreamer, step int) {
	t.Helper()
	if s.clock != ref.clock || s.observed != ref.observed || s.issued != ref.issued {
		t.Fatalf("step %d: clock %d observed %d issued %d, the reference %d %d %d",
			step, s.clock, s.observed, s.issued, ref.clock, ref.observed, ref.issued)
	}
	for i, rs := range ref.slots {
		want := rs.stream
		if rs.valid != (i < s.nvalid) || s.slots[i] != want {
			t.Fatalf("step %d slot %d: %+v (%d valid), the reference %+v (valid %v)",
				step, i, s.slots[i], s.nvalid, rs.stream, rs.valid)
		}
	}
}

// TestObserveMatchesReference feeds random line streams — ascending and
// descending runs, re-observed lines, jumps within a small pool so runs
// collide, and lines at both ends of the address space — to the streamer
// and to refStreamer, over tables of 1, 2, 5, 16 and 24 slots. Every
// returned candidate list and the whole state after every call must
// agree.
func TestObserveMatchesReference(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 5000
	}
	for i, streams := range []int{1, 2, 5, 16, 24} {
		cfg := Config{Streams: streams, Depth: 1 + i*4, Degree: 1 + i%3}
		t.Run(fmt.Sprint(streams), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(streams)))
			s, ref := NewStreamer(cfg), newRefStreamer(cfg)
			pools := []uint64{0, 1 << 20, math.MaxUint64 - 200}
			line := uint64(0)
			for step := 0; step < steps; step++ {
				switch rng.Intn(6) {
				case 0, 1:
					line++
				case 2:
					line--
				case 3: // the same line again
				default:
					line = pools[rng.Intn(len(pools))] + uint64(rng.Intn(400))
				}
				got, want := s.Observe(line), ref.Observe(line)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d, line %d: candidates %v, the reference %v", step, line, got, want)
				}
				checkState(t, s, ref, step)
			}
			if s.issued == 0 || s.nvalid != streams {
				t.Fatalf("stream too thin to mean anything: issued %d, %d of %d slots used", s.issued, s.nvalid, streams)
			}
		})
	}
}
