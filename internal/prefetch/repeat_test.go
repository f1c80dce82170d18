package prefetch

import (
	"math/rand"
	"reflect"
	"testing"
)

// trained returns a streamer with a random stream table: a seeded mix of
// ascending and descending runs, re-observed heads and isolated lines,
// short enough on some draws to leave slots invalid. The last line it
// observed is returned with it — the only line Repeat may be given.
func trained(rng *rand.Rand, cfg Config) (*Streamer, uint64) {
	s := NewStreamer(cfg)
	// Lines come from a small pool, so runs collide with, continue and
	// re-observe one another.
	line := uint64(1 + rng.Intn(64))
	s.Observe(line)
	for k := rng.Intn(80); k > 0; k-- {
		switch rng.Intn(5) {
		case 0:
			line++
		case 1:
			line--
		case 2: // the same line again
		default:
			line = uint64(1 + rng.Intn(64))
		}
		s.Observe(line)
	}
	return s, line
}

func clone(s *Streamer) *Streamer {
	c := *s
	c.slots = append([]stream(nil), s.slots...)
	c.out = make([]uint64, 0, cap(s.out))
	return &c
}

// TestRepeatMatchesLiteralObserve pins Repeat's closed form: over random
// stream tables it leaves the streamer in exactly the state n literal
// Observe calls of the last observed line do, every field included.
func TestRepeatMatchesLiteralObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e9ea7))
	configs := []Config{DefaultConfig(), {Streams: 1, Depth: 4, Degree: 2}, {Streams: 5, Depth: 8, Degree: 4}, {}}
	for trial := 0; trial < 400; trial++ {
		cfg := configs[trial%len(configs)]
		s, line := trained(rng, cfg)
		for _, n := range []int64{1, 15, 16, 17, 1000} {
			closed, literal := clone(s), clone(s)
			closed.Repeat(line, n)
			for i := int64(0); i < n; i++ {
				if got := literal.Observe(line); got != nil {
					t.Fatalf("trial %d: repeat %d of line %d prefetched %v", trial, i, line, got)
				}
			}
			if !reflect.DeepEqual(closed, literal) {
				t.Fatalf("trial %d (%+v), n=%d, line %d:\n closed  %+v\n literal %+v", trial, cfg, n, line, closed, literal)
			}
			if closed.Observed() != s.Observed()+n*b2i(cfg.Enabled()) || closed.Issued() != s.Issued() {
				t.Fatalf("trial %d, n=%d: observed %d→%d issued %d→%d", trial, n,
					s.Observed(), closed.Observed(), s.Issued(), closed.Issued())
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestRepeatedObserveNeverPrefetches documents what a core retrying one
// refused access does to its streamer, which the closed form has to
// reproduce rather than repair. Observing the line just observed never
// returns candidates; and when that line started a tentative stream
// (no direction yet), the repeat matches no case — only line±1 would
// continue it — so each retry allocates a duplicate tentative stream in
// the LRU slot: one refused random access evicts every established
// stream of the core in len(slots) cycles.
func TestRepeatedObserveNeverPrefetches(t *testing.T) {
	s := NewStreamer(DefaultConfig())
	// Fifteen established ascending streams, far apart.
	for i := uint64(1); i <= 15; i++ {
		s.Observe(i * 1000)
		if got := s.Observe(i*1000 + 1); len(got) == 0 {
			t.Fatalf("stream %d not established", i)
		}
	}
	// Re-observing an established stream's head keeps it warm, silently.
	for i := 0; i < 3; i++ {
		if got := s.Observe(15001); got != nil {
			t.Fatalf("repeat of a stream head prefetched %v", got)
		}
	}
	// A random line the hierarchy then refuses, retried every cycle.
	const refused = 777_777
	for i := 0; i < 16; i++ {
		if got := s.Observe(refused); got != nil {
			t.Fatalf("retry %d prefetched %v", i, got)
		}
	}
	for i, sl := range s.slots {
		if sl.lastLine != refused || sl.dir != 0 || !sl.valid {
			t.Fatalf("slot %d survived 16 retries of one refused line: %+v", i, sl)
		}
	}
	// The streams are gone: continuing one trains from scratch.
	if got := s.Observe(15002); got != nil {
		t.Fatalf("evicted stream still prefetches: %v", got)
	}
}

// TestRepeatRejectsOtherLines: Repeat's closed form is only licensed for
// the line Observe was just given; a line that would advance a stream is
// a caller bug and must not be silently absorbed.
func TestRepeatRejectsOtherLines(t *testing.T) {
	s := NewStreamer(DefaultConfig())
	s.Observe(100)
	s.Observe(101)
	defer func() {
		if recover() == nil {
			t.Error("Repeat of a stream's next line did not panic")
		}
	}()
	s.Repeat(102, 3)
}
