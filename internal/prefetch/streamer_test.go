package prefetch

import "testing"

func TestAscendingStreamDetected(t *testing.T) {
	s := NewStreamer(Config{Streams: 4, Depth: 8, Degree: 4})
	if got := s.Observe(100); got != nil {
		t.Fatalf("first access prefetched %v", got)
	}
	got := s.Observe(101)
	if len(got) != 4 {
		t.Fatalf("second access prefetched %v, want 4 lines", got)
	}
	for i, l := range got {
		if want := uint64(102 + i); l != want {
			t.Errorf("prefetch %d = %d, want %d", i, l, want)
		}
	}
	// The next access continues from where the stream left off.
	got = s.Observe(102)
	if len(got) != 4 || got[0] != 106 {
		t.Errorf("third access prefetched %v, want 106..109", got)
	}
}

func TestDescendingStreamDetected(t *testing.T) {
	s := NewStreamer(Config{Streams: 4, Depth: 4, Degree: 8})
	s.Observe(200)
	got := s.Observe(199)
	if len(got) != 4 || got[0] != 198 || got[3] != 195 {
		t.Errorf("descending prefetches = %v, want 198..195", got)
	}
}

func TestDepthBoundsRunAhead(t *testing.T) {
	s := NewStreamer(Config{Streams: 1, Depth: 4, Degree: 16})
	s.Observe(10)
	first := s.Observe(11) // may run to 15 (depth 4 ahead of 11)
	if len(first) != 4 || first[len(first)-1] != 15 {
		t.Fatalf("first run = %v, want up to line 15", first)
	}
	// Re-observing the head line issues nothing new.
	if got := s.Observe(11); got != nil {
		t.Errorf("repeat access prefetched %v", got)
	}
	// Advancing one line extends the window by exactly one.
	got := s.Observe(12)
	if len(got) != 1 || got[0] != 16 {
		t.Errorf("advance prefetched %v, want [16]", got)
	}
}

func TestRandomAccessesNoPrefetch(t *testing.T) {
	s := NewStreamer(DefaultConfig())
	addrs := []uint64{500, 17, 93410, 2, 777, 12345, 42, 900001}
	for _, a := range addrs {
		if got := s.Observe(a); got != nil {
			t.Fatalf("random access %d prefetched %v", a, got)
		}
	}
	if s.Issued() != 0 {
		t.Errorf("issued = %d, want 0", s.Issued())
	}
}

func TestMultipleConcurrentStreams(t *testing.T) {
	s := NewStreamer(Config{Streams: 4, Depth: 4, Degree: 4})
	// Interleave two ascending streams.
	s.Observe(1000)
	s.Observe(2000)
	// A result is valid only until the next Observe: copy the first.
	a := append([]uint64(nil), s.Observe(1001)...)
	b := s.Observe(2001)
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("streams not both detected: %v %v", a, b)
	}
	if a[0] != 1002 || b[0] != 2002 {
		t.Errorf("stream heads wrong: %v %v", a, b)
	}
}

func TestStreamHitDoesNotAllocate(t *testing.T) {
	s := NewStreamer(DefaultConfig())
	line := uint64(1000)
	s.Observe(line)
	allocs := testing.AllocsPerRun(1000, func() {
		line++
		if got := s.Observe(line); len(got) == 0 {
			t.Fatal("stream lost")
		}
	})
	if allocs != 0 {
		t.Errorf("a stream hit allocates %v times, want 0", allocs)
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewStreamer(Config{Streams: 2, Depth: 4, Degree: 4})
	s.Observe(100) // slot A
	s.Observe(200) // slot B
	s.Observe(300) // evicts A (LRU)
	// Stream at 100 forgotten: 101 allocates anew, no prefetch.
	if got := s.Observe(101); got != nil {
		t.Errorf("evicted stream still live: %v", got)
	}
	// Stream at 300 still trainable.
	if got := s.Observe(301); len(got) == 0 {
		t.Error("recent stream was evicted")
	}
}

func TestDisabledConfig(t *testing.T) {
	s := NewStreamer(Config{})
	s.Observe(1)
	if got := s.Observe(2); got != nil {
		t.Errorf("disabled streamer prefetched %v", got)
	}
}
