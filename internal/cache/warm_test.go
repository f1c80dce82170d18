package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWarmLLCShardsMatchSerial holds the one replay, WarmLLC, to the
// one-by-one warmAccess walk, on the paper's LLC and on small caches. The
// operation stream is dealt item by item over a number of shards, one log
// per core: an item emits 0 to 3 operations, and the last shard's stream
// ends halfway through each chunk. The logs are reused chunk after chunk,
// as the parallel prewarm reuses its record sets, and the chunks are 0, 1
// and odd numbers of items long. The streams collide heavily in a few
// sets, repeat lines and mix in dirty writebacks. Words and statistics
// must come out identical: that is what breaks if the replay leaves the
// (item, core) order, loses its place in a log between items, or carries
// it over from the previous chunk.
func TestWarmLLCShardsMatchSerial(t *testing.T) {
	small := func(ways, sets int) Config {
		return Config{Name: "LLC", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, Latency: 44}
	}
	for _, llc := range []Config{
		DefaultHierConfig(1).LLC,
		small(1, 8), small(2, 4), small(3, 16), small(4, 1), small(16, 32),
	} {
		sets := llc.Sets()
		rng := rand.New(rand.NewSource(int64(llc.Ways)))
		ops := make([]LLCOp, 40_000)
		for i := range ops {
			// Three quarters of the operations fall in eight sets spread
			// over the index range, on a few more tags than there are ways.
			set, tag := rng.Intn(sets), rng.Intn(3*llc.Ways)
			if i%4 != 0 {
				set = rng.Intn(8) * sets / 8
				tag = rng.Intn(llc.Ways + 2)
			}
			ops[i] = LLCOp(uint64(tag*sets+set)*64) | LLCOp(rng.Intn(3)/2)
		}
		shardCounts := []int{1, 2, 3, 7, 16}
		if sets <= 32 {
			shardCounts = append(shardCounts, sets+3)
		}
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%d-way-%d-sets/%d-shards", llc.Ways, sets, shards), func(t *testing.T) {
				cfg := DefaultHierConfig(1)
				cfg.LLC = llc
				h := MustNewHierarchy(cfg, &fakeMem{})
				want := New(llc)
				rest := ops
				logs := make([]WarmLog, shards)
				for _, items := range []int{0, 1, 1, 5, 0, 17, 4099, 2, 1000, len(ops)} {
					for i := range logs {
						logs[i].Ops, logs[i].Cnt = logs[i].Ops[:0], logs[i].Cnt[:0]
					}
					for j := 0; j < items && len(rest) > 0; j++ {
						for i := range logs {
							if i == shards-1 && shards > 1 && j >= items/2 {
								continue // the last shard's stream ended
							}
							n := min(rng.Intn(4), len(rest))
							logs[i].Ops = append(logs[i].Ops, rest[:n]...)
							logs[i].Cnt = append(logs[i].Cnt, uint8(n))
							for _, op := range rest[:n] {
								want.warmAccess(uint64(op), op&1 != 0)
							}
							rest = rest[n:]
						}
					}
					h.WarmLLC(logs)
					sameState(t, "LLC", h.llc, want)
				}
			})
		}
	}
}

var warmSink int64

// BenchmarkWarmAccess is the warm kernel alone on the paper's three
// geometries, in its two regimes: sequential lines (every access a miss
// whose victim way is predictable) and LCG-random lines (the victim way
// is not). The footprint is four times the capacity so both run at
// steady-state occupancy; about half the accesses are writes.
func BenchmarkWarmAccess(b *testing.B) {
	hc := DefaultHierConfig(1)
	for _, cfg := range []Config{hc.L1, hc.L2, hc.LLC} {
		lines := uint64(4 * cfg.SizeBytes / cfg.LineBytes)
		for _, random := range []bool{false, true} {
			name := cfg.Name + "/seq"
			if random {
				name = cfg.Name + "/random"
			}
			b.Run(name, func(b *testing.B) {
				c := New(cfg)
				x, line := uint64(1), uint64(0)
				step := func() {
					x = x*6364136223846793005 + 1442695040888963407
					if random {
						line = (x >> 33) % lines
					} else if line++; line == lines {
						line = 0
					}
					c.warmAccess(line*uint64(cfg.LineBytes), x>>63 != 0)
				}
				for i := uint64(0); i < 2*lines; i++ {
					step()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				warmSink += c.stats.Evictions
			})
		}
	}
}
