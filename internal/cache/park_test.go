package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"dramstacks/internal/prefetch"
)

// retrier is the test's model of a core: at most one refused access,
// which it either re-presents every step or sleeps on.
type retrier struct {
	retrying bool
	line     uint64
	write    bool

	asleep bool
	woken  bool
	from   int64 // first step whose retry has not been accounted
}

func (r *retrier) Wake() { r.woken = true }

// TestParkMatchesRetrying is the hierarchy-level oracle for parking. Two
// hierarchies see the same randomized traffic from cores that keep
// re-presenting a refused access until it is taken; on one of them a
// core whose access was refused for want of an MSHR parks instead and
// skips its retries until the hierarchy wakes it. Every retry skipped
// must have been refused on the other side (no wake-up is ever missing),
// a refusal by the memory port must not park, and once the skipped
// retries are accounted the two hierarchies must be indistinguishable:
// outcomes, per-level and hierarchy counters, memory traffic, prefetcher
// state. Shared lines, stores, dirty victims, prefetch fills and both
// MSHR limits are all in play.
func TestParkMatchesRetrying(t *testing.T) {
	for _, tc := range []struct {
		name string
		pf   prefetch.Config
	}{
		{"no-prefetch", prefetch.Config{}},
		{"stream-prefetch", prefetch.DefaultConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cores = 4
			cfg := HierConfig{
				Cores:        cores,
				L1:           Config{Name: "L1", SizeBytes: 1 << 9, Ways: 2, LineBytes: 64, Latency: 4},
				L2:           Config{Name: "L2", SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, Latency: 14},
				LLC:          Config{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 44},
				MSHRs:        5,
				PerCoreMSHRs: 2,
				Prefetch:     tc.pf,
			}
			memL := &flakyMem{rng: rand.New(rand.NewSource(11))}
			memP := &flakyMem{rng: rand.New(rand.NewSource(11))}
			lit := MustNewHierarchy(cfg, memL)
			par := MustNewHierarchy(cfg, memP)

			drive := rand.New(rand.NewSource(0x9a12c))
			var waitL, waitP countWaiter
			var cs [cores]retrier
			parks, skipped, portRefusals := 0, 0, 0

			// present makes core c's access on both sides at step now.
			present := func(now int64, c int) {
				r := &cs[c]
				var wL, wP Waiter
				if !r.write {
					wL, wP = &waitL, &waitP
				}
				before := memL.refusedDemands
				oL := lit.Access(now, c, r.line, r.write, wL)
				byPort := memL.refusedDemands > before
				if r.asleep && !r.woken {
					if oL.Status != Retry {
						t.Fatalf("step %d: core %d sleeps on %#x but a retry gets %+v: a wake-up is missing", now, c, r.line, oL)
					}
					skipped++
					return
				}
				if r.asleep {
					par.Retried(c, now-r.from)
					par.Unpark(c)
					r.asleep = false
				}
				if oP := par.Access(now, c, r.line, r.write, wP); oP != oL {
					t.Fatalf("step %d: core %d line %#x: parked side %+v, retrying side %+v", now, c, r.line, oP, oL)
				}
				r.retrying = oL.Status == Retry
				if !r.retrying {
					return
				}
				ok := par.Park(now, c, r.line, r)
				if ok == byPort {
					t.Fatalf("step %d: core %d: Park = %v for a refusal by the port = %v", now, c, ok, byPort)
				}
				if byPort {
					portRefusals++
				}
				if ok {
					parks++
					r.asleep, r.woken, r.from = true, false, now+1
				}
			}
			// settle accounts the retries sleeping cores have skipped so
			// far, as a sample cut would, so the two sides can be compared.
			settle := func(step int, now int64) {
				for c := range cs {
					if r := &cs[c]; r.asleep {
						par.Retried(c, now+1-r.from)
						r.from = now + 1
					}
				}
				compareHier(t, step, par, lit)
				for c := 0; c < cores; c++ {
					if !reflect.DeepEqual(par.pf[c], lit.pf[c]) {
						t.Fatalf("step %d: core %d prefetcher state:\n parked   %+v\n retrying %+v", step, c, par.pf[c], lit.pf[c])
					}
				}
			}

			for step := 0; step < 30_000; step++ {
				now := int64(step)
				for c := range cs {
					r := &cs[c]
					if !r.retrying {
						if drive.Intn(2) == 0 {
							continue
						}
						// A small pool of lines all cores share, with
						// sequential runs for the prefetcher.
						switch drive.Intn(3) {
						case 0:
							r.line += 64
						default:
							r.line = uint64(drive.Intn(256)) * 64
						}
						r.write = drive.Intn(3) == 0
					}
					present(now, c)
				}
				lit.Tick(now)
				par.Tick(now)
				if drive.Intn(4) == 0 {
					memL.deliverOldest(now)
					memP.deliverOldest(now)
				}
				if step%500 == 0 {
					settle(step, now)
				}
			}
			settle(-1, 29_999)
			if !reflect.DeepEqual(waitL.dones, waitP.dones) || len(memL.reads) != len(memP.reads) ||
				!reflect.DeepEqual(memL.writes, memP.writes) {
				t.Fatalf("completions or memory traffic diverged: %d/%d dones, %d/%d reads, %d/%d writes",
					len(waitP.dones), len(waitL.dones), len(memP.reads), len(memL.reads), len(memP.writes), len(memL.writes))
			}
			t.Logf("%d parks skipped %d retries; %d refusals by the port", parks, skipped, portRefusals)
			if parks < 1000 || skipped < 2*parks || portRefusals == 0 {
				t.Errorf("the traffic barely exercises parking: %d parks, %d retries skipped, %d port refusals",
					parks, skipped, portRefusals)
			}
		})
	}
}
