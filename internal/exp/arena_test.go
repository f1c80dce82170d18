package exp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dramstacks/internal/cache"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
)

// runEncoded runs spec on arena (nil: freshly allocated) and encodes the
// result as the service and the CLI do.
func runEncoded(t testing.TB, spec Spec, arena *sim.Arena) (*sim.Result, []byte) {
	t.Helper()
	res, err := RunSpec(context.Background(), spec, RunOptions{Arena: arena})
	if err != nil {
		t.Fatalf("%s: %v", spec.Label(), err)
	}
	doc, err := ResultJSON(spec, res)
	if err != nil {
		t.Fatalf("%s: %v", spec.Label(), err)
	}
	return res, doc
}

// cancelOn leaves arena as a job cancelled mid-run leaves it.
func cancelOn(t *testing.T, arena *sim.Arena) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Spec{Workload: "random,seq", Cores: 4, Budget: 4_000_000_000, Sample: 1_500}
	res, err := RunSpec(ctx, spec, RunOptions{Arena: arena, OnSample: func(s stacks.Sample) {
		if s.End >= 3_000 {
			cancel()
		}
	}})
	if err != nil || !res.Cancelled {
		t.Fatalf("the run was not cancelled: %v, %+v", err, res)
	}
}

// TestArenaRunSpecDifferential is the job-level arena differential: each
// spec, run freshly allocated and then on one arena straight after another
// machine — a larger one, a smaller one, a prewarmed one, one cancelled
// mid-run — must give the same Result and the same result document, byte
// for byte.
func TestArenaRunSpecDifferential(t *testing.T) {
	arena := new(sim.Arena)
	for _, step := range []struct {
		after string // what the arena served last
		spec  Spec
	}{
		{"nothing", Spec{Workload: "seq,random", Cores: 8, Budget: 20_000}},
		{"a larger machine", Spec{Workload: "seq", Cores: 1, Budget: 10_000, Sample: 2_500}},
		{"a smaller, prewarmed one", Spec{Workload: "random", Cores: 4, Stores: 0.3, Budget: 10_000}},
		{"a prewarmed one of its size", Spec{Workload: "seq,random", Cores: 4, Policy: "closed", Mapping: "xor", Budget: 20_000}},
		{"a cancelled run", Spec{Workload: "bfs", Cores: 2, Scale: 8, Budget: 20_000}},
		{"a GAP kernel", Spec{Workload: "seq,random", Cores: 2, Standard: "hbm2-2000", Budget: 20_000}},
		{"another standard's", Spec{Workload: "latcrit,bwhog", Cores: 2, QoS: "win=2048,cap=1:16,rt=0", Budget: 20_000}},
		{"a smaller machine", Spec{Workload: "seq,random", Cores: 8, Budget: 20_000}},
	} {
		fresh, freshDoc := runEncoded(t, step.spec, nil)
		if step.after == "a cancelled run" {
			cancelOn(t, arena)
		}
		reused, reusedDoc := runEncoded(t, step.spec, arena)
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("%s after %s: the Result differs on a reused arena", step.spec.Label(), step.after)
		}
		if !bytes.Equal(freshDoc, reusedDoc) {
			t.Errorf("%s after %s: the result document differs on a reused arena", step.spec.Label(), step.after)
		}
	}
	if arena.Reuses() == 0 || arena.Bytes() < cache.DefaultHierConfig(8).ArrayBytes() { // an 8-core machine's cache arrays
		t.Errorf("the arena reused %d arrays and holds %d bytes: it was not used", arena.Reuses(), arena.Bytes())
	}
}

// TestArenaResultsDoNotAlias keeps a point's Result while the arena it ran
// on serves a larger, prewarmed machine: results outlive the next point,
// so nothing in one may point into the arena. The kept Result must still
// encode to the same bytes.
func TestArenaResultsDoNotAlias(t *testing.T) {
	arena := new(sim.Arena)
	a := Spec{Workload: "seq,random", Cores: 4, Budget: 20_000, Sample: 5_000}
	kept, before := runEncoded(t, a, arena)
	runEncoded(t, Spec{Workload: "random", Cores: 8, Stores: 0.5, Budget: 10_000}, arena)
	after, err := ResultJSON(a, kept)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a kept Result encodes differently after its arena served another machine")
	}
	if _, fresh := runEncoded(t, a, nil); !bytes.Equal(fresh, after) {
		t.Error("the kept Result differs from a fresh run's")
	}
}

// TestArenaRunnerSurvivesPanic makes one point's simulation panic: that
// point fails with the panic's message, the worker carries on with the
// rest of the sweep on a new arena, and those points' results are what
// standalone runs give.
func TestArenaRunnerSurvivesPanic(t *testing.T) {
	sw := Sweep{
		Base: Spec{Workload: "seq,random", Cores: 2},
		Axes: map[string][]any{"cycles": {10_000, 11_000, 12_000, 13_000}},
	}
	r, err := NewRunner(sw, SweepOptions{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	var arenas []*sim.Arena // the one each point was given, in index order
	r.run = func(ctx context.Context, spec Spec, opt RunOptions) (*sim.Result, error) {
		arenas = append(arenas, opt.Arena)
		if spec.Budget == 11_000 {
			panic("cpu: replay drained the ROB")
		}
		return RunSpec(ctx, spec, opt)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Points {
		if i == 1 {
			var pe *PanicError
			if !errors.As(pr.Err, &pe) || !strings.Contains(pr.Err.Error(), "replay drained the ROB") || len(pe.Stack) == 0 {
				t.Errorf("the panicking point's error is %v, want the panic's message and stack", pr.Err)
			}
			continue
		}
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
		got, err := ResultJSON(pr.Point.Spec, pr.Res)
		if err != nil {
			t.Fatal(err)
		}
		if _, want := runEncoded(t, pr.Point.Spec, nil); !bytes.Equal(got, want) {
			t.Errorf("point %d differs from a standalone run", i)
		}
	}
	if len(arenas) != 4 || arenas[0] == nil || arenas[0] != arenas[1] || arenas[1] == arenas[2] || arenas[2] != arenas[3] {
		t.Errorf("the worker's arenas were %p: want one until the panic and a new one after it", arenas)
	}
}

// BenchmarkRunSpecArena is a sweep point's allocation with and without the
// worker's arena: the service benchmark's cold mix point, which has no
// prewarm, and a prewarmed sequential 8-core point, whose record and merge
// buffers the arena keeps as well. B/op is the number to read.
func BenchmarkRunSpecArena(b *testing.B) {
	for _, pt := range []struct {
		name string
		spec Spec
	}{
		{"mix-4c", Spec{Workload: "seq,random", Cores: 4, Budget: 60_000}},
		{"seq-8c-prewarmed", Spec{Workload: "seq", Cores: 8, Budget: 20_000}},
	} {
		for _, reuse := range []bool{false, true} {
			name := pt.name + "/fresh"
			if reuse {
				name = pt.name + "/reused"
			}
			b.Run(name, func(b *testing.B) {
				var arena *sim.Arena
				if reuse {
					arena = new(sim.Arena)
					runEncoded(b, pt.spec, arena) // the worker's previous point
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runEncoded(b, pt.spec, arena)
				}
			})
		}
	}
}
