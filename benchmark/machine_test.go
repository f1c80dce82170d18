package main

import (
	"context"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sim"
	wl "dramstacks/internal/workload"
)

// tinyCases are small enough for tier-1: 2 cores x 20k memory cycles on
// the default standard, and the same on hbm2-2000 with its two
// pseudo-channel controllers.
var tinyCases = map[string]*simCase{
	"ddr4-2400": {standard: "ddr4-2400", cores: 2, policy: memctrl.OpenPage, prewarm: 1 << 12, cycles: 20_000,
		sources: synthetic(wl.DefaultSequential, 0.2)},
	"hbm2-2000": {standard: "hbm2-2000", cores: 2, policy: memctrl.OpenPage, prewarm: 1 << 12, cycles: 20_000,
		sources: synthetic(wl.DefaultRandom, 0.5)},
}

func runSim(t *testing.T, c *simCase, seed int64) *sim.Result {
	t.Helper()
	sys, err := c.assemble(seed)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if err := checkResult(res); err != nil {
		t.Fatal(err)
	}
	return res
}

// The benchmark-owned machine, untraced and traced, ends in exactly the
// state sim's own run reports: it is checkably the same machine.
func TestMachineEqualsSim(t *testing.T) {
	for name, c := range tinyCases {
		t.Run(name, func(t *testing.T) {
			_, cfg, err := c.config()
			if err != nil {
				t.Fatal(err)
			}
			res := runSim(t, c, 3)
			if res.DevStats.RD == 0 {
				t.Fatal("the tiny case issues no DRAM reads; it would match trivially")
			}
			if name == "hbm2-2000" && len(res.PerChannelStats) != 2 {
				t.Fatalf("hbm2-2000 built %d controllers, want 2", len(res.PerChannelStats))
			}
			ref, _, err := runMachine(context.Background(), c, cfg, 3, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.matches(res) {
				t.Errorf("untraced machine differs from sim: %d cycles, dram %+v, want %d, %+v",
					ref.memCycle, ref.devStats(), res.MemCycles, res.DevStats)
			}
			rec := newRecorder(1 << 16)
			traced, _, err := runMachine(context.Background(), c, cfg, 3, rec, 15)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.matches(res) {
				t.Error("tracing changed what the machine simulates")
			}
			if traced.sampledCycles != 20_000/15 {
				t.Errorf("sampled %d cycles, want %d", traced.sampledCycles, 20_000/15)
			}
			for l, n := range selfTimes(rec.spans, timerCost{}, nil) {
				if n <= 0 {
					t.Errorf("layer %s recorded no time", layerNames[l])
				}
			}

			// A different seed is a different machine state.
			other, _, err := runMachine(context.Background(), c, cfg, 4, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if other.matches(res) {
				t.Error("matches does not tell two different runs apart")
			}
		})
	}
}

// The run-to-completion path: unbatched barrier-coupled sources that end.
func TestMachineEqualsSimToCompletion(t *testing.T) {
	c := &simCase{standard: "ddr4-2400", cores: 2, policy: memctrl.ClosedPage,
		sources: func(seed int64, cores int) ([]cpu.Source, sourceTimes, error) {
			out := make([]cpu.Source, cores)
			for i := range out {
				cfg := wl.DefaultRandom()
				cfg.Ops = 2000
				cfg.Seed = seed + int64(i)
				cfg.BaseAddr = uint64(i) * (256 << 20)
				out[i] = unbatched{wl.MustSynthetic(cfg)}
			}
			return out, sourceTimes{}, nil
		}}
	_, cfg, err := c.config()
	if err != nil {
		t.Fatal(err)
	}
	res := runSim(t, c, 1)
	if res.MemCycles == 0 || res.Cfg.MaxMemCycles != 0 {
		t.Fatalf("run did not go to completion: %d cycles", res.MemCycles)
	}
	m, _, err := runMachine(context.Background(), c, cfg, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.matches(res) {
		t.Errorf("machine stopped at cycle %d, sim at %d", m.memCycle, res.MemCycles)
	}
}

// unbatched hides a source's NextBatch, as the gap sources have none.
type unbatched struct{ src cpu.Source }

func (u unbatched) Next() (cpu.Instr, bool) { return u.src.Next() }

// The source shim keeps BatchSource-ness and hands on the exact
// instruction stream, whichever mix of Next and NextBatch pulls it.
func TestSourceShimKeepsBatchnessAndStream(t *testing.T) {
	mk := func() cpu.Source {
		cfg := wl.DefaultRandom()
		cfg.StoreFrac = 0.3
		cfg.BranchEvery = 5
		cfg.MispredictRate = 0.5
		cfg.Ops = 1000
		cfg.Seed = 9
		return wl.MustSynthetic(cfg)
	}
	m := &machine{}
	if _, ok := m.wrap(mk()).(cpu.BatchSource); !ok {
		t.Error("a batch source lost its NextBatch")
	}
	if _, ok := m.wrap(unbatched{mk()}).(cpu.BatchSource); ok {
		t.Error("a plain source gained a NextBatch")
	}

	var want []cpu.Instr
	for src := mk(); ; {
		ins, ok := src.Next()
		if !ok {
			break
		}
		want = append(want, ins)
	}
	var got []cpu.Instr
	shim := m.wrap(mk()).(cpu.BatchSource)
	buf := make([]cpu.Instr, 7)
	for i := 0; ; i++ {
		if i%3 == 0 {
			ins, ok := shim.Next()
			if !ok {
				break
			}
			got = append(got, ins)
			continue
		}
		n := shim.NextBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("shim handed on %d instructions, the source has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instruction %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if m.n.srcInstrs != int64(len(want)) {
		t.Errorf("counted %d instructions, want %d", m.n.srcInstrs, len(want))
	}
}

func TestMemOpsTakesTheSourcesOwnOperations(t *testing.T) {
	srcs, _, err := synthetic(wl.DefaultSequential, 0)(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ops := memOps(srcs, 100)
	if len(ops) != 100 {
		t.Fatalf("%d operations, want 100", len(ops))
	}
	for i, op := range ops {
		if op.core != i%2 || op.write {
			t.Fatalf("operation %d: %+v, want round-robin loads", i, op)
		}
	}
	if ops[2].addr != ops[0].addr+64 {
		t.Errorf("core 0 is not sequential: %#x then %#x", ops[0].addr, ops[2].addr)
	}
}
