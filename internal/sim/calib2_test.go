package sim

import (
	"fmt"
	"testing"

	"dramstacks/internal/memctrl"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

func printRes(tag string, res *Result) {
	g := res.BWGBps()
	l := res.LatNS()
	fmt.Printf("%-24s ach=%5.2f [rd=%5.2f wr=%5.2f ref=%4.2f pre=%4.2f act=%4.2f cons=%4.2f bidle=%5.2f idle=%5.2f] hit=%4.1f%%\n",
		tag, res.AchievedGBps(),
		g[stacks.BWRead], g[stacks.BWWrite], g[stacks.BWRefresh],
		g[stacks.BWPrecharge], g[stacks.BWActivate], g[stacks.BWConstraints],
		g[stacks.BWBankIdle], g[stacks.BWIdle], 100*res.CtrlStats.PageHitRate())
	fmt.Printf("%-24s lat=%6.1f [ctrl=%4.1f dram=%4.1f preact=%5.1f ref=%4.1f wb=%5.1f q=%6.1f]\n",
		"", res.Lat.AvgTotalNS(res.Cfg.Geom),
		l[stacks.LatBaseCtrl], l[stacks.LatBaseDRAM], l[stacks.LatPreAct],
		l[stacks.LatRefresh], l[stacks.LatWriteBurst], l[stacks.LatQueue])
}

// runSyn2 runs a fully parameterized synthetic experiment.
func runSyn2(t *testing.T, pat workload.Pattern, cores int, storeFrac float64,
	m Mapping, policy memctrl.PagePolicy, budget int64) *Result {
	t.Helper()
	cfg := Default(cores)
	cfg.Map = m
	cfg.Ctrl.Policy = policy
	cfg.MaxMemCycles = budget
	cfg.PrewarmOps = 1 << 20
	sources := SyntheticSources(pat, cores, storeFrac)
	sys, err := newSystem(cfg, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatalf("timing violations: %v", res.Violations[0])
	}
	return res
}

func TestCalibrationStoresAndPolicy(t *testing.T) {
	if !*calib {
		t.Skip("pass -calib to print calibration stacks")
	}
	fmt.Println("--- Fig 3: store fraction sweep, 1 core ---")
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, w := range []float64{0, 0.1, 0.2, 0.5} {
			res := runSyn2(t, pat, 1, w, MapDefault, memctrl.OpenPage, 400_000)
			printRes(fmt.Sprintf("%s w%d 1c", pat, int(w*100)), res)
		}
	}
	fmt.Println("--- Fig 4: page policy, 2 cores, read-only ---")
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, pol := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.ClosedPage} {
			res := runSyn2(t, pat, 2, 0, MapDefault, pol, 400_000)
			printRes(fmt.Sprintf("%s %s 2c", pat, pol), res)
		}
	}
	fmt.Println("--- Fig 6: indexing, two bank-conflict cases ---")
	for _, m := range []Mapping{MapDefault, MapInterleaved} {
		res := runSyn2(t, workload.Sequential, 1, 0.5, m, memctrl.OpenPage, 400_000)
		printRes(fmt.Sprintf("seq w50 1c open %s", m), res)
	}
	for _, m := range []Mapping{MapDefault, MapInterleaved} {
		res := runSyn2(t, workload.Sequential, 2, 0, m, memctrl.ClosedPage, 400_000)
		printRes(fmt.Sprintf("seq w0 2c closed %s", m), res)
	}
}
