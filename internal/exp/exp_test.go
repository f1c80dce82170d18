package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"dramstacks/internal/gap"
	"dramstacks/internal/sim"
)

// runSpec is RunSpec for a test that wants the result or nothing.
func runSpec(t *testing.T, spec Spec) *sim.Result {
	t.Helper()
	res, err := RunSpec(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rowsHash is the sha256 of the rows as cmd/paperfigs writes them.
func rowsHash(t *testing.T, rows []Row) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteRowsJSON(&b, rows); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestRunSynthBasics(t *testing.T) {
	res := runSpec(t, Spec{Workload: "seq", Budget: 60_000})
	if res.AchievedGBps() <= 0 {
		t.Error("no bandwidth achieved")
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Error(err)
	}
}

func TestFig2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short")
	}
	rows, err := Fig2(80_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// Recorded at commit 11baf19, before the figures became spec lists on
	// the Runner.
	if got, want := rowsHash(t, rows), "bb84593f711c7250bbdf9a80519f7745cabcd1bb1d703056e11dc88862842b05"; got != want {
		t.Errorf("fig2.json hashes to %s, want %s", got, want)
	}
	labels, bw, lat := Stacks(rows)
	if labels[0] != "sequential 1c" || labels[7] != "random 8c" {
		t.Errorf("labels wrong: %v", labels)
	}
	for i := range bw {
		if err := bw[i].CheckSum(); err != nil {
			t.Errorf("%s: %v", labels[i], err)
		}
		if lat[i].Reads == 0 {
			t.Errorf("%s: no reads", labels[i])
		}
	}
	// Scaling within each pattern is monotone.
	for _, base := range []int{0, 4} {
		for i := base + 1; i < base+4; i++ {
			if rows[i].Res.AchievedGBps() <= rows[i-1].Res.AchievedGBps() {
				t.Errorf("%s (%.2f) not above %s (%.2f)",
					rows[i].Label, rows[i].Res.AchievedGBps(),
					rows[i-1].Label, rows[i-1].Res.AchievedGBps())
			}
		}
	}
}

func TestRunGapVariantsAndSamples(t *testing.T) {
	spec := Spec{Workload: "bfs", Cores: 2, Scale: 12, Budget: 120_000, Sample: 20_000}
	res := runSpec(t, spec)
	if len(res.BWSamples) == 0 || len(res.CycleSamples) == 0 {
		t.Error("through-time samples missing")
	}
	if res.CtrlStats.IssuedReads == 0 {
		t.Error("bfs generated no DRAM reads")
	}
	// The write-queue override moves the capacity and both watermarks.
	spec.WriteQueue = 128
	wq := runSpec(t, spec).Cfg.Ctrl
	if wq.WriteQueueCap != 128 || wq.WriteHi != 96 || wq.WriteLo != 32 {
		t.Errorf("wq128 variant ran with capacity %d, watermarks %d/%d", wq.WriteQueueCap, wq.WriteHi, wq.WriteLo)
	}
}

// shrink runs a figure's own spec list on a graph small enough for test
// time.
func shrink(specs []labelled, scale int) []labelled {
	for i := range specs {
		specs[i].spec.Scale = scale
	}
	return specs
}

func TestFig9SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("extrapolation sweep skipped in -short")
	}
	preds, err := fig9(shrink(fig9Specs(150_000, 50_000), 13))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(gap.Benchmarks()) {
		t.Fatalf("%d predictions for %d benchmarks", len(preds), len(gap.Benchmarks()))
	}
	for i, p := range preds {
		if p.Name != gap.Benchmarks()[i] {
			t.Errorf("prediction %d is for %s, want %s", i, p.Name, gap.Benchmarks()[i])
		}
		if p.Measured <= 0 {
			t.Errorf("%s: measured 8c bandwidth is zero", p.Name)
		}
		if p.Naive <= 0 || p.Stack <= 0 {
			t.Errorf("%s: predictions missing: naive %v stack %v", p.Name, p.Naive, p.Stack)
		}
		if p.Stack > 19.3 || p.Naive > 19.3 {
			t.Errorf("%s: prediction exceeds peak: naive %v stack %v", p.Name, p.Naive, p.Stack)
		}
		// The stack method never predicts above naive: overheads only
		// shrink the achievable share.
		if p.Stack > p.Naive+1e-9 {
			t.Errorf("%s: stack %v above naive %v", p.Name, p.Stack, p.Naive)
		}
	}
}

func TestFigFunctionsSmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps skipped in -short")
	}
	// The hashes were recorded at commit 11baf19, before the figures became
	// spec lists on the Runner.
	figs := []struct {
		name string
		run  func(int64) ([]Row, error)
		want int
		hash string
	}{
		{"fig3", Fig3, 8, "b355326867c2ca8625c1aaec75cdbb5316bef52e2d9bc64f4a05194535e86892"},
		{"fig4", Fig4, 4, "6a7e32b75f31c76be6d34d1613d5e09d899e3e5593aee04f41f24fb25ea26905"},
		{"fig6", Fig6, 4, "eeadb3e635701030eb48ab3cc8b96daf4b795382b5b31759dbc81027ae5c378e"},
	}
	for _, f := range figs {
		rows, err := f.run(50_000)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(rows) != f.want {
			t.Errorf("%s rows = %d, want %d", f.name, len(rows), f.want)
		}
		if got := rowsHash(t, rows); got != f.hash {
			t.Errorf("%s.json hashes to %s, want %s", f.name, got, f.hash)
		}
	}
}

func TestFig7And8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps skipped in -short")
	}
	rows, err := runFigure(shrink(fig7Specs(100_000, 10_000), 12))
	if err != nil {
		t.Fatal(err)
	}
	res := rows[0].Res
	if len(res.BWSamples) < 3 {
		t.Errorf("fig7 sampling produced %d samples", len(res.BWSamples))
	}
	for _, s := range res.BWSamples {
		if err := s.BW.CheckSum(); err != nil {
			t.Error(err)
		}
	}

	rows, err = runFigure(shrink(fig8Specs(60_000), 12))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bfs 8c def", "bfs 8c int", "bfs 8c wq128", "tc 1c def", "tc 1c int"}
	if len(rows) != len(want) {
		t.Fatalf("fig8 has %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Label != want[i] {
			t.Errorf("fig8 row %d is %q, want %q", i, r.Label, want[i])
		}
		if r.Res.Lat.Reads == 0 {
			t.Errorf("%s: no reads", r.Label)
		}
		// The paper's Fig. 8 tc case is closed-page, not tc's default.
		if r.Res.Cfg.Ctrl.Policy.String() != "closed" {
			t.Errorf("%s ran under the %s page policy", r.Label, r.Res.Cfg.Ctrl.Policy)
		}
	}
	if got := rows[2].Res.Cfg.Ctrl.WriteQueueCap; got != 128 {
		t.Errorf("%s ran with a %d-entry write queue", rows[2].Label, got)
	}
	if rows[1].Res.Cfg.Map != sim.MapInterleaved || rows[4].Res.Cfg.Map != sim.MapInterleaved {
		t.Error("the int rows did not run with cache-line interleaving")
	}
}

func TestSynthSpecChannels(t *testing.T) {
	res := runSpec(t, Spec{Workload: "seq", Cores: 2, Channels: 2, Budget: 40_000})
	if res.Channels != 2 || len(res.PerChannelBW) != 2 {
		t.Errorf("channels = %d / %d per-channel stacks", res.Channels, len(res.PerChannelBW))
	}
}

func TestRunStream(t *testing.T) {
	res := runSpec(t, Spec{Workload: "triad", Cores: 2, Budget: 50_000})
	if res.AchievedGBps() <= 0 {
		t.Error("stream achieved nothing")
	}
	if res.CtrlStats.IssuedWrites == 0 {
		t.Error("triad produced no writes")
	}
}

func TestWriteRowsJSON(t *testing.T) {
	res := runSpec(t, Spec{Workload: "seq", Budget: 30_000})
	var b strings.Builder
	if err := WriteRowsJSON(&b, []Row{{"seq 1c", res}}); err != nil {
		t.Fatal(err)
	}
	var rows []RowJSON
	if err := json.Unmarshal([]byte(b.String()), &rows); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].Label != "seq 1c" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.AchievedGBps <= 0 || r.PeakGBps != 19.2 || r.MemCycles != 30_000 {
		t.Errorf("headline fields wrong: %+v", r)
	}
	var sum float64
	for _, v := range r.BandwidthGBps {
		sum += v
	}
	if sum < 19.19 || sum > 19.21 {
		t.Errorf("bandwidth components sum to %v, want peak", sum)
	}
	if _, ok := r.LatencyNS["queue"]; !ok {
		t.Error("latency components missing queue")
	}
}
