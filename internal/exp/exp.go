// Package exp is the experiment layer on top of the simulator: the
// portable Spec and the one path that runs it (RunSpec), sweeps of specs
// and the Runner pool that executes them, and the paper's figures, each
// an ordered list of labelled specs on that pool. cmd/dramstacks,
// cmd/paperfigs, the dramstacksd service, benchmark/ and the examples
// all run their simulations through it.
package exp

import (
	"context"
	"fmt"

	"dramstacks/internal/extrapolate"
	"dramstacks/internal/gap"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
)

// Row is one labeled experiment result (one bar group in a figure).
type Row struct {
	Label string
	Res   *sim.Result
}

// labelled is one bar group of a figure: a spec under the label the paper
// gives it.
type labelled struct {
	label string
	spec  Spec
}

// runFigure runs a figure's specs on the Runner pool and returns one row
// per spec, in list order.
func runFigure(specs []labelled) ([]Row, error) {
	points := make([]Point, len(specs))
	for i, s := range specs {
		n := s.spec.Normalized()
		hash, err := n.Hash()
		if err != nil {
			return nil, fmt.Errorf("exp: figure row %s: %w", s.label, err)
		}
		points[i] = Point{Index: i, Spec: n, Hash: hash}
	}
	res, err := newRunner(points, SweepOptions{}).Run(context.TODO())
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(specs))
	for i, pr := range res.Points {
		rows[i] = Row{specs[i].label, pr.Res}
	}
	return rows, nil
}

// Fig2 reproduces the read-only core-count sweep: sequential and random,
// 1 to 8 cores (paper Fig. 2).
func Fig2(budget int64) ([]Row, error) {
	var specs []labelled
	for _, w := range []string{"seq", "random"} {
		for _, cores := range []int{1, 2, 4, 8} {
			spec := Spec{Workload: w, Cores: cores, Budget: budget}
			specs = append(specs, labelled{spec.Label(), spec})
		}
	}
	return runFigure(specs)
}

// Fig3 reproduces the store-fraction sweep on one core (paper Fig. 3).
func Fig3(budget int64) ([]Row, error) {
	var specs []labelled
	for _, w := range []string{"seq", "random"} {
		for _, pct := range []int{0, 10, 20, 50} {
			specs = append(specs, labelled{
				fmt.Sprintf("%s w%d", synthPattern(w), pct),
				Spec{Workload: w, Stores: float64(pct) / 100, Budget: budget},
			})
		}
	}
	return runFigure(specs)
}

// Fig4 reproduces the page-policy comparison on two cores (paper Fig. 4).
func Fig4(budget int64) ([]Row, error) {
	var specs []labelled
	for _, w := range []string{"seq", "random"} {
		for _, pol := range []string{"open", "closed"} {
			specs = append(specs, labelled{
				fmt.Sprintf("%s %s", synthPattern(w), pol),
				Spec{Workload: w, Cores: 2, Policy: pol, Budget: budget},
			})
		}
	}
	return runFigure(specs)
}

// Fig6 reproduces the bank-indexing comparison for the two conflict
// cases (paper Fig. 6): sequential with 50% stores on one core (open
// pages), and the read-only sequential pattern on two cores with closed
// pages.
func Fig6(budget int64) ([]Row, error) {
	return runFigure([]labelled{
		{"seq w50 1c open def", Spec{Workload: "seq", Stores: 0.5, Mapping: "def", Budget: budget}},
		{"seq w50 1c open int", Spec{Workload: "seq", Stores: 0.5, Mapping: "int", Budget: budget}},
		{"seq w0 2c closed def", Spec{Workload: "seq", Cores: 2, Policy: "closed", Mapping: "def", Budget: budget}},
		{"seq w0 2c closed int", Spec{Workload: "seq", Cores: 2, Policy: "closed", Mapping: "int", Budget: budget}},
	})
}

// fig7Specs is bfs on 8 cores, sampled through time.
func fig7Specs(budget, sampleInterval int64) []labelled {
	return []labelled{{"bfs 8c", Spec{Workload: "bfs", Cores: 8, Budget: budget, Sample: sampleInterval}}}
}

// Fig7 reproduces the through-time cycle / bandwidth / latency stacks
// for bfs on 8 cores (paper Fig. 7). The result carries BWSamples and
// CycleSamples.
func Fig7(budget, sampleInterval int64) (*sim.Result, error) {
	rows, err := runFigure(fig7Specs(budget, sampleInterval))
	if err != nil {
		return nil, err
	}
	return rows[0].Res, nil
}

// fig8Specs is bfs on 8 cores with the default mapping, cache-line
// interleaving, and a 128-entry write queue; tc on one core with default
// and interleaved mapping, under the closed policy of the paper's Fig. 8
// tc case rather than the kernel's default.
func fig8Specs(budget int64) []labelled {
	return []labelled{
		{"bfs 8c def", Spec{Workload: "bfs", Cores: 8, Budget: budget}},
		{"bfs 8c int", Spec{Workload: "bfs", Cores: 8, Mapping: "int", Budget: budget}},
		{"bfs 8c wq128", Spec{Workload: "bfs", Cores: 8, WriteQueue: 128, Budget: budget}},
		{"tc 1c def", Spec{Workload: "tc", Policy: "closed", Mapping: "def", Budget: budget}},
		{"tc 1c int", Spec{Workload: "tc", Policy: "closed", Mapping: "int", Budget: budget}},
	}
}

// Fig8 reproduces the latency-stack variants (paper Fig. 8).
func Fig8(budget int64) ([]Row, error) {
	return runFigure(fig8Specs(budget))
}

// fig9Specs is, for each GAP benchmark, the sampled 1-core run and then
// the 8-core run it is to predict.
func fig9Specs(budget, sampleInterval int64) []labelled {
	var specs []labelled
	for _, bench := range gap.Benchmarks() {
		specs = append(specs,
			// One core needs longer to cover the kernel's phases.
			labelled{bench, Spec{Workload: bench, Cores: 1, Budget: budget * 4, Sample: sampleInterval}},
			labelled{bench, Spec{Workload: bench, Cores: 8, Budget: budget}})
	}
	return specs
}

// fig9 runs a fig9Specs list and predicts each 8-core bandwidth from the
// 1-core through-time samples before it.
func fig9(specs []labelled) ([]extrapolate.Prediction, error) {
	rows, err := runFigure(specs)
	if err != nil {
		return nil, err
	}
	var preds []extrapolate.Prediction
	for i := 0; i < len(rows); i += 2 {
		r1, r8 := rows[i].Res, rows[i+1].Res
		preds = append(preds, extrapolate.Predict(
			rows[i].Label, r1.BWSamples, 8, r1.Cfg.Geom, r8.AchievedGBps()))
	}
	return preds, nil
}

// Fig9 reproduces the bandwidth extrapolation study (paper Fig. 9):
// for each GAP benchmark, measure 1-core and 8-core bandwidth, then
// predict the 8-core value from the 1-core through-time samples with the
// naive and the stack-based method.
func Fig9(budget, sampleInterval int64) ([]extrapolate.Prediction, error) {
	return fig9(fig9Specs(budget, sampleInterval))
}

// Stacks extracts the bandwidth and latency stacks of rows for plotting.
func Stacks(rows []Row) (labels []string, bw []stacks.BandwidthStack, lat []stacks.LatencyStack) {
	for _, r := range rows {
		labels = append(labels, r.Label)
		bw = append(bw, r.Res.BW)
		lat = append(lat, r.Res.Lat)
	}
	return
}
