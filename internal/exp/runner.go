package exp

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"text/tabwriter"

	"dramstacks/internal/extrapolate"
	"dramstacks/internal/sim"
)

// SweepOptions tunes a sweep run.
type SweepOptions struct {
	// Workers bounds the goroutine pool (each simulation is
	// single-threaded). 0 or negative means GOMAXPROCS.
	Workers int
	// KeepGoing keeps running the remaining points after a point fails;
	// the default policy cancels every outstanding point on the first
	// failure.
	KeepGoing bool
	// OnPoint, if non-nil, is called once per finished point, serialized,
	// in completion order, with the number of finished points so far and
	// the total.
	OnPoint func(pr PointResult, done, total int)
}

// PointResult is the outcome of one sweep point.
type PointResult struct {
	Point Point
	// Res is the simulation result; nil when the point errored or was
	// skipped by the fail-fast policy. Res.Cancelled marks a partial run
	// of a cancelled point.
	Res *sim.Result
	Err error
}

// SweepResult collects every point of a sweep run in expansion order.
type SweepResult struct {
	// AxisNames are the varying axes, sorted (the expansion order).
	AxisNames []string
	// Hash is the sweep's content address (SweepHash of the points).
	Hash string
	// Points holds one result per expanded point, index-aligned with the
	// expansion.
	Points []PointResult
}

// Runner executes a list of points on a bounded worker pool. Each
// point runs under its own context: CancelPoint stops one point,
// cancelling the Run context stops them all, and SweepOptions.KeepGoing
// picks the on-error policy.
type Runner struct {
	opt    SweepOptions
	points []Point

	// run is RunSpec; a test substitutes a simulation that panics.
	run func(context.Context, Spec, RunOptions) (*sim.Result, error)

	mu      sync.Mutex
	cancels []context.CancelFunc // nil until Run wires the contexts
	pre     map[int]bool         // CancelPoint calls that beat Run
}

// NewRunner expands the sweep and prepares a runner for it.
func NewRunner(sw Sweep, opt SweepOptions) (*Runner, error) {
	points, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("exp: sweep expands to no points")
	}
	return newRunner(points, opt), nil
}

// newRunner prepares a runner for points, which are run and reported in
// the order given: a sweep's expansion, or a figure's explicit list.
func newRunner(points []Point, opt SweepOptions) *Runner {
	return &Runner{
		opt:     opt,
		points:  points,
		run:     RunSpec,
		cancels: make([]context.CancelFunc, len(points)),
		pre:     make(map[int]bool),
	}
}

// Points returns the expanded points in their deterministic order.
func (r *Runner) Points() []Point { return r.points }

// CancelPoint cancels the point at index i (a no-op for out-of-range
// indices). Safe to call before, during, or after Run; a point
// cancelled before it starts yields a Cancelled partial result of ~0
// cycles.
func (r *Runner) CancelPoint(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.points) {
		return
	}
	if r.cancels[i] != nil {
		r.cancels[i]()
	} else {
		r.pre[i] = true
	}
}

// Run executes every point, sharding them across the worker pool, and
// returns the ordered results. Under the default fail-fast policy the
// first point error cancels all outstanding points and is returned with
// the partial result; with KeepGoing the error stays per-point and the
// returned error is nil. Cancelling ctx cancels every point.
func (r *Runner) Run(ctx context.Context) (*SweepResult, error) {
	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	r.mu.Lock()
	ctxs := make([]context.Context, len(r.points))
	for i := range r.points {
		pctx, cancel := context.WithCancel(runCtx)
		ctxs[i], r.cancels[i] = pctx, cancel
		if r.pre[i] {
			cancel()
		}
	}
	r.mu.Unlock()

	workers := r.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(r.points) {
		workers = len(r.points)
	}

	idx := make(chan int, len(r.points))
	for i := range r.points {
		idx <- i
	}
	close(idx)

	results := make([]PointResult, len(r.points))
	var (
		doneMu   sync.Mutex
		done     int
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's machines, one after another, are built on one
			// arena: a point does not allocate the cache arrays the last
			// one is done with.
			arena := new(sim.Arena)
			for i := range idx {
				pr := PointResult{Point: r.points[i]}
				if err := runCtx.Err(); err != nil {
					// The whole sweep was cancelled (or failed fast)
					// before this point started: skip it.
					pr.Err = err
				} else {
					pr.Res, pr.Err = RunRecovered(func() (*sim.Result, error) {
						return r.run(ctxs[i], r.points[i].Spec, RunOptions{Arena: arena})
					})
					var pe *PanicError
					if errors.As(pr.Err, &pe) {
						slog.Error("sweep point panicked", "point", pr.Point.Label(), "panic", pe.Value, "stack", string(pe.Stack))
						arena = new(sim.Arena) // its tenant died mid-use
					}
				}
				r.cancels[i]() // release the point context
				doneMu.Lock()
				results[i] = pr
				done++
				if pr.Err != nil && !errors.Is(pr.Err, context.Canceled) && firstErr == nil {
					firstErr = fmt.Errorf("exp: sweep point %s: %w", pr.Point.Label(), pr.Err)
					if !r.opt.KeepGoing {
						cancelAll()
					}
				}
				if r.opt.OnPoint != nil {
					r.opt.OnPoint(pr, done, len(r.points))
				}
				doneMu.Unlock()
			}
		}()
	}
	wg.Wait()

	res := &SweepResult{
		AxisNames: axisNamesOf(r.points),
		Hash:      SweepHash(r.points),
		Points:    results,
	}
	if r.opt.KeepGoing {
		return res, nil
	}
	return res, firstErr
}

// RunSweep expands and runs a sweep in one call.
func RunSweep(ctx context.Context, sw Sweep, opt SweepOptions) (*SweepResult, error) {
	r, err := NewRunner(sw, opt)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// axisNamesOf recovers the sorted axis names from expanded points.
func axisNamesOf(points []Point) []string {
	if len(points) == 0 {
		return nil
	}
	names := make([]string, 0, len(points[0].Axes))
	for n := range points[0].Axes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultRow renders one point result exactly as the single-run document
// (same label, spec hash and cancelled marker as ResultJSON), so a
// sweep point and an equivalent standalone run are interchangeable.
func resultRow(spec Spec, res *sim.Result) (RowJSON, error) {
	h, err := spec.Hash()
	if err != nil {
		return RowJSON{}, err
	}
	row := ToJSON(spec.Label(), res)
	row.SpecHash = h
	row.Cancelled = res.Cancelled
	return row, nil
}

// SweepPointJSON is the wire form of one sweep point in the aggregate
// document.
type SweepPointJSON struct {
	Index    int               `json:"index"`
	Axes     map[string]string `json:"axes"`
	Label    string            `json:"label"`
	SpecHash string            `json:"spec_hash"`
	Error    string            `json:"error,omitempty"`
	// Result is the point's single-run document (exp.RowJSON); nil when
	// the point errored or was skipped.
	Result *RowJSON `json:"result,omitempty"`
}

// ExtrapolationJSON is one paper-Fig.9-style prediction row of the
// aggregate document.
type ExtrapolationJSON struct {
	Name         string  `json:"name"`
	MeasuredGBps float64 `json:"measured_gbps"`
	NaiveGBps    float64 `json:"naive_gbps"`
	StackGBps    float64 `json:"stack_gbps"`
	NaiveErr     float64 `json:"naive_err"`
	StackErr     float64 `json:"stack_err"`
}

// SweepJSON is the aggregate sweep document: per-point stacks plus the
// extrapolation table when the sweep varies cores. It is deterministic
// (no wall-clock fields), so identical sweeps serialize identically.
type SweepJSON struct {
	Version        int                 `json:"version"`
	SweepHash      string              `json:"sweep_hash"`
	AxisNames      []string            `json:"axis_names"`
	Points         []SweepPointJSON    `json:"points"`
	Extrapolations []ExtrapolationJSON `json:"extrapolations,omitempty"`
}

// ToJSON converts the sweep result into its aggregate wire form.
func (sr *SweepResult) ToJSON() (SweepJSON, error) {
	out := SweepJSON{
		Version:   SpecVersion,
		SweepHash: sr.Hash,
		AxisNames: sr.AxisNames,
		Points:    make([]SweepPointJSON, 0, len(sr.Points)),
	}
	for _, pr := range sr.Points {
		pj := SweepPointJSON{
			Index:    pr.Point.Index,
			Axes:     pr.Point.Axes,
			Label:    pr.Point.Label(),
			SpecHash: pr.Point.Hash,
		}
		if pr.Err != nil {
			pj.Error = pr.Err.Error()
		}
		if pr.Res != nil {
			row, err := resultRow(pr.Point.Spec, pr.Res)
			if err != nil {
				return SweepJSON{}, err
			}
			pj.Result = &row
		}
		out.Points = append(out.Points, pj)
	}
	for _, p := range sr.Extrapolations() {
		out.Extrapolations = append(out.Extrapolations, ExtrapolationJSON{
			Name:         p.Name,
			MeasuredGBps: p.Measured,
			NaiveGBps:    p.Naive,
			StackGBps:    p.Stack,
			NaiveErr:     p.NaiveErr(),
			StackErr:     p.StackErr(),
		})
	}
	return out, nil
}

// Extrapolations derives bandwidth predictions in the style of the
// paper's Fig. 9 when the sweep varies cores: within each group of
// points that agree on every other axis, the lowest-core-count sampled
// run predicts the bandwidth of every higher core count, paired with
// the measured value. Returns nil when cores is not an axis or no group
// has a sampled base run.
func (sr *SweepResult) Extrapolations() []extrapolate.Prediction {
	hasCores := false
	for _, n := range sr.AxisNames {
		if n == "cores" {
			hasCores = true
		}
	}
	if !hasCores {
		return nil
	}
	groupKey := func(p Point) string {
		key := ""
		for _, n := range sr.AxisNames {
			if n != "cores" {
				key += n + "=" + p.Axes[n] + " "
			}
		}
		return key
	}
	groups := make(map[string][]PointResult)
	var order []string
	for _, pr := range sr.Points {
		if pr.Res == nil || pr.Res.Cancelled {
			continue
		}
		k := groupKey(pr.Point)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], pr)
	}
	var preds []extrapolate.Prediction
	for _, k := range order {
		g := groups[k]
		base := PointResult{}
		for _, pr := range g {
			if len(pr.Res.BWSamples) == 0 {
				continue
			}
			if base.Res == nil || pr.Point.Spec.Cores < base.Point.Spec.Cores {
				base = pr
			}
		}
		if base.Res == nil {
			continue
		}
		for _, pr := range g {
			if pr.Point.Spec.Cores <= base.Point.Spec.Cores {
				continue
			}
			factor := float64(pr.Point.Spec.Cores) / float64(base.Point.Spec.Cores)
			preds = append(preds, extrapolate.Predict(
				pr.Point.Label(), base.Res.BWSamples, factor,
				base.Res.Cfg.Geom, pr.Res.AchievedGBps()))
		}
	}
	return preds
}

// WriteCSV writes the aggregate table: one row per point, keyed by the
// varying axes, with the headline metrics.
func (sr *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{}, sr.AxisNames...)
	header = append(header, "spec_hash", "error", "cancelled",
		"mem_cycles", "achieved_gbps", "peak_gbps", "avg_latency_ns", "p99_latency_ns", "page_hit_rate")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, pr := range sr.Points {
		rec := make([]string, 0, len(header))
		for _, n := range sr.AxisNames {
			rec = append(rec, pr.Point.Axes[n])
		}
		rec = append(rec, pr.Point.Hash)
		if pr.Err != nil {
			rec = append(rec, pr.Err.Error())
		} else {
			rec = append(rec, "")
		}
		if pr.Res == nil {
			rec = append(rec, "", "", "", "", "", "", "")
		} else {
			row, err := resultRow(pr.Point.Spec, pr.Res)
			if err != nil {
				return err
			}
			rec = append(rec,
				strconv.FormatBool(row.Cancelled),
				strconv.FormatInt(row.MemCycles, 10),
				formatG(row.AchievedGBps),
				formatG(row.PeakGBps),
				formatG(row.AvgLatencyNS),
				formatG(row.P99LatencyNS),
				formatG(row.PageHitRate))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTable renders the aggregate as an aligned human-readable table,
// followed by the extrapolation comparison when present.
func (sr *SweepResult) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "point\tGB/s\tof peak\tavg lat ns\tp99 ns\tpage hit\tmem cycles\tstatus\n")
	for _, pr := range sr.Points {
		status := "ok"
		switch {
		case pr.Err != nil:
			status = "error: " + pr.Err.Error()
		case pr.Res == nil:
			status = "skipped"
		case pr.Res.Cancelled:
			status = "cancelled (partial)"
		}
		if pr.Res == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t%s\n", pr.Point.Label(), status)
			continue
		}
		row, err := resultRow(pr.Point.Spec, pr.Res)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f%%\t%.1f\t%.1f\t%.1f%%\t%d\t%s\n",
			pr.Point.Label(), row.AchievedGBps, 100*row.AchievedGBps/row.PeakGBps,
			row.AvgLatencyNS, row.P99LatencyNS, 100*row.PageHitRate, row.MemCycles, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	preds := sr.Extrapolations()
	if len(preds) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nbandwidth extrapolation (paper Fig. 9 method, from the lowest sampled core count):\n")
	tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "target\tmeasured GB/s\tnaive GB/s\tstack GB/s\tnaive err\tstack err\n")
	for _, p := range preds {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.1f%%\t%.1f%%\n",
			p.Name, p.Measured, p.Naive, p.Stack, 100*p.NaiveErr(), 100*p.StackErr())
	}
	return tw.Flush()
}
