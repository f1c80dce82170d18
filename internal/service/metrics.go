package service

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// wallBuckets are the upper bounds (seconds) of the per-job simulation
// wall-time histogram, chosen around the typical 0.5M-cycle run.
var wallBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120}

// Metrics is the service's observability state, exported in Prometheus
// text format on /metrics. All fields are updated atomically; gauges
// that mirror live structures (queue depth, cache size) are sampled at
// scrape time by the server.
type Metrics struct {
	JobsSubmitted atomic.Int64
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	JobsRejected  atomic.Int64 // queue-full 429s
	JobsPanicked  atomic.Int64 // failed jobs whose simulation panicked

	CacheHits   atomic.Int64
	CacheMisses atomic.Int64

	SweepsSubmitted atomic.Int64
	SweepsDone      atomic.Int64
	SweepPoints     atomic.Int64 // expanded points across all sweeps

	WorkersBusy atomic.Int64

	// What the workers' sim.Arenas hold and have saved, summed over the
	// workers; each publishes its own change after a job.
	ArenaBytes  atomic.Int64
	ArenaReuses atomic.Int64

	SimMemCycles atomic.Int64 // total simulated memory cycles

	// Durability-layer counters (all zero when no data dir is set).
	JobsRecovered   atomic.Int64 // jobs rebuilt from the journal at start
	SweepsRecovered atomic.Int64 // sweeps rebuilt from the journal at start
	JournalRecords  atomic.Int64 // records appended to the journal
	Snapshots       atomic.Int64 // compacted snapshots written

	// wall-time histogram: bucket counts + sum (float64 bits) + count
	wallCounts  [8]atomic.Int64 // len(wallBuckets)+1, last is +Inf
	wallSumBits atomic.Uint64
	wallCount   atomic.Int64
}

// ObserveSimWall records one job's simulation wall time in seconds.
func (m *Metrics) ObserveSimWall(seconds float64) {
	i := 0
	for i < len(wallBuckets) && seconds > wallBuckets[i] {
		i++
	}
	m.wallCounts[i].Add(1)
	m.wallCount.Add(1)
	for {
		old := m.wallSumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + seconds)
		if m.wallSumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Gauges carries the point-in-time values the server samples at scrape
// time.
type Gauges struct {
	Queued     int
	Running    int
	Workers    int
	QueueCap   int
	CacheBytes int64
	CacheItems int
}

// WritePrometheus renders the metrics in Prometheus text exposition
// format.
func (m *Metrics) WritePrometheus(w io.Writer, g Gauges) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP dramstacksd_jobs_total Jobs by terminal state.\n# TYPE dramstacksd_jobs_total counter\n")
	fmt.Fprintf(w, "dramstacksd_jobs_total{state=\"done\"} %d\n", m.JobsDone.Load())
	fmt.Fprintf(w, "dramstacksd_jobs_total{state=\"failed\"} %d\n", m.JobsFailed.Load())
	fmt.Fprintf(w, "dramstacksd_jobs_total{state=\"cancelled\"} %d\n", m.JobsCancelled.Load())

	counter("dramstacksd_jobs_submitted_total", "Accepted job submissions (cache hits included).", m.JobsSubmitted.Load())
	counter("dramstacksd_jobs_rejected_total", "Submissions rejected with 429 because the queue was full.", m.JobsRejected.Load())
	counter("dramstacksd_jobs_panicked_total", "Failed jobs whose simulation panicked; the worker survived.", m.JobsPanicked.Load())
	gauge("dramstacksd_jobs_queued", "Jobs waiting in the FIFO queue.", int64(g.Queued))
	gauge("dramstacksd_jobs_running", "Jobs currently simulating.", int64(g.Running))
	gauge("dramstacksd_queue_capacity", "FIFO queue capacity.", int64(g.QueueCap))

	counter("dramstacksd_sweeps_submitted_total", "Accepted sweep submissions.", m.SweepsSubmitted.Load())
	counter("dramstacksd_sweeps_done_total", "Sweeps whose every point reached a terminal state.", m.SweepsDone.Load())
	counter("dramstacksd_sweep_points_total", "Expanded sweep points across all sweeps.", m.SweepPoints.Load())

	counter("dramstacksd_cache_hits_total", "Result-cache hits.", m.CacheHits.Load())
	counter("dramstacksd_cache_misses_total", "Result-cache misses.", m.CacheMisses.Load())
	gauge("dramstacksd_cache_bytes", "Bytes of result JSON held by the cache.", g.CacheBytes)
	gauge("dramstacksd_cache_entries", "Entries held by the cache.", int64(g.CacheItems))

	gauge("dramstacksd_workers", "Size of the worker pool.", int64(g.Workers))
	gauge("dramstacksd_workers_busy", "Workers currently running a job.", m.WorkersBusy.Load())

	gauge("dramstacksd_arena_bytes", "Cache arrays and prewarm buffers the workers keep between jobs.", m.ArenaBytes.Load())
	counter("dramstacksd_arena_reuses_total", "Cache levels whose arrays a job took over from its worker's previous job instead of allocating.", m.ArenaReuses.Load())

	counter("dramstacksd_sim_mem_cycles_total", "Total simulated memory cycles across all jobs.", m.SimMemCycles.Load())

	counter("dramstacksd_recovered_jobs_total", "Jobs rebuilt from the durable journal at start.", m.JobsRecovered.Load())
	counter("dramstacksd_recovered_sweeps_total", "Sweeps rebuilt from the durable journal at start.", m.SweepsRecovered.Load())
	counter("dramstacksd_journal_records_total", "Records appended to the write-ahead journal.", m.JournalRecords.Load())
	counter("dramstacksd_snapshots_total", "Compacted snapshots written.", m.Snapshots.Load())

	fmt.Fprintf(w, "# HELP dramstacksd_sim_wall_seconds Per-job simulation wall time.\n# TYPE dramstacksd_sim_wall_seconds histogram\n")
	var cum int64
	for i, ub := range wallBuckets {
		cum += m.wallCounts[i].Load()
		fmt.Fprintf(w, "dramstacksd_sim_wall_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.wallCounts[len(wallBuckets)].Load()
	fmt.Fprintf(w, "dramstacksd_sim_wall_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "dramstacksd_sim_wall_seconds_sum %g\n", math.Float64frombits(m.wallSumBits.Load()))
	fmt.Fprintf(w, "dramstacksd_sim_wall_seconds_count %d\n", m.wallCount.Load())
}
