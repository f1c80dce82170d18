// Package service implements dramstacksd: simulation-as-a-service over
// the deterministic machine in internal/sim. Experiment specs are
// submitted as JSON jobs, run on a bounded worker pool behind a FIFO
// queue with backpressure, deduplicated through a content-addressed
// result cache, and observable via structured logs and Prometheus-style
// metrics. Everything is stdlib-only.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
)

// Config tunes the service.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS-1,
	// at least 1). Each simulation is single-threaded.
	Workers int
	// QueueDepth bounds the FIFO job queue (default 64). Submissions
	// beyond it are rejected with HTTP 429 + Retry-After.
	QueueDepth int
	// CacheBytes is the result-cache byte budget (default 64 MiB).
	CacheBytes int64
	// DataDir, when non-empty, enables the durability layer: every job
	// and sweep submission and every terminal result is journaled there
	// (write-ahead NDJSON + compacted snapshot), and on start the state
	// is recovered — completed results re-populate the cache
	// byte-identically, and jobs that were queued or running at crash
	// time are re-enqueued. Empty keeps today's pure in-memory behavior.
	DataDir string
	// Logger receives structured request and job logs (default
	// slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) - 1
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the dramstacksd HTTP service.
type Server struct {
	cfg     Config
	log     *slog.Logger
	queue   chan *Job
	cache   *Cache
	metrics *Metrics
	handler http.Handler
	store   *Store // nil without Config.DataDir
	// run is exp.RunSpec; a test substitutes a simulation that panics.
	run func(context.Context, exp.Spec, exp.RunOptions) (*sim.Result, error)

	baseCtx   context.Context
	stop      context.CancelFunc
	workersWG sync.WaitGroup
	draining  atomic.Bool // graceful shutdown in progress

	mu     sync.Mutex
	jobs   registry[*Job]
	sweeps registry[*SweepJob]
	active map[string]*Job // spec hash → queued/running job (in-flight dedup)
}

// New assembles a server, recovers durable state when Config.DataDir is
// set, and starts its worker pool; call Close to stop.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		queue:   make(chan *Job, cfg.QueueDepth),
		cache:   NewCache(cfg.CacheBytes),
		metrics: &Metrics{},
		run:     exp.RunSpec,
		active:  make(map[string]*Job),
	}
	s.jobs = registry[*Job]{mu: &s.mu, format: "job-%06d", items: make(map[string]*Job)}
	s.sweeps = registry[*SweepJob]{mu: &s.mu, format: "sweep-%06d", items: make(map[string]*SweepJob)}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.handler = s.logMiddleware(s.routes())
	if cfg.DataDir != "" {
		store, err := OpenStore(cfg.DataDir, s.metrics)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.store = store
		s.recover()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close shuts down gracefully: workers stop picking up queued jobs,
// running simulations are cancelled cooperatively (and treated as
// interrupted, not client-cancelled), and with a data dir the full
// non-terminal state is checkpointed so a subsequent start re-enqueues
// it.
func (s *Server) Close() {
	s.draining.Store(true)
	s.stop()
	s.workersWG.Wait()
	if s.store != nil {
		if err := s.store.Checkpoint(); err != nil {
			s.log.Error("shutdown checkpoint failed", "err", err)
		}
		if err := s.store.Close(); err != nil {
			s.log.Error("closing journal failed", "err", err)
		}
	}
}

// Handler returns the HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the counters for tests.
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", listAll(&s.jobs, (*Job).status))
	mux.HandleFunc("GET /v1/jobs/{id}", byID(&s.jobs, "job", showOne((*Job).status)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", byID(&s.jobs, "job", s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/stacks", byID(&s.jobs, "job", s.handleStacks))
	mux.HandleFunc("GET /v1/jobs/{id}/samples", byID(&s.jobs, "job", s.handleSamples))
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", listAll(&s.sweeps, (*SweepJob).status))
	mux.HandleFunc("GET /v1/sweeps/{id}", byID(&s.sweeps, "sweep", showOne((*SweepJob).status)))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", byID(&s.sweeps, "sweep", s.handleSweepCancel))
	mux.HandleFunc("GET /v1/sweeps/{id}/results", byID(&s.sweeps, "sweep", s.handleSweepResults))
	mux.HandleFunc("GET /v1/standards", s.handleStandards)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// ServeMux answers an unknown path, or a known one asked with another
	// method, in plain text. "/" ranks below every pattern above and takes
	// both instead, to answer with the envelope: 405 when the path serves
	// one of the methods the routes use, found by asking the mux, else 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, method := range []string{"GET", "POST", "DELETE"} {
			if _, pattern := mux.Handler(&http.Request{Method: method, URL: r.URL, Host: r.Host}); pattern != "/" {
				allow = append(allow, method)
			}
		}
		if allow == nil {
			writeError(w, http.StatusNotFound, ErrNotFound, "no route %s", r.URL.Path)
			return
		}
		methods := strings.Join(allow, ", ")
		w.Header().Set("Allow", methods)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s takes %s, not %s", r.URL.Path, methods, r.Method)
	})
	return mux
}

// registry keeps one kind of resource, jobs or sweeps, by id and in
// submission order; the id of number n is fmt.Sprintf(format, n), where
// format is a prefix and one integer verb. mu is Server.mu: callers of the
// methods hold it, and byID and listAll take it.
type registry[T any] struct {
	mu     *sync.Mutex
	format string
	items  map[string]T
	ids    []string // submission order
	last   int64    // the highest id number issued or recovered
}

// next returns a fresh id.
func (reg *registry[T]) next() string {
	reg.last++
	return fmt.Sprintf(reg.format, reg.last)
}

// put registers v under id, and moves the counter past a recovered id so
// that next never issues it again.
func (reg *registry[T]) put(id string, v T) {
	reg.items[id] = v
	reg.ids = append(reg.ids, id)
	prefix := reg.format[:strings.IndexByte(reg.format, '%')]
	if n, err := strconv.ParseInt(strings.TrimPrefix(id, prefix), 10, 64); err == nil && n > reg.last {
		reg.last = n
	}
}

// remove forgets id, searching from the end, where a just-refused job sits.
func (reg *registry[T]) remove(id string) {
	delete(reg.items, id)
	for i := len(reg.ids) - 1; i >= 0; i-- {
		if reg.ids[i] == id {
			reg.ids = slices.Delete(reg.ids, i, i+1)
			return
		}
	}
}

// list returns every resource in submission order.
func (reg *registry[T]) list() []T {
	out := make([]T, len(reg.ids))
	for i, id := range reg.ids {
		out[i] = reg.items[id]
	}
	return out
}

// byID serves an {id} route of reg: it hands h the resource the path
// names, or answers 404 not_found.
func byID[T any](reg *registry[T], kind string, h func(http.ResponseWriter, *http.Request, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg.mu.Lock()
		v, ok := reg.items[r.PathValue("id")]
		reg.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound, "no such %s %q", kind, r.PathValue("id"))
			return
		}
		h(w, r, v)
	}
}

// showOne serves GET on one resource: its status.
func showOne[T, S any](status func(T) S) func(http.ResponseWriter, *http.Request, T) {
	return func(w http.ResponseWriter, _ *http.Request, v T) { writeJSON(w, http.StatusOK, status(v)) }
}

// listAll serves GET on a collection: the status of every resource of
// reg, in submission order.
func listAll[T, S any](reg *registry[T], status func(T) S) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg.mu.Lock()
		items := reg.list()
		reg.mu.Unlock()
		out := make([]S, len(items))
		for i, v := range items {
			out[i] = status(v)
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (NDJSON samples) to the client.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.code,
			"duration_ms", float64(time.Since(start))/float64(time.Millisecond),
			"remote", r.RemoteAddr,
		)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Error codes of the unified /v1 error envelope. Every non-2xx JSON
// body is {"error": {"code": "...", "message": "..."}}.
const (
	ErrInvalidSpec  = "invalid_spec"
	ErrInvalidSweep = "invalid_sweep"
	ErrNotFound     = "not_found"
	ErrQueueFull    = "queue_full"
	ErrConflict     = "conflict"
	ErrJobFailed    = "job_failed"
)

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorJSON struct {
	Error errorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// SubmitResponse is the POST /v1/jobs reply.
type SubmitResponse struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	State    State  `json:"state"`
	Cached   bool   `json:"cached"`
	// Deduped marks a submission coalesced onto an identical job already
	// queued or running.
	Deduped bool `json:"deduped,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSpec, "reading spec: %v", err)
		return
	}
	spec, err := exp.DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSpec, "%v", err)
		return
	}
	spec = spec.Normalized()
	hash, err := spec.Hash() // the one validation: an invalid spec has no hash
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSpec, "%v", err)
		return
	}

	job, state, how := s.resolve(spec, hash)
	if how != fresh {
		s.metrics.JobsSubmitted.Add(1)
		if how == servedCached {
			s.persistJob(job)
			s.persistResult(job)
			s.log.Info("job served from cache", "job", job.ID, "spec_hash", hash)
		}
		writeJSON(w, http.StatusOK, SubmitResponse{
			ID: job.ID, SpecHash: hash, State: state, Cached: how == servedCached, Deduped: how == coalesced,
		})
		return
	}
	select {
	case s.queue <- job:
	default:
		// Backpressure: the queue is full.
		s.unregisterJob(job)
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrQueueFull, "job queue full (%d deep); retry later", s.cfg.QueueDepth)
		return
	}
	// In flight only once the queue holds it: an identical submission
	// must not coalesce onto a job the full queue then refuses.
	s.markActive(job)
	s.persistJob(job)
	s.metrics.JobsSubmitted.Add(1)
	s.log.Info("job queued", "job", job.ID, "spec_hash", hash, "workload", spec.Workload)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: job.ID, SpecHash: hash, State: StateQueued,
	})
}

// resolution is how resolve found the job that serves a spec.
type resolution int

const (
	servedCached resolution = iota // born done from the result cache
	coalesced                      // an identical job already queued or running
	fresh                          // newly registered, for the caller to queue
)

// resolve finds the job that serves spec for a single submission or a
// sweep point, counting the cache hit or miss: a new job born done from
// the result cache, an identical queued or running job with its state
// read once (one finishing meanwhile is not reported coalesced and done),
// or else a new queued job, which the caller queues and marks in flight.
func (s *Server) resolve(spec exp.Spec, hash string) (*Job, State, resolution) {
	if result, ok := s.cache.Get(hash); ok {
		s.metrics.CacheHits.Add(1)
		job := s.registerJob(spec, hash)
		job.finish(StateDone, result, "", 0, 0, true)
		s.metrics.JobsDone.Add(1)
		return job, StateDone, servedCached
	}
	s.metrics.CacheMisses.Add(1)
	s.mu.Lock()
	dup := s.active[hash]
	s.mu.Unlock()
	if dup != nil {
		if state := dup.State(); !state.Terminal() {
			return dup, state, coalesced
		}
	}
	return s.registerJob(spec, hash), StateQueued, fresh
}

// markActive makes job the one identical submissions coalesce onto.
func (s *Server) markActive(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active[job.Hash] = job
}

// feed enqueues jobs in order, waiting for queue space instead of
// refusing, and skipping jobs cancelled while they wait; it gives up on
// server shutdown. Sweep points and recovered jobs enter the queue here.
func (s *Server) feed(jobs []*Job) {
	for _, job := range jobs {
		select {
		case s.queue <- job:
		case <-job.ctx.Done():
			// Cancelled before it entered the queue; requestCancel has
			// already moved it to a terminal state.
		case <-s.baseCtx.Done():
			return
		}
	}
}

// cancelJob requests job's cancellation and reports whether it was still
// queued or running. A queued job ends here: it leaves the in-flight set,
// and its terminal state is journaled and counted; a running one ends in
// its worker. Both DELETE routes go through here.
func (s *Server) cancelJob(job *Job) bool {
	was := job.requestCancel()
	if was == StateQueued {
		s.clearActive(job)
		s.persistResult(job)
		s.metrics.JobsCancelled.Add(1)
	}
	return !was.Terminal()
}

func (s *Server) registerJob(spec exp.Spec, hash string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := newJob(s.baseCtx, s.jobs.next(), spec, hash)
	s.jobs.put(job.ID, job)
	return job
}

func (s *Server) unregisterJob(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs.remove(job.ID)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, job *Job) {
	if !s.cancelJob(job) {
		writeError(w, http.StatusConflict, ErrConflict, "job %s already %s", job.ID, job.State())
		return
	}
	s.log.Info("job cancel requested", "job", job.ID, "state", job.State())
	writeJSON(w, http.StatusAccepted, job.status())
}

func (s *Server) handleStacks(w http.ResponseWriter, r *http.Request, job *Job) {
	result, state := job.resultBytes()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, ErrJobFailed, "job %s failed: %s", job.ID, job.status().Error)
	case StateCancelled:
		if result != nil {
			// Partial stacks of a cancelled run are still well-formed.
			w.Header().Set("Content-Type", "application/json")
			w.Write(result)
			return
		}
		writeError(w, http.StatusConflict, ErrConflict, "job %s was cancelled before producing stacks", job.ID)
	default:
		writeError(w, http.StatusConflict, ErrConflict, "job %s is %s; poll until done", job.ID, state)
	}
}

// parseFrom reads the optional ?from=N resume offset of the NDJSON
// streaming endpoints: the response starts at line index N, so a client
// that lost its connection resumes where it left off instead of
// re-reading (and re-counting) everything.
func parseFrom(r *http.Request) (int, error) {
	q := r.URL.Query().Get("from")
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid from offset %q (want a non-negative integer)", q)
	}
	return n, nil
}

// handleSamples streams through-time samples as NDJSON, following the
// run live until the job reaches a terminal state or the client goes
// away. ?from=N resumes at sample index N.
func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request, job *Job) {
	if job.Spec.Sample <= 0 {
		writeError(w, http.StatusConflict, ErrConflict, "job %s has sampling off (submit with \"sample\" > 0)", job.ID)
		return
	}
	from, err := parseFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSpec, "%v", err)
		return
	}
	enc := json.NewEncoder(w)
	follow(w, r, from, job.snapshotSamples, func(sample exp.SampleJSON) error { return enc.Encode(sample) })
}

// follow streams NDJSON lines from index from on, one write per line, as
// snapshot yields them: live, until snapshot reports the end or the
// client goes away. Both streaming endpoints go through here.
func follow[T any](w http.ResponseWriter, r *http.Request, from int,
	snapshot func(from int) (batch []T, n int, changed <-chan struct{}, terminal bool), write func(T) error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := from
	for {
		batch, n, changed, terminal := snapshot(sent)
		for _, line := range batch {
			if err := write(line); err != nil {
				return
			}
		}
		sent = n
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := Gauges{
		Queued:     len(s.queue),
		Running:    int(s.metrics.WorkersBusy.Load()),
		Workers:    s.cfg.Workers,
		QueueCap:   s.cfg.QueueDepth,
		CacheBytes: s.cache.Bytes(),
		CacheItems: s.cache.Len(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, g)
}

// worker consumes the FIFO queue until the server closes. It owns one
// sim.Arena for its lifetime: every job's machine is built on what the
// worker's last job left there, so a job allocates no cache arrays and the
// worker retains those of the largest machine it has simulated — about
// 1.5 MB at eight cores, plus about 0.3 MB of prewarm buffers — whatever the
// number of jobs. The /metrics arena figures are the sums over the workers.
func (s *Server) worker() {
	defer s.workersWG.Done()
	arena := new(sim.Arena)
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case job := <-s.queue:
			if !s.runJob(job, arena) {
				// Its tenant died mid-use: start afresh.
				s.metrics.ArenaBytes.Add(-arena.Bytes())
				arena = new(sim.Arena)
			}
		}
	}
}

// runJob simulates job on the worker's arena and reports whether the arena
// may serve the next job: not after a panic inside the simulation, which
// fails the job and nothing else.
func (s *Server) runJob(job *Job, arena *sim.Arena) (arenaOK bool) {
	defer s.clearActive(job)
	if !job.start() {
		// Cancelled while queued; already counted.
		return true
	}
	s.metrics.WorkersBusy.Add(1)
	defer s.metrics.WorkersBusy.Add(-1)

	bytes, reuses := arena.Bytes(), arena.Reuses()
	start := time.Now()
	res, err := exp.RunRecovered(func() (*sim.Result, error) {
		return s.run(job.ctx, job.Spec, exp.RunOptions{OnSample: s.sampleHook(job), Arena: arena})
	})
	wall := time.Since(start)
	s.metrics.ArenaBytes.Add(arena.Bytes() - bytes)
	s.metrics.ArenaReuses.Add(arena.Reuses() - reuses)

	var pe *exp.PanicError
	if errors.As(err, &pe) {
		s.metrics.JobsPanicked.Add(1)
		s.log.Error("job panicked", "job", job.ID, "spec_hash", job.Hash, "panic", pe.Value, "stack", string(pe.Stack))
	}
	switch {
	case err != nil:
		job.finish(StateFailed, nil, err.Error(), wall, 0, false)
		s.persistResult(job)
		s.metrics.JobsFailed.Add(1)
		s.metrics.ObserveSimWall(wall.Seconds())
		s.log.Error("job failed", "job", job.ID, "err", err)
	case res.Cancelled:
		result, jerr := exp.ResultJSON(job.Spec, res)
		if jerr != nil {
			result = nil
		}
		job.finish(StateCancelled, result, "", wall, res.MemCycles, false)
		if result != nil {
			// Keep the partial retrievable but marked incomplete: it must
			// never be served as if the full run had happened.
			s.cache.Put(job.Hash, result, false)
		}
		// A run interrupted by graceful shutdown (as opposed to a client
		// cancel) is not journaled terminal: the final checkpoint leaves
		// it queued, so the next start re-enqueues it.
		if job.userCancelled() || !s.draining.Load() {
			s.persistResult(job)
		}
		s.metrics.JobsCancelled.Add(1)
		s.metrics.SimMemCycles.Add(res.MemCycles)
		s.metrics.ObserveSimWall(wall.Seconds())
		s.log.Info("job cancelled", "job", job.ID, "mem_cycles", res.MemCycles)
	default:
		result, jerr := exp.ResultJSON(job.Spec, res)
		if jerr != nil {
			job.finish(StateFailed, nil, jerr.Error(), wall, res.MemCycles, false)
			s.persistResult(job)
			s.metrics.JobsFailed.Add(1)
			return true
		}
		job.finish(StateDone, result, "", wall, res.MemCycles, false)
		s.cache.Put(job.Hash, result, true)
		s.persistResult(job)
		s.metrics.JobsDone.Add(1)
		s.metrics.SimMemCycles.Add(res.MemCycles)
		s.metrics.ObserveSimWall(wall.Seconds())
		s.log.Info("job done", "job", job.ID,
			"mem_cycles", res.MemCycles, "sim_wall_ms", wall.Milliseconds())
	}
	return pe == nil
}

// handleStandards lists the registered DRAM standards with their derived
// parameters (GET /v1/standards), in deterministic name order.
func (s *Server) handleStandards(w http.ResponseWriter, r *http.Request) {
	all := standard.All()
	out := make([]standard.Info, 0, len(all))
	for _, std := range all {
		out = append(out, std.Info())
	}
	writeJSON(w, http.StatusOK, out)
}

// sampleHook feeds live through-time samples into the job for the
// NDJSON streaming endpoint; nil when sampling is off. Cycle-to-time
// conversions use the geometry of the job's own DRAM standard, not a
// server-wide one.
func (s *Server) sampleHook(job *Job) func(stacks.Sample) {
	if job.Spec.Sample <= 0 {
		return nil
	}
	std, err := exp.SpecStandard(job.Spec)
	if err != nil {
		// Specs are validated at submission; an unresolvable standard here
		// means a corrupted recovery record — fall back to the default so
		// the run itself (which will fail in RunSpec) stays observable.
		std = standard.Default()
	}
	geo := std.Geometry
	return func(sm stacks.Sample) {
		job.appendSample(exp.SampleToJSON(sm, geo))
	}
}

func (s *Server) clearActive(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[job.Hash] == job {
		delete(s.active, job.Hash)
	}
}
