package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dramstacks/internal/exp"
	"dramstacks/internal/service"
	"dramstacks/pkg/client"
)

const (
	sweepPoints  = 24  // cores x policy x map
	hitPairs     = 300 // phase-B SubmitJob+Stacks round trips
	setupSamples = 50  // set-ups timed per repetition; setup_s is their median
)

// sweepCycles is the per-point cycle budget: the seed's only way into
// the service, which takes nothing but spec documents. The default seed
// gives 60k-cycle points; other seeds move it by under 0.2 %.
func sweepCycles(seed int64) int64 {
	off := (seed - defaultSeed) % 97
	if off < 0 {
		off += 97
	}
	return 60_000 + off
}

// sweepDoc is phase A's input: a "seq,random" mix (no prewarm, so a
// point starts counting cycles at once) over cores x policy x map.
func sweepDoc(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"version":1,"base":{"workload":"seq,random","cycles":%d},`+
		`"axes":{"cores":[1,2,4,8],"policy":["open","closed"],"map":["def","int","xor"]}}`, sweepCycles(seed)))
}

// hitSpec is the sweep point phase B asks for again and again.
func hitSpec(seed int64) exp.Spec {
	return exp.Spec{Workload: "seq,random", Cores: 4, Policy: "open", Mapping: "def", Budget: sweepCycles(seed)}
}

func serviceWorkers() int { return min(2, runtime.NumCPU()) }

// instance is one in-process dramstacksd behind a loopback listener,
// with the one client that drives it.
type instance struct {
	srv  *service.Server
	http *httptest.Server // listens on 127.0.0.1:0
	tr   *http.Transport
	cl   *client.Client
	obs  *observer // nil unless the run is traced
}

// startInstance is the service's set-up: service.New plus the listener.
// dataDir "" keeps it in memory. The service logs to io.Discard.
func startInstance(dataDir string, traced bool) (*instance, error) {
	srv, err := service.New(service.Config{
		Workers: serviceWorkers(),
		DataDir: dataDir,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv, tr: &http.Transport{}}
	handler := srv.Handler()
	var rt http.RoundTripper = in.tr
	if traced {
		in.obs = &observer{next: handler, transport: in.tr, handlerUS: map[string][]float64{}}
		handler, rt = in.obs, retryCounter{in.obs}
	}
	in.http = httptest.NewServer(handler)
	in.cl = client.New(in.http.URL, client.Options{HTTPClient: &http.Client{Transport: rt}})
	return in, nil
}

func (in *instance) stop() {
	in.tr.CloseIdleConnections()
	in.http.Close()
	in.srv.Close()
}

// observer is the benchmark-owned seam around the service for the traced
// run: an http.Handler wrapper that times each request on the server
// side, per route, and (through retryCounter) the client's retryable
// failures. Client time minus handler time is transport plus client self
// time.
type observer struct {
	next      http.Handler
	transport http.RoundTripper

	mu        sync.Mutex
	handlerUS map[string][]float64
	retries   int
}

func (o *observer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	o.next.ServeHTTP(w, r)
	us := float64(time.Since(t0)) / 1e3
	o.mu.Lock()
	o.handlerUS[route(r)] = append(o.handlerUS[route(r)], us)
	o.mu.Unlock()
}

// route names the endpoints the per-layer metrics are about.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "post_jobs"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
		return "post_sweeps"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stacks"):
		return "get_stacks"
	}
	return "other"
}

func (o *observer) medianUS(route string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return median(o.handlerUS[route])
}

// retryCounter counts the attempts pkg/client will retry: transport
// errors, 429 and 5xx.
type retryCounter struct{ o *observer }

func (rc retryCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rc.o.transport.RoundTrip(req)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		rc.o.mu.Lock()
		rc.o.retries++
		rc.o.mu.Unlock()
	}
	return resp, err
}

// serviceRep runs one repetition of svc-sweep against a fresh server:
// phase A, one cold sweep submitted and streamed to its last NDJSON line;
// phase B, hitPairs sequential SubmitJob+Stacks pairs of one spec the
// sweep has already put in the content-addressed cache. Closed loop, one
// client. An operation is one sweep point or one round trip.
//
// With traced set the server sits behind the observer and the per-layer
// service metrics are returned as well; the end-to-end values of such a
// repetition are not used.
func serviceRep(ctx context.Context, seed int64, traced bool) (repOutcome, map[string]float64) {
	out := repOutcome{attempted: sweepPoints + hitPairs, values: map[string]float64{}}
	var before, mid, after runtime.MemStats
	runtime.GC()

	// Set-up is a fraction of a millisecond, so it is repeated and the
	// median taken; the last instance is the one the phases run against.
	var in *instance
	setups := make([]float64, setupSamples)
	for i := range setups {
		if in != nil {
			in.stop()
		}
		if i == setupSamples-1 {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		var err error
		in, err = startInstance("", traced)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			out.failed = out.attempted
			out.notes = append(out.notes, fmt.Sprintf("set-up: %v", err))
			return out, nil
		}
	}
	defer in.stop()
	runtime.ReadMemStats(&mid)

	a := phaseA(ctx, in.cl, seed, &out)
	// The sweep leaves a collection cycle running as often as not; phase B
	// allocates too little to start one, so finish it first and the round
	// trips are timed with the collector idle.
	runtime.GC()
	b := phaseB(ctx, in.cl, seed, &out)
	runtime.ReadMemStats(&after)
	if a.wall <= 0 || len(b.pairUS) == 0 {
		return out, nil
	}

	out.facts = facts{SHA256: digest(a.lines)}
	out.values["setup_s"] = median(setups)
	out.values["sim_cycles_per_s"] = float64(a.memCycles) / a.wall.Seconds()
	out.values["points_per_s"] = sweepPoints / a.wall.Seconds()
	out.values["result_p50_us"] = median(b.pairUS)
	out.values["allocs_per_run"] = float64(after.Mallocs - mid.Mallocs)
	out.values["alloc_mb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if !traced {
		return out, nil
	}
	return out, serviceLayers(ctx, in, seed, a, b)
}

type phaseAResult struct {
	wall      time.Duration // SubmitSweep to the last result line
	firstLine time.Duration
	memCycles int64
	lines     []byte // the result lines as the service renders them
	jobs      []string
}

// phaseA submits the cold sweep and follows its NDJSON stream to the end.
func phaseA(ctx context.Context, cl *client.Client, seed int64, out *repOutcome) phaseAResult {
	var res phaseAResult
	var lines bytes.Buffer
	var docs [][]byte
	t0 := time.Now()
	st, err := cl.SubmitSweep(ctx, sweepDoc(seed))
	if err != nil {
		out.failed += sweepPoints
		out.notes = append(out.notes, fmt.Sprintf("submitting sweep: %v", err))
		return res
	}
	n, err := cl.SweepResults(ctx, st.ID, func(l service.SweepResultLine) error {
		if res.firstLine == 0 {
			res.firstLine = time.Since(t0)
		}
		if l.State != service.StateDone || l.Cached {
			out.fail("sweep point %d (%s): state %s cached %v %s", l.Index, l.Label, l.State, l.Cached, l.Error)
		}
		raw, err := json.Marshal(l)
		if err != nil {
			return err
		}
		lines.Write(raw)
		lines.WriteByte('\n')
		docs = append(docs, l.Result)
		res.jobs = append(res.jobs, l.JobID)
		return nil
	})
	res.wall = time.Since(t0)
	if err != nil {
		out.notes = append(out.notes, fmt.Sprintf("streaming sweep results: %v", err))
	}
	if n != sweepPoints {
		out.failed += max(sweepPoints-n, 1)
		out.notes = append(out.notes, fmt.Sprintf("sweep delivered %d of %d points", n, sweepPoints))
	}
	for i, doc := range docs {
		var row struct {
			MemCycles int64 `json:"mem_cycles"`
		}
		if err := json.Unmarshal(doc, &row); err != nil || row.MemCycles != sweepCycles(seed) {
			out.fail("sweep point %d: result covers %d memory cycles, want %d (%v)", i, row.MemCycles, sweepCycles(seed), err)
		}
		res.memCycles += row.MemCycles
	}
	res.lines = lines.Bytes()
	return res
}

type phaseBResult struct {
	pairUS   []float64 // SubmitJob+Stacks
	submitUS []float64 // SubmitJob alone, client side
}

// phaseB asks for the already-cached spec hitPairs times, one request
// after the other. Every reply must be cached and byte-identical.
func phaseB(ctx context.Context, cl *client.Client, seed int64, out *repOutcome) phaseBResult {
	var res phaseBResult
	spec := hitSpec(seed)
	var first []byte
	for i := 0; i < hitPairs; i++ {
		t0 := time.Now()
		resp, err := cl.SubmitJob(ctx, spec)
		t1 := time.Now()
		var body []byte
		if err == nil {
			body, err = cl.Stacks(ctx, resp.ID)
		}
		pair := time.Since(t0)
		switch {
		case err != nil:
			out.fail("cached round trip %d: %v", i, err)
			if ctx.Err() != nil {
				out.failed += hitPairs - i - 1
				return res
			}
			continue
		case !resp.Cached:
			out.fail("cached round trip %d: reply not served from the cache (state %s)", i, resp.State)
			continue
		case first == nil:
			first = body
		case !bytes.Equal(body, first):
			out.fail("cached round trip %d: body differs from the first one", i)
			continue
		}
		res.pairUS = append(res.pairUS, float64(pair)/1e3)
		res.submitUS = append(res.submitUS, float64(t1.Sub(t0))/1e3)
	}
	return res
}

// serviceLayers collects the per-layer service metrics of a traced
// repetition; in is the (observed) instance the phases ran against.
func serviceLayers(ctx context.Context, in *instance, seed int64, a phaseAResult, b phaseBResult) map[string]float64 {
	m := map[string]float64{
		"client.submit_us":             median(b.submitUS),
		"service.post_jobs_us":         in.obs.medianUS("post_jobs"),
		"service.get_stacks_us":        in.obs.medianUS("get_stacks"),
		"service.post_sweeps_us":       in.obs.medianUS("post_sweeps"),
		"service.stream_first_line_ms": float64(a.firstLine) / 1e6,
		"service.hit_p95_us":           percentile(b.pairUS, highestPercentile(len(b.pairUS))),
		"service.hit_max_us":           summarize(b.pairUS).Max,
		"service.rejected":             float64(in.srv.Metrics().JobsRejected.Load()),
	}
	in.obs.mu.Lock()
	m["client.retries"] = float64(in.obs.retries)
	in.obs.mu.Unlock()
	hits, misses := in.srv.Metrics().CacheHits.Load(), in.srv.Metrics().CacheMisses.Load()
	if hits+misses > 0 {
		m["service.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// Where each point's time went, from the service's own status.
	var waits, walls []float64
	for _, id := range a.jobs {
		st, err := in.cl.Job(ctx, id)
		if err != nil {
			continue
		}
		waits = append(waits, st.StartedMS)
		walls = append(walls, st.SimWallMS)
	}
	m["service.queue_wait_ms"] = mean(waits)
	m["service.sim_wall_ms"] = mean(walls)
	if len(walls) > 0 {
		m["service.worker_util"] = mean(walls) * float64(len(walls)) / (float64(serviceWorkers()) * float64(a.wall) / 1e6)
	}

	if extra, err := journalExtra(ctx, seed, median(b.pairUS)); err == nil {
		m["service.journal_extra_us"] = extra
	}
	return m
}

// journalExtra repeats phase B against a server journaling to a DataDir
// under os.TempDir() (removed afterwards) and returns what that adds to
// the median cached round trip.
func journalExtra(ctx context.Context, seed int64, inMemoryUS float64) (float64, error) {
	dir, err := os.MkdirTemp("", "dramstacks-bench-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	in, err := startInstance(dir, false)
	if err != nil {
		return 0, err
	}
	defer in.stop()
	resp, err := in.cl.SubmitJob(ctx, hitSpec(seed))
	if err != nil {
		return 0, err
	}
	if _, err := in.cl.WaitJob(ctx, resp.ID); err != nil {
		return 0, err
	}
	var scratch repOutcome
	b := phaseB(ctx, in.cl, seed, &scratch)
	if scratch.failed > 0 || len(b.pairUS) == 0 {
		return 0, fmt.Errorf("journaled phase B: %v", scratch.notes)
	}
	return median(b.pairUS) - inMemoryUS, nil
}
