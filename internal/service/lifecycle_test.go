package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
)

// The four specs of TestLifecycleObservables, and its sweep, whose points
// are lifeA, lifeB and lifeD in that order.
const (
	lifeA     = `{"workload":"seq","cores":1,"cycles":20000}`
	lifeB     = `{"workload":"random","cores":1,"cycles":20000}`
	lifeC     = `{"workload":"seq,random","cores":2,"cycles":20000}`
	lifeD     = `{"workload":"strided","cores":1,"cycles":20000}`
	lifeSweep = `{"base":{"workload":"seq","cores":1,"cycles":20000},"axes":{"workload":["seq","random","strided"]}}`
)

// lifecycle drives one server over a data dir and writes down everything
// a client or an operator can observe of it: each response's status and
// body, the job and sweep counters on /metrics and the journal's records.
type lifecycle struct {
	t      *testing.T
	dir    string
	s      *Server
	ts     *httptest.Server
	out    strings.Builder
	names  *strings.Replacer // spec hash → A, B, C, D
	closed bool
}

// start opens a server with one worker and a one-deep queue over the data
// dir; its simulations wait in the run seam for a token on release.
func (l *lifecycle) start(release, abort <-chan struct{}) {
	s, err := New(Config{
		Workers: 1, QueueDepth: 1, DataDir: l.dir,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		l.t.Fatal(err)
	}
	s.run = func(ctx context.Context, spec exp.Spec, opt exp.RunOptions) (*sim.Result, error) {
		select {
		case <-release:
		case <-abort:
		}
		return exp.RunSpec(ctx, spec, opt)
	}
	l.s, l.ts, l.closed = s, httptest.NewServer(s.Handler()), false
}

func (l *lifecycle) stop() {
	if !l.closed {
		l.closed = true
		l.ts.Close()
		l.s.Close()
	}
}

var (
	lifeTimes     = regexp.MustCompile(`"submitted": "[^"]*"`)
	lifeMS        = regexp.MustCompile(`"(queue_wait_ms|sim_wall_ms)": [-+.0-9e]+`)
	lifeSweepHash = regexp.MustCompile(`"sweep_hash": "[0-9a-f]+"`)
)

// normalize blanks what differs from run to run: times, durations and
// the sweep hash; spec hashes become the spec's letter.
func (l *lifecycle) normalize(b string) string {
	b = lifeTimes.ReplaceAllString(b, `"submitted": "T"`)
	b = lifeMS.ReplaceAllString(b, `"$1": MS`)
	b = lifeSweepHash.ReplaceAllString(b, `"sweep_hash": "S"`)
	return l.names.Replace(b)
}

// do sends one request and records its status, Retry-After and body.
func (l *lifecycle) do(method, path, body string) {
	l.t.Helper()
	req, err := http.NewRequest(method, l.ts.URL+path, strings.NewReader(body))
	if err != nil {
		l.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		l.t.Fatal(err)
	}
	fmt.Fprintf(&l.out, "%s %s", method, path)
	if body != "" {
		fmt.Fprintf(&l.out, " %s", l.names.Replace(body))
	}
	fmt.Fprintf(&l.out, "\n-> %d", resp.StatusCode)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		fmt.Fprintf(&l.out, " Retry-After: %s", ra)
	}
	fmt.Fprintf(&l.out, "\n%s", l.normalize(string(b)))
}

// results records one line per point of the sweep's NDJSON stream.
func (l *lifecycle) results(id string) {
	l.t.Helper()
	fmt.Fprintf(&l.out, "GET /v1/sweeps/%s/results\n", id)
	for _, line := range readSweepResults(l.t, l.ts, id) {
		fmt.Fprintf(&l.out, "  %d %s %s %s cached=%v error=%q result=%v\n", line.Index, line.JobID,
			l.names.Replace(line.SpecHash), line.State, line.Cached, line.Error, line.Result != nil)
	}
}

// lifeCounters are the job and sweep counters of /metrics.
var lifeCounters = regexp.MustCompile(`(?m)^dramstacksd_(jobs_total|jobs_submitted|jobs_rejected|jobs_panicked|sweeps|sweep_points|cache_hits|cache_misses|recovered|journal_records)\S* \d+$`)

func (l *lifecycle) counters() string {
	body, _ := getBody(l.t, l.ts, "/metrics")
	return strings.Join(lifeCounters.FindAllString(string(body), -1), "\n")
}

// metrics records the counters, first waiting for the worker and the
// sweep collectors to settle on what the test has set in motion: busy
// workers held in the run seam and sweepsDone sweeps collected.
func (l *lifecycle) metrics(busy, sweepsDone int64) {
	l.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(l.t, l.ts, "dramstacksd_workers_busy") != busy ||
		metricValue(l.t, l.ts, "dramstacksd_sweeps_done_total") != sweepsDone {
		if time.Now().After(deadline) {
			l.t.Fatalf("the server did not settle:\n%s", l.counters())
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Fprintf(&l.out, "metrics\n%s\n", l.counters())
}

// journal records the journal's entries, one "op id state" line each.
func (l *lifecycle) journal() {
	l.t.Helper()
	f, err := os.Open(filepath.Join(l.dir, journalName))
	if err != nil {
		l.t.Fatal(err)
	}
	defer f.Close()
	l.out.WriteString("journal\n")
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			l.t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		switch {
		case e.Job != nil:
			fmt.Fprintf(&l.out, "  %s %s %s %s\n", e.Op, e.Job.ID, l.names.Replace(e.Job.SpecHash), e.Job.State)
		case e.Result != nil:
			fmt.Fprintf(&l.out, "  %s %s %s cached=%v result=%v\n", e.Op, e.Result.ID, e.Result.State,
				e.Result.Cached, e.Result.Result != "")
		case e.Sweep != nil:
			fmt.Fprintf(&l.out, "  %s %s %d points\n", e.Op, e.Sweep.ID, len(e.Sweep.Points))
		}
	}
	if err := sc.Err(); err != nil {
		l.t.Fatal(err)
	}
}

// TestLifecycleObservables walks a job through every lifecycle step on
// a server with one worker, held by the run seam, and a one-deep queue:
// a fresh submit, an identical one coalesced onto it, a distinct one
// refused with 429 while the queue is full and queued fresh once it
// drains, a sweep with a cached, a coalesced and a fresh point, the
// cancellation of a queued job and of the sweep, and a restart on the
// same data dir. Every response, the job and sweep counters and the
// journal must read as testdata/lifecycle.golden holds.
func TestLifecycleObservables(t *testing.T) {
	l := &lifecycle{t: t, dir: t.TempDir()}
	var pairs []string
	for name, doc := range map[string]string{"A": lifeA, "B": lifeB, "C": lifeC, "D": lifeD} {
		spec, err := exp.DecodeSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		h, err := spec.Normalized().Hash()
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, h, name, doc, name)
	}
	l.names = strings.NewReplacer(pairs...)

	release, abort := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		close(abort)
		l.stop()
	})
	l.start(release, abort)
	id := func(n int) string { return fmt.Sprintf("/v1/jobs/job-%06d", n) }

	l.do("POST", "/v1/jobs", lifeA) // job-000001, fresh
	waitState(t, l.ts, "job-000001", StateRunning)
	l.do("POST", "/v1/jobs", lifeA) // coalesced onto job-000001
	l.do("POST", "/v1/jobs", lifeB) // job-000002 fills the queue
	l.do("POST", "/v1/jobs", lifeC) // job-000003 refused
	l.metrics(1, 0)

	release <- struct{}{} // job-000001 runs to done, job-000002 starts
	waitState(t, l.ts, "job-000002", StateRunning)
	l.do("POST", "/v1/jobs", lifeC) // job-000004: fresh, not job-000003
	l.do("POST", "/v1/sweeps", lifeSweep)
	l.do("DELETE", id(4), "")
	l.do("DELETE", "/v1/sweeps/sweep-000001", "")
	l.do("GET", "/v1/sweeps/sweep-000001", "")

	release <- struct{}{} // job-000002 sees its cancel
	l.metrics(0, 1)
	l.results("sweep-000001")
	l.do("GET", "/v1/jobs", "")
	l.journal()

	l.stop()
	l.out.WriteString("restart\n")
	l.start(release, abort)
	l.metrics(0, 1)
	l.do("GET", "/v1/jobs", "")
	l.do("GET", "/v1/sweeps/sweep-000001", "")
	l.results("sweep-000001")
	l.do("POST", "/v1/jobs", lifeB) // the cancelled partial is not a hit
	waitState(t, l.ts, "job-000007", StateRunning)
	l.do("POST", "/v1/jobs", lifeA) // a hit, numbered past the recovered jobs
	l.do("DELETE", id(7), "")
	release <- struct{}{}
	l.metrics(0, 1)
	l.journal()

	golden := filepath.Join("testdata", "lifecycle.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.out.String(); got != string(want) {
		t.Errorf("the lifecycle's observables moved from %s; got:\n%s", golden, got)
	}
}

// cancelHold is a log handler that stops the worker that logs "job
// cancelled" until release is closed: its job is then terminal but not yet
// out of the server's in-flight set.
type cancelHold struct {
	slog.Handler
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *cancelHold) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "job cancelled" {
		h.once.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	return h.Handler.Handle(ctx, r)
}

// TestResubmitAfterCancelledRunIsFresh resubmits a spec whose run was
// just cancelled, while the worker has recorded the cancel but not yet
// returned: the submission must queue a fresh job, not coalesce onto the
// dead one.
func TestResubmitAfterCancelledRunIsFresh(t *testing.T) {
	hold := &cancelHold{
		Handler: slog.NewTextHandler(io.Discard, nil),
		held:    make(chan struct{}),
		release: make(chan struct{}),
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Logger: slog.New(hold)})
	released := false
	defer func() {
		if !released {
			close(hold.release)
		}
	}()

	first, _ := postJob(t, ts, longSpec)
	waitState(t, ts, first.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-hold.held:
	case <-time.After(60 * time.Second):
		t.Fatal("the cancelled run never finished")
	}

	again, code := postJob(t, ts, longSpec)
	released = true
	close(hold.release)
	if code != http.StatusAccepted || again.Deduped || again.ID == first.ID || again.State != StateQueued {
		t.Errorf("resubmission after a cancelled run: %d %+v, want 202 and a fresh queued job", code, again)
	}
}

// TestSweepResultsConcurrentReaders streams one finished sweep's results
// to several clients at once: each gets the same bytes, and under the
// race detector no two streams write to a shared line.
func TestSweepResultsConcurrentReaders(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	st, code := postSweep(t, ts, `{"base":{"workload":"seq,random","cores":2,"cycles":20000},"axes":{"policy":["open","closed"]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps status %d", code)
	}
	waitSweepTerminal(t, ts, st.ID)
	want, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/results")
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(got) != string(want) {
					t.Errorf("a concurrent reader got %d other bytes (%v)", len(got), err)
				}
			}
		}()
	}
	wg.Wait()
}
