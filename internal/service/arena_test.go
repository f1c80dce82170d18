package service

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dramstacks/internal/cache"
	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
)

// metricValue scrapes one unlabelled metric from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	body, _ := getBody(t, ts, "/metrics")
	m := regexp.MustCompile(`(?m)^` + name + ` (-?\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics has no %s:\n%s", name, body)
	}
	v, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return v
}

// directRun is the result document of a fresh run outside the service.
func directRun(t *testing.T, doc string) []byte {
	t.Helper()
	spec, err := exp.DecodeSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.RunSpec(context.Background(), spec, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestArenaMetricsMoveAcrossJobs runs two jobs through one worker: the
// first leaves its machine's arrays in the worker's arena
// (dramstacksd_arena_bytes), the second, a smaller machine, takes its
// arrays from there (dramstacksd_arena_reuses_total) without growing it,
// and serves what a fresh run gives.
func TestArenaMetricsMoveAcrossJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	metric := func(name string) int64 { return metricValue(t, ts, name) }
	if b, r := metric("dramstacksd_arena_bytes"), metric("dramstacksd_arena_reuses_total"); b != 0 || r != 0 {
		t.Fatalf("an idle server reports %d arena bytes and %d reuses", b, r)
	}

	first, _ := postJob(t, ts, `{"workload":"seq,random","cores":4,"cycles":20000}`)
	waitState(t, ts, first.ID, StateDone)
	held := metric("dramstacksd_arena_bytes")
	if want := cache.DefaultHierConfig(4).ArrayBytes(); held != want || metric("dramstacksd_arena_reuses_total") != 0 {
		t.Errorf("after one 4-core job the worker holds %d bytes (want %d) and reused %d arrays (want 0)",
			held, want, metric("dramstacksd_arena_reuses_total"))
	}

	const smaller = `{"workload":"seq,random","cores":2,"cycles":20000,"policy":"closed"}`
	second, _ := postJob(t, ts, smaller)
	waitState(t, ts, second.ID, StateDone)
	if b, r := metric("dramstacksd_arena_bytes"), metric("dramstacksd_arena_reuses_total"); b != held || r != 5 {
		t.Errorf("after a 2-core job on the same worker: %d bytes (want %d, flat) and %d reuses (want 5: the LLC, two L1s, two L2s)", b, held, r)
	}
	if got, _ := getBody(t, ts, "/v1/jobs/"+second.ID+"/stacks"); !bytes.Equal(got, directRun(t, smaller)) {
		t.Error("the job that ran on a reused arena differs from a fresh run")
	}
}

// lockedBuffer is a log sink the test may read while the server writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestArenaWorkerSurvivesPanic makes one job's simulation panic, through
// the server's run seam: the job fails with the panic's message, is
// counted and leaves its stack in the log; the single worker keeps
// serving, and it has dropped its arena — the next job reuses nothing and
// is byte-identical to a fresh run.
func TestArenaWorkerSurvivesPanic(t *testing.T) {
	var logs lockedBuffer
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	s.run = func(ctx context.Context, spec exp.Spec, opt exp.RunOptions) (*sim.Result, error) {
		if spec.Budget == 6_666 {
			// Mid-use: the machine is built on the worker's arena first.
			if _, err := exp.RunSpec(ctx, spec, opt); err != nil {
				return nil, err
			}
			panic("cpu: replay reached an in-flight load")
		}
		return exp.RunSpec(ctx, spec, opt)
	}
	metric := func(name string) int64 { return metricValue(t, ts, name) }

	before, _ := postJob(t, ts, `{"workload":"seq,random","cores":4,"cycles":20000}`)
	waitState(t, ts, before.ID, StateDone)

	bad, _ := postJob(t, ts, `{"workload":"seq,random","cores":4,"cycles":6666}`)
	st := waitState(t, ts, bad.ID, StateFailed)
	if !strings.Contains(st.Error, "simulation panicked: cpu: replay reached an in-flight load") {
		t.Errorf("the panicked job's error is %q, want the panic's message", st.Error)
	}
	if body, code := getBody(t, ts, "/v1/jobs/"+bad.ID+"/stacks"); code != http.StatusInternalServerError || !strings.Contains(string(body), ErrJobFailed) {
		t.Errorf("the panicked job's stacks: %d %s", code, body)
	}
	if n := metric("dramstacksd_jobs_panicked_total"); n != 1 {
		t.Errorf("dramstacksd_jobs_panicked_total = %d, want 1", n)
	}
	if out := logs.String(); !strings.Contains(out, "job panicked") || !strings.Contains(out, "runtime/debug.Stack") {
		t.Errorf("the log has no panic record with a stack:\n%s", out)
	}
	reuses := metric("dramstacksd_arena_reuses_total")
	if reuses == 0 {
		t.Fatal("the panicked job was not on the worker's warm arena: the test proves nothing")
	}

	const next = `{"workload":"random,seq","cores":2,"cycles":20000}`
	after, code := postJob(t, ts, next)
	if code != http.StatusAccepted {
		t.Fatalf("the server stopped accepting jobs after a panic: %d", code)
	}
	waitState(t, ts, after.ID, StateDone)
	if got, _ := getBody(t, ts, "/v1/jobs/"+after.ID+"/stacks"); !bytes.Equal(got, directRun(t, next)) {
		t.Error("the job after the panic differs from a fresh run")
	}
	if b, r := metric("dramstacksd_arena_bytes"), metric("dramstacksd_arena_reuses_total"); b != cache.DefaultHierConfig(2).ArrayBytes() || r != reuses {
		t.Errorf("after the panic the worker holds %d bytes and has reused %d arrays (%d before): it kept the dead machine's arena",
			b, r, reuses)
	}
}
