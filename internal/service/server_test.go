package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dramstacks/internal/exp"
)

// newTestServer starts a service with a quiet logger and small pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (SubmitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) StatusJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) StatusJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach state %s in time", id, want)
	return StatusJSON{}
}

func getBody(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// TestSubmitPollStacks is the end-to-end round trip: the stacks the
// service serves are byte-identical to a direct run of the same spec.
func TestSubmitPollStacks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	spec := exp.Spec{Workload: "seq", Cores: 1, Budget: 20_000}
	sub, code := postJob(t, ts, `{"workload":"seq","cores":1,"cycles":20000}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", code)
	}
	wantHash, _ := spec.Hash()
	if sub.SpecHash != wantHash {
		t.Errorf("spec_hash %s, want %s", sub.SpecHash, wantHash)
	}

	waitState(t, ts, sub.ID, StateDone)
	got, code := getBody(t, ts, "/v1/jobs/"+sub.ID+"/stacks")
	if code != http.StatusOK {
		t.Fatalf("GET stacks status %d: %s", code, got)
	}

	res, err := exp.RunSpec(context.Background(), spec, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("service stacks differ from direct run:\n service: %s\n direct:  %s", got, want)
	}
}

// TestDuplicateSubmissionIsCacheHit resubmits an identical spec (in a
// different field order) and expects an instant cached answer plus a
// cache-hit counter tick on /metrics.
func TestDuplicateSubmissionIsCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	first, code := postJob(t, ts, `{"workload":"seq","cores":1,"cycles":20000}`)
	if code != http.StatusAccepted {
		t.Fatalf("first POST status %d", code)
	}
	waitState(t, ts, first.ID, StateDone)

	second, code := postJob(t, ts, `{"cycles":20000,"cores":1,"workload":"seq","map":"def"}`)
	if code != http.StatusOK {
		t.Fatalf("second POST status %d, want 200", code)
	}
	if !second.Cached || second.State != StateDone {
		t.Errorf("second submission: %+v, want cached done", second)
	}
	if second.ID == first.ID {
		t.Error("cached submission should get its own job id")
	}

	a, _ := getBody(t, ts, "/v1/jobs/"+first.ID+"/stacks")
	b, _ := getBody(t, ts, "/v1/jobs/"+second.ID+"/stacks")
	if !bytes.Equal(a, b) {
		t.Error("cached stacks differ from original")
	}

	metrics, _ := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "dramstacksd_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit:\n%s", metrics)
	}
}

// longSpec is a mix workload (no prewarm, starts instantly) with an
// effectively unbounded budget; it only ends by cancellation.
const longSpec = `{"workload":"seq,random","cores":2,"cycles":4000000000}`

// TestQueueOverflowReturns429 fills the single-worker, depth-1 queue and
// expects backpressure with Retry-After.
func TestQueueOverflowReturns429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	running, code := postJob(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST status %d", code)
	}
	waitState(t, ts, running.ID, StateRunning)

	queued, code := postJob(t, ts, `{"workload":"random,seq","cores":2,"cycles":4000000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("second POST status %d, want 202 (queued)", code)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"strided,seq","cores":2,"cycles":4000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	metrics, _ := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "dramstacksd_jobs_rejected_total 1") {
		t.Error("metrics missing rejected counter")
	}

	// Cancel both so Cleanup's Close returns quickly.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestListAfterOutOfOrderUnregister refuses the older of two registered
// jobs (a 429 racing a later submission) and expects GET /v1/jobs to
// list only the survivor, not to dereference the refused job's id.
func TestListAfterOutOfOrderUnregister(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	spec := exp.Spec{Workload: "seq", Cores: 1, Budget: 20_000}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	a := s.registerJob(spec, hash)
	b := s.registerJob(spec, hash)
	s.unregisterJob(a)

	body, code := getBody(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs status %d: %s", code, body)
	}
	var list []StatusJSON
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != b.ID {
		t.Errorf("GET /v1/jobs = %+v, want only %s", list, b.ID)
	}
}

// TestCancelRunningJob checks DELETE stops a running simulation promptly
// and partial stacks remain retrievable.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	sub, _ := postJob(t, ts, longSpec)
	waitState(t, ts, sub.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	var st StatusJSON
	for time.Now().Before(deadline) {
		st = getStatus(t, ts, sub.ID)
		if st.State == StateCancelled {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateCancelled {
		t.Fatalf("job state %s, want cancelled", st.State)
	}
	if st.MemCycles <= 0 || st.MemCycles >= 4_000_000_000 {
		t.Errorf("cancelled job simulated %d cycles, want a partial run", st.MemCycles)
	}

	body, code := getBody(t, ts, "/v1/jobs/"+sub.ID+"/stacks")
	if code != http.StatusOK {
		t.Fatalf("partial stacks status %d", code)
	}
	var row exp.RowJSON
	if err := json.Unmarshal(body, &row); err != nil {
		t.Fatal(err)
	}
	if !row.Cancelled {
		t.Error("partial result not marked cancelled")
	}

	// A second DELETE conflicts.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE status %d, want 409", resp2.StatusCode)
	}
}

// TestSamplesNDJSONStream submits a sampled run and reads the NDJSON
// stream to completion.
func TestSamplesNDJSONStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	sub, code := postJob(t, ts, `{"workload":"seq,random","cores":2,"cycles":100000,"sample":10000}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/samples")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type %q", got)
	}
	var lines []exp.SampleJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var s exp.SampleJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 5 {
		t.Fatalf("got %d samples, want >= 5 for 100k cycles at 10k interval", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].EndCycle <= lines[i-1].EndCycle {
			t.Errorf("samples out of order: %d then %d", lines[i-1].EndCycle, lines[i].EndCycle)
		}
	}

	// Sampling-off jobs refuse the stream.
	plain, _ := postJob(t, ts, `{"workload":"seq,random","cores":1,"cycles":10000}`)
	if _, code := getBody(t, ts, "/v1/jobs/"+plain.ID+"/samples"); code != http.StatusConflict {
		t.Errorf("samples on unsampled job: status %d, want 409", code)
	}
}

// TestInFlightDedup coalesces an identical submission onto the running
// job instead of queueing a second simulation.
func TestInFlightDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	first, _ := postJob(t, ts, longSpec)
	waitState(t, ts, first.ID, StateRunning)
	second, code := postJob(t, ts, longSpec)
	if code != http.StatusOK {
		t.Fatalf("duplicate POST status %d, want 200", code)
	}
	if !second.Deduped || second.ID != first.ID {
		t.Errorf("duplicate submission %+v, want dedup onto %s", second, first.ID)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmissions hammers the service from several goroutines;
// run under -race this exercises the queue, pool, cache and job state
// machine for data races.
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	const n = 12
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A few distinct specs plus repeats to exercise dedup/cache.
			spec := fmt.Sprintf(`{"workload":"seq,random","cores":%d,"cycles":%d}`, 1+i%3, 10_000+1000*(i%4))
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out SubmitResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = fmt.Errorf("decode: %v", err)
				return
			}
			ids[i] = out.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, id := range ids {
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := getStatus(t, ts, id)
			if st.State == StateDone {
				break
			}
			if st.State.Terminal() {
				t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, code := getBody(t, ts, "/v1/jobs/"+id+"/stacks"); code != http.StatusOK {
			t.Errorf("job %s stacks status %d", id, code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	cases := []struct {
		body string
		want int
	}{
		{`{"workload":"nope"}`, http.StatusBadRequest},
		{`{"workload":"seq","cores":99}`, http.StatusBadRequest},
		{`{"bogus_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code := postJob(t, ts, tc.body); code != tc.want {
			t.Errorf("POST %q: status %d, want %d", tc.body, code, tc.want)
		}
	}

	if _, code := getBody(t, ts, "/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", code)
	}
	if body, code := getBody(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

// TestErrorEnvelope asserts every /v1 error response carries the unified
// {"error": {"code", "message"}} envelope with the documented code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	check := func(name string, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
			return
		}
		var envelope errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Errorf("%s: body is not the error envelope: %v", name, err)
			return
		}
		if envelope.Error.Code != wantCode || envelope.Error.Message == "" {
			t.Errorf("%s: envelope %+v, want code %q and a message", name, envelope.Error, wantCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	check("invalid spec", resp, http.StatusBadRequest, ErrInvalidSpec)

	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(`{"axes":{"cores":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	check("invalid sweep", resp, http.StatusBadRequest, ErrInvalidSweep)

	resp, err = http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	check("job not found", resp, http.StatusNotFound, ErrNotFound)

	resp, err = http.Get(ts.URL + "/v1/sweeps/sweep-999999")
	if err != nil {
		t.Fatal(err)
	}
	check("sweep not found", resp, http.StatusNotFound, ErrNotFound)

	// Fill the queue for a queue_full envelope.
	running, _ := postJob(t, ts, longSpec)
	waitState(t, ts, running.ID, StateRunning)
	queued, _ := postJob(t, ts, `{"workload":"random,seq","cores":2,"cycles":4000000000}`)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"strided,seq","cores":2,"cycles":4000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	check("queue full", resp, http.StatusTooManyRequests, ErrQueueFull)

	// Stacks on a queued job conflicts.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/stacks")
	if err != nil {
		t.Fatal(err)
	}
	check("stacks before done", resp, http.StatusConflict, ErrConflict)

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}

	// Cancelling an already-cancelled job conflicts — still enveloped.
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, ts, running.ID).State != StateCancelled && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check("double cancel", resp, http.StatusConflict, ErrConflict)
}

// TestCancelledResultNotServedFromCache is the regression test for the
// partial-result cache bug: after a job is cancelled mid-run, submitting
// the identical spec again must re-simulate, not serve the truncated
// stacks as if the full run had happened.
func TestCancelledResultNotServedFromCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	first, _ := postJob(t, ts, longSpec)
	waitState(t, ts, first.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, ts, first.ID).State != StateCancelled && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// The partial stacks stay retrievable on the cancelled job itself...
	if body, code := getBody(t, ts, "/v1/jobs/"+first.ID+"/stacks"); code != http.StatusOK {
		t.Fatalf("partial stacks status %d: %s", code, body)
	}

	// ...but an identical resubmission must not be answered from cache.
	second, code := postJob(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status %d, want 202 (fresh run)", code)
	}
	if second.Cached {
		t.Fatal("cancelled partial result was served from the cache as complete")
	}
	waitState(t, ts, second.ID, StateRunning)
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
	if _, err := http.DefaultClient.Do(req2); err != nil {
		t.Fatal(err)
	}
}
