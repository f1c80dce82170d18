package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postSweep(t *testing.T, ts *httptest.Server, body string) (SweepStatusJSON, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatusJSON
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getSweepStatus(t *testing.T, ts *httptest.Server, id string) SweepStatusJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitSweepTerminal(t *testing.T, ts *httptest.Server, id string) SweepStatusJSON {
	t.Helper()
	// Generous: the big concurrent sweep sits just above 120s under
	// -race, and a too-tight deadline here fails runs that are merely
	// slow, not wrong.
	deadline := time.Now().Add(300 * time.Second)
	for time.Now().Before(deadline) {
		st := getSweepStatus(t, ts, id)
		if st.State != "running" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish in time", id)
	return SweepStatusJSON{}
}

func readSweepResults(t *testing.T, ts *httptest.Server, id string) []SweepResultLine {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("results Content-Type %q", got)
	}
	var lines []SweepResultLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line SweepResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepEndToEndByteIdentity is the acceptance criterion: every point
// of POST /v1/sweeps must produce a result byte-identical to submitting
// the same spec through POST /v1/jobs (here on a second, fresh server so
// nothing is shared).
func TestSweepEndToEndByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	_, single := newTestServer(t, Config{Workers: 1, QueueDepth: 16})

	st, code := postSweep(t, ts, `{
		"base": {"workload": "seq", "cycles": 20000},
		"axes": {"cores": [1, 2], "workload": ["seq", "random"]}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps status %d", code)
	}
	if st.Total != 4 || len(st.Jobs) != 4 {
		t.Fatalf("sweep has %d points (%d rows), want 4", st.Total, len(st.Jobs))
	}
	if len(st.AxisNames) != 2 || st.AxisNames[0] != "cores" || st.AxisNames[1] != "workload" {
		t.Errorf("axis_names = %v", st.AxisNames)
	}

	final := waitSweepTerminal(t, ts, st.ID)
	if final.State != "done" || final.Completed != 4 {
		t.Fatalf("sweep ended %s with %d/%d points", final.State, final.Completed, final.Total)
	}

	lines := readSweepResults(t, ts, st.ID)
	if len(lines) != 4 {
		t.Fatalf("got %d result lines, want 4", len(lines))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Errorf("line %d has index %d: stream must be in point order", i, line.Index)
		}
		if line.State != StateDone || line.Result == nil {
			t.Fatalf("point %d: state %s, result present %v", i, line.State, line.Result != nil)
		}

		// The sweep point's job serves stacks byte-identical to a
		// single-job run of the same spec on an unrelated server.
		fromSweep, code := getBody(t, ts, "/v1/jobs/"+line.JobID+"/stacks")
		if code != http.StatusOK {
			t.Fatalf("point %d stacks status %d", i, code)
		}
		sub, code := postJob(t, single, fmt.Sprintf(
			`{"workload":%q,"cores":%s,"cycles":20000}`,
			line.Axes["workload"], line.Axes["cores"]))
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("single POST status %d", code)
		}
		if sub.SpecHash != line.SpecHash {
			t.Errorf("point %d: sweep spec hash %s != single-job hash %s", i, line.SpecHash, sub.SpecHash)
		}
		waitState(t, single, sub.ID, StateDone)
		fromSingle, _ := getBody(t, single, "/v1/jobs/"+sub.ID+"/stacks")
		if !bytes.Equal(fromSweep, fromSingle) {
			t.Errorf("point %d (%s): sweep stacks differ from single-job stacks", i, line.Label)
		}

		// The embedded NDJSON result is the same document, compacted.
		var compact bytes.Buffer
		if err := json.Compact(&compact, fromSingle); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Result, compact.Bytes()) {
			t.Errorf("point %d: embedded result differs from compacted single-job stacks", i)
		}
	}
}

// TestSweepSharesCacheWithSingles submits one spec as a plain job, then a
// sweep covering it: the overlapping point must be served from the cache
// without re-simulating, and a later identical sweep is entirely cached.
func TestSweepSharesCacheWithSingles(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})

	sub, _ := postJob(t, ts, `{"workload":"seq","cores":1,"cycles":20000}`)
	waitState(t, ts, sub.ID, StateDone)

	sweepBody := `{"base": {"workload": "seq", "cycles": 20000}, "axes": {"cores": [1, 2]}}`
	st, code := postSweep(t, ts, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps status %d", code)
	}
	if !st.Jobs[0].Cached {
		t.Error("point cores=1 should be a cache hit from the earlier single job")
	}
	if st.Jobs[1].Cached {
		t.Error("point cores=2 cannot be cached yet")
	}
	waitSweepTerminal(t, ts, st.ID)

	st2, _ := postSweep(t, ts, sweepBody)
	for i, row := range st2.Jobs {
		if !row.Cached {
			t.Errorf("re-run point %d not served from cache", i)
		}
	}
	final := getSweepStatus(t, ts, st2.ID)
	if final.State != "done" {
		t.Errorf("fully cached sweep state %s, want done", final.State)
	}
	if hits := s.Metrics().CacheHits.Load(); hits < 3 {
		t.Errorf("cache hits = %d, want >= 3 (1 overlap + 2 re-run)", hits)
	}
}

// TestSweepCancel cancels a running sweep: queued points go terminal
// immediately, the running one stops with a partial result, and the
// sweep state lands on "cancelled". A second DELETE conflicts.
func TestSweepCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})

	st, code := postSweep(t, ts, `{
		"base": {"workload": "seq,random", "cores": 2},
		"axes": {"cycles": [4000000000, 4000000001, 4000000002]}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps status %d", code)
	}
	// Wait until the first point is actually simulating.
	waitState(t, ts, st.Jobs[0].JobID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", resp.StatusCode)
	}

	final := waitSweepTerminal(t, ts, st.ID)
	if final.State != "cancelled" {
		t.Fatalf("sweep state %s, want cancelled", final.State)
	}
	for _, row := range final.Jobs {
		if row.State != StateCancelled {
			t.Errorf("point %d state %s, want cancelled", row.Index, row.State)
		}
	}

	// The results stream still serves every point, in order, with the
	// partial result of the interrupted one.
	lines := readSweepResults(t, ts, st.ID)
	if len(lines) != 3 {
		t.Fatalf("got %d result lines, want 3", len(lines))
	}
	if lines[0].Result == nil {
		t.Error("interrupted point should carry its partial result")
	}

	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE status %d, want 409", resp2.StatusCode)
	}
}

// TestSweepBadRequests exercises the validation and error envelope of
// the sweep endpoints.
func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	cases := []struct {
		name string
		body string
	}{
		{"not json", `nope`},
		{"unknown top-level field", `{"bases": {"workload": "seq"}}`},
		{"unknown axis", `{"base": {"workload": "seq"}, "axes": {"core": [1, 2]}}`},
		{"bad version", `{"version": 2, "base": {"workload": "seq"}, "axes": {"cores": [1]}}`},
		{"empty axis", `{"base": {"workload": "seq"}, "axes": {"cores": []}}`},
		{"invalid point", `{"base": {"workload": "seq"}, "axes": {"cores": [99]}}`},
		{"oversized write queue", `{"base": {"workload": "bfs"}, "axes": {"wq": [128, 1000000000]}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope errorJSON
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if err != nil || envelope.Error.Code != ErrInvalidSweep || envelope.Error.Message == "" {
			t.Errorf("%s: envelope %+v (decode err %v), want code %q", tc.name, envelope, err, ErrInvalidSweep)
		}
	}

	if _, code := getBody(t, ts, "/v1/sweeps/sweep-999999"); code != http.StatusNotFound {
		t.Errorf("unknown sweep status %d, want 404", code)
	}
}

// TestSweepConcurrentWithSingles runs an 8-point sweep while single-job
// submissions of overlapping specs hammer the service — under -race this
// exercises sweep registration, in-flight dedup across entry points, the
// shared cache and the collector for data races.
func TestSweepConcurrentWithSingles(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	st, code := postSweep(t, ts, `{
		"base": {"workload": "seq", "cycles": 20000},
		"axes": {"cores": [1, 2, 4, 8], "workload": ["seq", "random"]}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps status %d", code)
	}
	if st.Total != 8 {
		t.Fatalf("sweep has %d points, want 8", st.Total)
	}

	var wg sync.WaitGroup
	singleIDs := make([]string, 6)
	for i := range singleIDs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Overlap the sweep's specs so dedup and cache sharing race
			// with the sweep's own registration.
			spec := fmt.Sprintf(`{"workload":"seq","cores":%d,"cycles":20000}`, 1<<(i%4))
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out SubmitResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			singleIDs[i] = out.ID
		}(i)
	}
	wg.Wait()

	final := waitSweepTerminal(t, ts, st.ID)
	if final.State != "done" {
		t.Fatalf("sweep ended %s", final.State)
	}
	lines := readSweepResults(t, ts, st.ID)
	if len(lines) != 8 {
		t.Fatalf("got %d result lines, want 8", len(lines))
	}
	for i, line := range lines {
		if line.State != StateDone || line.Result == nil {
			t.Errorf("point %d: state %s", i, line.State)
		}
	}
	for i, id := range singleIDs {
		if id == "" {
			continue
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			jst := getStatus(t, ts, id)
			if jst.State == StateDone {
				break
			}
			if jst.State.Terminal() {
				t.Fatalf("single job %d ended %s: %s", i, jst.State, jst.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("single job %d stuck in %s", i, jst.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestSweepList lists sweeps in submission order.
func TestSweepList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})

	first, _ := postSweep(t, ts, `{"base": {"workload": "seq", "cycles": 10000}, "axes": {"cores": [1, 2]}}`)
	second, _ := postSweep(t, ts, `{"base": {"workload": "random", "cycles": 10000}, "axes": {"cores": [1, 2]}}`)
	waitSweepTerminal(t, ts, first.ID)
	waitSweepTerminal(t, ts, second.ID)

	body, code := getBody(t, ts, "/v1/sweeps")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/sweeps status %d", code)
	}
	var list []SweepStatusJSON
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != first.ID || list[1].ID != second.ID {
		t.Errorf("list = %+v, want [%s %s] in order", list, first.ID, second.ID)
	}
	if list[0].SweepHash == list[1].SweepHash {
		t.Error("distinct sweeps share a sweep hash")
	}
}
