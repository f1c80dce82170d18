package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
)

// FuzzJournalReplay feeds arbitrary bytes to the store as a pre-crash
// journal and checks the recovery contract: corruption is never fatal,
// a torn tail is sealed so subsequent appends survive, and records
// appended after recovery are themselves recovered on the next open.
func FuzzJournalReplay(f *testing.F) {
	valid := `{"op":"job","job":{"id":"j1","spec_hash":"h1","state":"queued"}}` + "\n"
	result := `{"op":"result","result":{"id":"j1","state":"done","result":"{}"}}` + "\n"
	sweep := `{"op":"sweep","sweep":{"id":"s1","sweep_hash":"sh","axis_names":["cores"],"points":[]}}` + "\n"
	seeds := []string{
		"",
		valid,
		valid + result,
		valid + result + sweep,
		valid + `{"op":"job","job":{"id":"j2"`, /* torn tail, no newline */
		"not json at all\n" + valid,
		`{"op":"nonsense"}` + "\n" + valid,
		"\n\n" + valid + "\n\n",
		valid[:len(valid)/2],
		string([]byte{0xff, 0xfe, 0x00}) + "\n" + valid,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, journal []byte) {
		if len(journal) > 1<<20 {
			t.Skip("journal lines beyond the replay scanner budget")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir, nil)
		if err != nil {
			t.Fatalf("recovery must never fail on journal corruption: %v", err)
		}
		jobs, _, _ := st.Recovered()
		for _, rec := range jobs {
			if rec.ID == "" {
				t.Fatal("recovered a job with no id")
			}
		}

		// Appends after recovery must survive the next open: sealTornTail
		// has to protect the new record from any torn final line above.
		rec := &jobRecord{ID: "fuzz-post-crash", SpecHash: "fh", State: StateQueued}
		if err := st.AppendJob(rec); err != nil {
			t.Fatalf("appending after recovery: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("closing store: %v", err)
		}

		st2, err := OpenStore(dir, nil)
		if err != nil {
			t.Fatalf("reopening after append: %v", err)
		}
		defer st2.Close()
		jobs2, _, _ := st2.Recovered()
		found := false
		for _, r := range jobs2 {
			if r.ID == "fuzz-post-crash" {
				found = true
			}
		}
		if !found {
			t.Fatalf("record appended after recovery was lost on reopen (recovered %d jobs)", len(jobs2))
		}
		if len(jobs2) < len(jobs) {
			t.Fatalf("reopen recovered fewer jobs (%d) than the first open (%d)", len(jobs2), len(jobs))
		}
	})
}

// The resources every FuzzV1Routes server holds: job-000001 (sampled) and
// sweep-000001, whose points are job-000002 and job-000003.
const (
	fuzzJob   = `{"workload":"seq","cores":1,"cycles":20000,"sample":1000}`
	fuzzSweep = `{"base":{"workload":"random","cores":1,"cycles":20000},"axes":{"cores":[1,2]}}`
)

// envelopeCodes are the stable error codes doc/SERVICE.md lists under
// "Errors".
var envelopeCodes = map[string]bool{
	ErrInvalidSpec: true, ErrInvalidSweep: true, ErrNotFound: true, ErrQueueFull: true,
	ErrConflict: true, ErrJobFailed: true, "method_not_allowed": true,
}

// fuzzServer starts a server without a data dir whose simulations fail at
// once through the run seam, submits fuzzJob and fuzzSweep, and waits for
// their jobs to fail, so that a fuzzed request meets the same state each
// time.
func fuzzServer(t *testing.T) *Server {
	s, err := New(Config{Workers: 1, QueueDepth: 8, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.run = func(context.Context, exp.Spec, exp.RunOptions) (*sim.Result, error) {
		return nil, errors.New("not simulated")
	}
	for _, submit := range []struct{ path, body string }{{"/v1/jobs", fuzzJob}, {"/v1/sweeps", fuzzSweep}} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, submit.path, strings.NewReader(submit.body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s: %d %s", submit.path, rec.Code, rec.Body)
		}
	}
	s.mu.Lock()
	jobs := s.jobs.list()
	s.mu.Unlock()
	for _, job := range jobs {
		for state, changed := job.stateAndChanged(); !state.Terminal(); state, changed = job.stateAndChanged() {
			select {
			case <-changed:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s stayed %s", job.ID, state)
			}
		}
	}
	return s
}

// FuzzV1Routes sends one request, fuzzed in method, path, ?from= offset
// and body, to a fuzzServer. No handler may panic, and every /v1 answer
// other than a success is the error envelope with a stable code, or
// ServeMux's redirect of an unclean path to its clean form.
func FuzzV1Routes(f *testing.F) {
	for _, seed := range []struct{ method, path, from, body string }{
		// ServeMux's own answers, in plain text without the "/" route.
		{"GET", "/v1/nope", "", ""},
		{"GET", "/v1/jobs/", "", ""},
		{"GET", "/v1/jobs/job-1/stacks/x", "", ""},
		{"PUT", "/v1/jobs", "", ""},
		{"POST", "/v1/jobs/x", "", ""},
		{"DELETE", "/v1/sweeps", "", ""},
		// Every route, on the resources the server holds.
		{"POST", "/v1/jobs", "", fuzzJob},
		{"POST", "/v1/jobs", "", `{"workload":"seq","cores":99}`},
		{"GET", "/v1/jobs", "", ""},
		{"GET", "/v1/jobs/job-000001", "", ""},
		{"DELETE", "/v1/jobs/job-000001", "", ""},
		{"GET", "/v1/jobs/job-000001/stacks", "", ""},
		{"GET", "/v1/jobs/job-000001/samples", "1", ""},
		{"GET", "/v1/jobs/job-000001/samples", "-1", ""},
		{"GET", "/v1/jobs/job-000002/samples", "", ""},
		{"POST", "/v1/sweeps", "", fuzzSweep},
		{"POST", "/v1/sweeps", "", `{"axes":{"cores":[]}}`},
		{"GET", "/v1/sweeps", "", ""},
		{"GET", "/v1/sweeps/sweep-000001", "", ""},
		{"DELETE", "/v1/sweeps/sweep-000001", "", ""},
		{"GET", "/v1/sweeps/sweep-000001/results", "1", ""},
		{"GET", "/v1/sweeps/sweep-000001/results", "x", ""},
		{"GET", "/v1/standards", "", ""},
		{"GET", "/v1//jobs", "", ""},
	} {
		f.Add(seed.method, seed.path, seed.from, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, method, path, from string, body []byte) {
		if from != "" {
			path += "?from=" + url.QueryEscape(from)
		}
		if !strings.HasPrefix(path, "/") {
			t.Skip("not a path")
		}
		req, err := http.NewRequest(method, "http://dramstacksd"+path, bytes.NewReader(body))
		if err != nil {
			t.Skip("not a request net/http sends")
		}
		rec := httptest.NewRecorder()
		fuzzServer(t).Handler().ServeHTTP(rec, req)
		if rec.Code < 300 || !strings.HasPrefix(req.URL.Path, "/v1") {
			return
		}
		if rec.Code < 400 {
			if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") == "" {
				t.Fatalf("%s %s: %d without a redirect", method, path, rec.Code)
			}
			return
		}
		var env errorJSON
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: %d with Content-Type %q", method, path, rec.Code, ct)
		}
		if err := dec.Decode(&env); err != nil || !envelopeCodes[env.Error.Code] || env.Error.Message == "" {
			t.Fatalf("%s %s: %d is not the envelope with a stable code: %+v (%v)", method, path, rec.Code, env.Error, err)
		}
		if rec.Code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
			t.Fatalf("%s %s: 405 without Allow", method, path)
		}
	})
}
