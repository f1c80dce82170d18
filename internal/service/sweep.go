package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dramstacks/internal/exp"
)

// maxSweepPoints bounds one sweep's expansion so a typo'd axis cannot
// flood the queue.
const maxSweepPoints = 512

// SweepJob is one submitted experiment family: an expanded sweep whose
// points are ordinary jobs sharing the server's queue, worker pool and
// result cache — a point identical to a cached result is served
// instantly, and one identical to a queued/running job (from another
// sweep or a single submission) coalesces onto it.
type SweepJob struct {
	ID        string
	Hash      string // exp.SweepHash of the expanded points
	AxisNames []string
	Points    []exp.Point
	jobs      []*Job // index-aligned with Points

	mu        sync.Mutex
	lines     [][]byte // NDJSON point-result lines, newline included, in point order
	updated   chan struct{}
	submitted time.Time
}

func (sw *SweepJob) notifyLocked() {
	close(sw.updated)
	sw.updated = make(chan struct{})
}

// appendLine records one rendered point-result line and wakes streamers.
func (sw *SweepJob) appendLine(line []byte) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.lines = append(sw.lines, line)
	sw.notifyLocked()
}

// snapshotLines returns the rendered lines at index >= from, the current
// count, a channel that closes on the next change, and whether the
// sweep has rendered every point.
func (sw *SweepJob) snapshotLines(from int) (batch [][]byte, n int, changed <-chan struct{}, terminal bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if from < len(sw.lines) {
		batch = sw.lines[from:len(sw.lines):len(sw.lines)]
	}
	return batch, len(sw.lines), sw.updated, len(sw.lines) == len(sw.Points)
}

// SweepPointStatusJSON is one point row of a sweep status.
type SweepPointStatusJSON struct {
	Index    int               `json:"index"`
	JobID    string            `json:"job"`
	SpecHash string            `json:"spec_hash"`
	Axes     map[string]string `json:"axes"`
	Label    string            `json:"label"`
	State    State             `json:"state"`
	Cached   bool              `json:"cached,omitempty"`
}

// SweepStatusJSON is the wire form of a sweep's status.
type SweepStatusJSON struct {
	ID        string                 `json:"id"`
	SweepHash string                 `json:"sweep_hash"`
	State     string                 `json:"state"`
	AxisNames []string               `json:"axis_names"`
	Total     int                    `json:"points"`
	Completed int                    `json:"completed"`
	Counts    map[string]int         `json:"counts"`
	Submitted string                 `json:"submitted"`
	Jobs      []SweepPointStatusJSON `json:"jobs"`
}

// status renders the sweep: per-point job states plus the derived sweep
// state (running until every point is terminal; then cancelled if any
// point was cancelled, failed if any failed, done otherwise).
func (sw *SweepJob) status() SweepStatusJSON {
	sw.mu.Lock()
	submitted := sw.submitted
	sw.mu.Unlock()

	st := SweepStatusJSON{
		ID:        sw.ID,
		SweepHash: sw.Hash,
		AxisNames: sw.AxisNames,
		Total:     len(sw.Points),
		Counts:    make(map[string]int),
		Submitted: submitted.UTC().Format(time.RFC3339Nano),
		Jobs:      make([]SweepPointStatusJSON, 0, len(sw.Points)),
	}
	terminal := 0
	anyCancelled, anyFailed := false, false
	for i, p := range sw.Points {
		js := sw.jobs[i].status()
		st.Counts[string(js.State)]++
		if js.State.Terminal() {
			terminal++
			anyCancelled = anyCancelled || js.State == StateCancelled
			anyFailed = anyFailed || js.State == StateFailed
		}
		st.Jobs = append(st.Jobs, SweepPointStatusJSON{
			Index:    i,
			JobID:    js.ID,
			SpecHash: p.Hash,
			Axes:     p.Axes,
			Label:    p.Label(),
			State:    js.State,
			Cached:   js.Cached,
		})
	}
	st.Completed = terminal
	switch {
	case terminal < len(sw.Points):
		st.State = "running"
	case anyCancelled:
		st.State = "cancelled"
	case anyFailed:
		st.State = "failed"
	default:
		st.State = "done"
	}
	return st
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSweep, "reading sweep: %v", err)
		return
	}
	sweep, err := exp.ParseSweep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSweep, "%v", err)
		return
	}
	points, err := sweep.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSweep, "%v", err)
		return
	}
	if len(points) == 0 {
		writeError(w, http.StatusBadRequest, ErrInvalidSweep, "sweep expands to no points")
		return
	}
	if len(points) > maxSweepPoints {
		writeError(w, http.StatusBadRequest, ErrInvalidSweep,
			"sweep expands to %d points, limit %d", len(points), maxSweepPoints)
		return
	}

	sw := &SweepJob{
		Hash:      exp.SweepHash(points),
		AxisNames: sweep.AxisNames(),
		Points:    points,
		jobs:      make([]*Job, len(points)),
		updated:   make(chan struct{}),
		submitted: time.Now(),
	}

	// Resolve every point: a new job born done from the cache, a job to
	// coalesce onto, or a fresh job for the queue feeder.
	var toEnqueue, newJobs []*Job
	for i, p := range points {
		s.metrics.JobsSubmitted.Add(1)
		job, _, how := s.resolve(p.Spec, p.Hash)
		sw.jobs[i] = job
		if how == coalesced {
			continue
		}
		if how == fresh {
			// Mark in-flight right away so overlapping sweeps and single
			// submissions coalesce onto this point while it waits to enter
			// the queue.
			s.markActive(job)
			toEnqueue = append(toEnqueue, job)
		}
		newJobs = append(newJobs, job)
	}

	s.mu.Lock()
	s.nextSweepID++
	sw.ID = fmt.Sprintf("sweep-%06d", s.nextSweepID)
	s.sweeps[sw.ID] = sw
	s.sweepOrder = append(s.sweepOrder, sw.ID)
	s.mu.Unlock()
	// Write-ahead: journal the fresh/cache-served point jobs, then the
	// sweep that references them, before acknowledging the submission.
	// Coalesced points reference jobs journaled by their own submission.
	for _, job := range newJobs {
		s.persistJob(job)
		if job.State().Terminal() {
			s.persistResult(job)
		}
	}
	s.persistSweep(sw)
	s.metrics.SweepsSubmitted.Add(1)
	s.metrics.SweepPoints.Add(int64(len(points)))

	// Feed fresh jobs into the shared FIFO without overflowing it:
	// unlike single submissions, a sweep blocks for queue space instead
	// of taking a 429 per point.
	go s.feed(toEnqueue)
	go s.collectSweep(sw)

	s.log.Info("sweep queued", "sweep", sw.ID, "sweep_hash", sw.Hash,
		"points", len(points), "fresh", len(toEnqueue))
	writeJSON(w, http.StatusAccepted, sw.status())
}

// collectSweep waits for each point in order and renders its NDJSON
// result line, so /v1/sweeps/{id}/results streams points deterministically
// ordered even though they complete out of order across the pool.
func (s *Server) collectSweep(sw *SweepJob) {
	for i := range sw.jobs {
		for {
			state, changed := sw.jobs[i].stateAndChanged()
			if state.Terminal() {
				break
			}
			select {
			case <-changed:
			case <-s.baseCtx.Done():
				return
			}
		}
		sw.appendLine(s.renderPointLine(sw, i))
	}
	s.metrics.SweepsDone.Add(1)
	st := sw.status()
	s.log.Info("sweep finished", "sweep", sw.ID, "state", st.State, "points", st.Total)
}

// SweepResultLine is one NDJSON line of /v1/sweeps/{id}/results. Result
// is the point's single-job document (byte-identical to the job's
// /stacks body, compacted onto one line).
type SweepResultLine struct {
	Index    int               `json:"index"`
	Axes     map[string]string `json:"axes"`
	Label    string            `json:"label"`
	SpecHash string            `json:"spec_hash"`
	JobID    string            `json:"job"`
	State    State             `json:"state"`
	Cached   bool              `json:"cached,omitempty"`
	Error    string            `json:"error,omitempty"`
	Result   json.RawMessage   `json:"result,omitempty"`
}

func (s *Server) renderPointLine(sw *SweepJob, i int) []byte {
	job := sw.jobs[i]
	js := job.status()
	line := SweepResultLine{
		Index:    i,
		Axes:     sw.Points[i].Axes,
		Label:    sw.Points[i].Label(),
		SpecHash: sw.Points[i].Hash,
		JobID:    js.ID,
		State:    js.State,
		Cached:   js.Cached,
		Error:    js.Error,
	}
	if result, _ := job.resultBytes(); result != nil {
		var buf bytes.Buffer
		if err := json.Compact(&buf, result); err == nil {
			line.Result = buf.Bytes()
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		b, _ = json.Marshal(SweepResultLine{Index: i, State: StateFailed, Error: err.Error()})
	}
	// Terminated here, before it is shared: streamers must not append to it.
	return append(b, '\n')
}

func (s *Server) lookupSweep(r *http.Request) (*SweepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[r.PathValue("id")]
	return sw, ok
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sw.status())
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.sweepOrder...)
	sweeps := make([]*SweepJob, 0, len(ids))
	for _, id := range ids {
		sweeps = append(sweeps, s.sweeps[id])
	}
	s.mu.Unlock()
	out := make([]SweepStatusJSON, 0, len(sweeps))
	for _, sw := range sweeps {
		out = append(out, sw.status())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSweepCancel cancels every non-terminal point of the sweep. Note
// that a point coalesced onto another submission's identical job cancels
// that shared job too — the same semantics as DELETE on a deduped job id.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	cancelled := 0
	for _, job := range sw.jobs {
		if s.cancelJob(job) {
			cancelled++
		}
	}
	if cancelled == 0 {
		writeError(w, http.StatusConflict, ErrConflict, "sweep %s already %s", sw.ID, sw.status().State)
		return
	}
	s.log.Info("sweep cancel requested", "sweep", sw.ID, "points_cancelled", cancelled)
	writeJSON(w, http.StatusAccepted, sw.status())
}

// handleSweepResults streams the per-point result lines as NDJSON in
// point order, live while the sweep runs, until every point is rendered
// or the client goes away. ?from=N resumes at point index N, so a
// client can ride out a server bounce without re-reading earlier points.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	from, err := parseFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrInvalidSweep, "%v", err)
		return
	}
	follow(w, r, from, sw.snapshotLines, func(line []byte) error {
		_, err := w.Write(line)
		return err
	})
}
