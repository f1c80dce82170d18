package service

import (
	"context"
	"sync"
	"time"

	"dramstacks/internal/exp"
)

// State is a job's lifecycle state. Transitions: queued → running →
// done | failed; queued or running → cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions are possible.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted experiment.
type Job struct {
	ID   string
	Spec exp.Spec // normalized
	Hash string

	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      State
	errMsg     string
	result     []byte // marshaled result JSON, set when done
	cached     bool   // served from the result cache without simulating
	userCancel bool   // cancel requested by a client (vs. server shutdown)
	samples    []exp.SampleJSON
	updated    chan struct{} // closed and replaced on every state/sample change
	submitted  time.Time
	started    time.Time
	simWall    time.Duration
	memCycles  int64
}

func newJob(parent context.Context, id string, spec exp.Spec, hash string) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID:        id,
		Spec:      spec,
		Hash:      hash,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		updated:   make(chan struct{}),
		submitted: time.Now(),
	}
}

// notifyLocked wakes every waiter; callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start moves queued → running; it fails if the job was cancelled while
// waiting in the queue.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.notifyLocked()
	return true
}

// finish records the job's terminal state: a simulation's outcome, a
// result served from the cache (cached: the job is born done), or a
// durable record's on recovery. A job already terminal keeps its state.
func (j *Job) finish(state State, result []byte, errMsg string, simWall time.Duration, memCycles int64, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.result, j.errMsg, j.cached = state, result, errMsg, cached
	j.simWall, j.memCycles = simWall, memCycles
	j.cancel() // release the context's resources
	j.notifyLocked()
}

// requestCancel cancels a queued or running job and returns the state it
// found. A queued job transitions immediately; a running one transitions
// when the simulator notices the cancelled context; a terminal one is
// left as it is.
func (j *Job) requestCancel() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	was := j.state
	if was.Terminal() {
		return was
	}
	j.userCancel = true
	if was == StateQueued {
		j.state = StateCancelled
		j.notifyLocked()
	}
	j.cancel()
	return was
}

// userCancelled reports whether a client requested the cancellation, as
// opposed to the context cancel of a server shutdown. The distinction
// decides whether a cancelled run is journaled terminal (client intent)
// or left queued for re-enqueue on restart (interrupted by shutdown).
func (j *Job) userCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

// record renders the job's durable submission record (state queued: the
// write-ahead entry precedes execution).
func (j *Job) record() *jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	canon, err := j.Spec.Canonical()
	if err != nil {
		canon = nil // unreachable for a registered (validated) spec
	}
	return &jobRecord{
		ID:        j.ID,
		SpecHash:  j.Hash,
		Spec:      canon,
		Submitted: j.submitted,
		State:     StateQueued,
	}
}

// terminalRecord renders the job's durable terminal record. Results of
// cache-served jobs are elided (recovery resolves them by spec hash).
func (j *Job) terminalRecord() *jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := &jobRecord{
		ID:        j.ID,
		State:     j.state,
		Error:     j.errMsg,
		Cached:    j.cached,
		SimWallMS: float64(j.simWall) / float64(time.Millisecond),
		MemCycles: j.memCycles,
	}
	if !j.cached {
		rec.Result = string(j.result)
	}
	return rec
}

// appendSample records one live through-time sample and wakes streamers.
func (j *Job) appendSample(s exp.SampleJSON) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.samples = append(j.samples, s)
	j.notifyLocked()
}

// snapshotSamples returns the samples at index ≥ from, the current total
// count, a channel that closes on the next change, and whether the job
// is terminal (no more samples will arrive).
func (j *Job) snapshotSamples(from int) (new []exp.SampleJSON, n int, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.samples) {
		new = j.samples[from:len(j.samples):len(j.samples)]
	}
	return new, len(j.samples), j.updated, j.state.Terminal()
}

// stateAndChanged returns the current state together with a channel
// that closes on the job's next state or sample change, for waiters
// (the sweep collector).
func (j *Job) stateAndChanged() (State, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.updated
}

// StatusJSON is the wire form of a job's status.
type StatusJSON struct {
	ID        string   `json:"id"`
	SpecHash  string   `json:"spec_hash"`
	State     State    `json:"state"`
	Spec      exp.Spec `json:"spec"`
	Cached    bool     `json:"cached"`
	Error     string   `json:"error,omitempty"`
	Submitted string   `json:"submitted"`
	StartedMS float64  `json:"queue_wait_ms"`
	SimWallMS float64  `json:"sim_wall_ms"`
	MemCycles int64    `json:"mem_cycles"`
	Samples   int      `json:"samples"`
}

// status renders the job for GET /v1/jobs/{id}.
func (j *Job) status() StatusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := StatusJSON{
		ID:        j.ID,
		SpecHash:  j.Hash,
		State:     j.state,
		Spec:      j.Spec,
		Cached:    j.cached,
		Error:     j.errMsg,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		SimWallMS: float64(j.simWall) / float64(time.Millisecond),
		MemCycles: j.memCycles,
		Samples:   len(j.samples),
	}
	if !j.started.IsZero() {
		st.StartedMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}

// resultBytes returns the result JSON once the job is done.
func (j *Job) resultBytes() ([]byte, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state
}
