package service

import (
	"fmt"
	"time"

	"dramstacks/internal/exp"
)

// recover rebuilds the server's in-memory state from the store's
// replayed records, called from New before the worker pool starts.
//
//   - Jobs with a terminal record come back terminal; done results
//     re-populate the content-addressed cache byte-identically (spec
//     hashes make this exact), cancelled partials re-enter it marked
//     incomplete.
//   - Jobs that were queued or running at crash/shutdown time come back
//     queued and are re-enqueued in submission order.
//   - Sweeps come back with their point jobs re-attached by id; a
//     collector goroutine re-renders the result stream, so points that
//     completed before the crash stream immediately and interrupted ones
//     follow as they re-simulate.
//
// Records that fail validation (corrupt spec, result whose embedded
// spec_hash disagrees with the record) are not trusted: the job is
// re-enqueued instead of served, which at worst re-runs a simulation.
func (s *Server) recover() {
	jobs, sweeps, skipped := s.store.Recovered()

	// Results of completed records by spec hash, for resolving
	// cache-served jobs whose records elide the bytes.
	byHash := make(map[string][]byte)
	for _, rec := range jobs {
		if rec.State == StateDone && len(rec.Result) > 0 {
			byHash[rec.SpecHash] = []byte(rec.Result)
		}
	}

	var pending []*Job
	recovered := 0
	for _, rec := range jobs {
		spec, err := exp.DecodeSpec(rec.Spec)
		if err != nil {
			s.log.Error("recovery: dropping job with undecodable spec", "job", rec.ID, "err", err)
			continue
		}
		spec = spec.Normalized()
		job := newJob(s.baseCtx, rec.ID, spec, rec.SpecHash)
		job.submitted = rec.Submitted
		s.jobs[rec.ID] = job
		s.order = append(s.order, rec.ID)
		if n := idNumber(rec.ID, "job-%d"); n > s.nextID {
			s.nextID = n
		}
		recovered++

		wall := time.Duration(rec.SimWallMS * float64(time.Millisecond))
		switch rec.State {
		case StateDone:
			result := []byte(rec.Result)
			if len(result) == 0 {
				result = byHash[rec.SpecHash]
			}
			if !trustedResult(result, rec.SpecHash) {
				s.log.Warn("recovery: done record failed validation; re-enqueueing", "job", rec.ID)
				pending = append(pending, job)
				continue
			}
			job.finish(StateDone, result, "", wall, rec.MemCycles, rec.Cached)
			s.cache.Put(rec.SpecHash, result, true)
		case StateFailed:
			job.finish(StateFailed, nil, rec.Error, wall, rec.MemCycles, false)
		case StateCancelled:
			var partial []byte
			if trustedResult([]byte(rec.Result), rec.SpecHash) {
				partial = []byte(rec.Result)
				s.cache.Put(rec.SpecHash, partial, false)
			}
			job.finish(StateCancelled, partial, rec.Error, wall, rec.MemCycles, false)
		default: // queued or running at crash time
			pending = append(pending, job)
		}
	}

	recoveredSweeps := 0
	for _, rec := range sweeps {
		sw, err := s.rebuildSweep(rec)
		if err != nil {
			s.log.Error("recovery: dropping sweep", "sweep", rec.ID, "err", err)
			continue
		}
		s.sweeps[rec.ID] = sw
		s.sweepOrder = append(s.sweepOrder, rec.ID)
		if n := idNumber(rec.ID, "sweep-%d"); n > s.nextSweepID {
			s.nextSweepID = n
		}
		recoveredSweeps++
		go s.collectSweep(sw)
	}

	s.metrics.JobsRecovered.Add(int64(recovered))
	s.metrics.SweepsRecovered.Add(int64(recoveredSweeps))
	if recovered > 0 || recoveredSweeps > 0 || skipped > 0 {
		s.log.Info("state recovered",
			"jobs", recovered, "requeued", len(pending),
			"sweeps", recoveredSweeps, "journal_lines_skipped", skipped)
	}
	for _, job := range pending {
		s.markActive(job)
	}
	if len(pending) > 0 {
		go s.feed(pending)
	}
}

// rebuildSweep reconstructs a SweepJob from its durable record,
// re-attaching point jobs by id.
func (s *Server) rebuildSweep(rec *sweepRecord) (*SweepJob, error) {
	sw := &SweepJob{
		ID:        rec.ID,
		Hash:      rec.Hash,
		AxisNames: rec.AxisNames,
		Points:    make([]exp.Point, len(rec.Points)),
		jobs:      make([]*Job, len(rec.Points)),
		updated:   make(chan struct{}),
		submitted: rec.Submitted,
	}
	for i, p := range rec.Points {
		spec, err := exp.DecodeSpec(p.Spec)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		sw.Points[i] = exp.Point{Index: i, Spec: spec.Normalized(), Hash: p.Hash, Axes: p.Axes}
		job, ok := s.jobs[p.JobID]
		if !ok {
			return nil, fmt.Errorf("point %d references unknown job %s", i, p.JobID)
		}
		sw.jobs[i] = job
	}
	return sw, nil
}

// trustedResult reports whether a durable result document is usable:
// non-empty and stamped with the spec hash its record claims.
func trustedResult(result []byte, wantHash string) bool {
	if len(result) == 0 {
		return false
	}
	h, err := exp.ResultSpecHash(result)
	return err == nil && h == wantHash
}

// idNumber parses the numeric suffix of a "job-%06d"-style id, so the
// id counters resume past every recovered id.
func idNumber(id, format string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, format, &n); err != nil {
		return 0
	}
	return n
}

// persistJob journals a job submission; storage errors degrade
// durability, not availability, so they are logged rather than failing
// the request.
func (s *Server) persistJob(job *Job) {
	if s.store == nil {
		return
	}
	if err := s.store.AppendJob(job.record()); err != nil {
		s.log.Error("journal append failed", "job", job.ID, "err", err)
	}
}

// persistResult journals a job's terminal state.
func (s *Server) persistResult(job *Job) {
	if s.store == nil {
		return
	}
	if err := s.store.AppendResult(job.terminalRecord()); err != nil {
		s.log.Error("journal append failed", "job", job.ID, "err", err)
	}
}

// persistSweep journals a sweep submission (after its point jobs).
func (s *Server) persistSweep(sw *SweepJob) {
	if s.store == nil {
		return
	}
	rec := &sweepRecord{
		ID:        sw.ID,
		Hash:      sw.Hash,
		AxisNames: sw.AxisNames,
		Points:    make([]sweepPointRecord, len(sw.Points)),
		Submitted: sw.submitted,
	}
	for i, p := range sw.Points {
		canon, err := p.Spec.Canonical()
		if err != nil {
			s.log.Error("journal append failed", "sweep", sw.ID, "err", err)
			return
		}
		rec.Points[i] = sweepPointRecord{
			Spec:  canon,
			Hash:  p.Hash,
			Axes:  p.Axes,
			JobID: sw.jobs[i].ID,
		}
	}
	if err := s.store.AppendSweep(rec); err != nil {
		s.log.Error("journal append failed", "sweep", sw.ID, "err", err)
	}
}
