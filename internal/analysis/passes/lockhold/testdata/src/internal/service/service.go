// Package service is a lockhold fixture standing in for the real
// internal/service: locks guard in-memory state only; I/O, simulations,
// and blocking channel operations happen outside the critical section.
package service

import (
	"os"
	"sync"

	"exp"
)

type Store struct {
	mu      sync.Mutex
	journal *os.File
}

// The fixture mirror of the real store's one deliberate exception.
//
//dramvet:allow lockhold(st.mu exists to serialize journal appends; I/O under this lock is the design)
func (st *Store) append(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.journal.Write([]byte(id)); err != nil {
		return err
	}
	return st.journal.Sync()
}

func (st *Store) AppendJob(id string) error { return st.append(id) }

type Server struct {
	mu     sync.Mutex
	st     *Store
	jobs   chan string
	specs  map[string]exp.Spec
	active map[string]*Job
}

func (s *Server) badRun(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp.RunSpec(s.specs[id]) // want `exp.RunSpec while s.mu is held`
}

func (s *Server) badJournal(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.st.journal.Write([]byte(id)); err != nil { // want `\(\*os.File\).Write while s.mu is held`
		return err
	}
	return s.st.journal.Sync() // want `\(\*os.File\).Sync while s.mu is held`
}

func (s *Server) badPersist(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.AppendJob(id) // want `store AppendJob \(journal append \+ fsync\) while s.mu is held` `\(\*Store\).AppendJob may lock a mutex and is called while s.mu is held`
}

func (s *Server) badSend(id string) {
	s.mu.Lock()
	s.jobs <- id // want `channel send while s.mu is held`
	s.mu.Unlock()
}

func (s *Server) badRecv() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.jobs // want `channel receive while s.mu is held`
}

func (s *Server) badSelect(done chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking select while s.mu is held`
	case <-done:
	case id := <-s.jobs:
		_ = id
	}
}

// Clean: snapshot under the lock, then do the slow work outside it —
// the pattern the analyzer exists to protect.
func (s *Server) goodUnlockFirst(id string) error {
	s.mu.Lock()
	spec := s.specs[id]
	s.mu.Unlock()
	if _, err := exp.RunSpec(spec); err != nil {
		return err
	}
	return s.st.AppendJob(id)
}

// Clean: a select with a default clause cannot block.
func (s *Server) goodNonBlocking() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case id := <-s.jobs:
		_ = id
		return true
	default:
		return false
	}
}

// Clean: a goroutine body runs without the caller's locks.
func (s *Server) goodGoroutine(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.jobs <- id
	}()
}

// Flow-sensitive: the unlock happens on one branch only; the path that
// skips it still holds the lock at the receive.
func (s *Server) badBranchUnlock(fast bool) string {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
	}
	return <-s.jobs // want `channel receive while s.mu is held`
}

// Flow-sensitive: a conditional second Lock self-deadlocks on the path
// where both acquisitions execute.
func (s *Server) badDoubleLock(again bool) {
	s.mu.Lock()
	if again {
		s.mu.Lock() // want `s.mu.Lock while s.mu is already held`
	}
	s.mu.Unlock()
}

// Flow-sensitive: a Lock in a loop body with no release carries over
// the back edge — the second iteration re-locks a held mutex.
func (s *Server) badLoopLock(n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock() // want `s.mu.Lock while s.mu is already held`
	}
}

// Clean: each branch releases before the blocking work — a
// statement-order walker would charge the send anyway.
func (s *Server) goodBothBranches(fast bool, id string) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.jobs <- id
}

// Clean: the early-return path never reaches the simulation, and the
// fallthrough path unlocks first.
func (s *Server) goodEarlyReturn(id string) error {
	s.mu.Lock()
	if id == "" {
		s.mu.Unlock()
		return nil
	}
	spec := s.specs[id]
	s.mu.Unlock()
	_, err := exp.RunSpec(spec)
	return err
}

// Clean: lock and unlock balanced inside every loop iteration, so
// nothing is held at the send after the loop.
func (s *Server) goodLoopBalanced(ids []string) {
	for _, id := range ids {
		s.mu.Lock()
		s.specs[id] = exp.Spec{}
		s.mu.Unlock()
	}
	s.jobs <- "done"
}

// Clean: the panic path cannot fall through to the send.
func (s *Server) goodPanicPath(ok bool, id string) {
	s.mu.Lock()
	if !ok {
		s.mu.Unlock()
		panic("bad id")
	}
	s.specs[id] = exp.Spec{}
	s.mu.Unlock()
	s.jobs <- id
}

// An RWMutex-guarded index for the read-to-write upgrade shape.
type Index struct {
	mu sync.RWMutex
	m  map[string]int
}

// Clean: shared read under RLock.
func (ix *Index) goodSharedRead(k string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.m[k]
}

// Flow-sensitive: upgrading RLock to Lock in place self-deadlocks
// (sync.RWMutex write-lock waits for all readers, including this one).
func (ix *Index) badUpgrade(k string) {
	ix.mu.RLock()
	if _, ok := ix.m[k]; !ok {
		ix.mu.Lock() // want `ix.mu.Lock while ix.mu is already held`
		ix.m[k] = 0
		ix.mu.Unlock()
	}
	ix.mu.RUnlock()
}
