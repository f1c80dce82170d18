package service

import "sync"

// The no-nesting rule: no mutex is acquired, directly or through a
// call, while another may be held.

type State string

func (st State) Terminal() bool { return st == "done" }

type Job struct {
	mu    sync.Mutex
	srv   *Server
	state State
}

func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Through a call: State takes j.mu while status holds s.mu.
func (s *Server) status(id string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active[id].State() // want `\(\*Job\).State may lock a mutex and is called while s.mu is held`
}

// Directly: the server lock taken under the job lock.
func (j *Job) badPromote() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.srv.mu.Lock() // want `j.srv.mu.Lock while j.mu is held: service mutexes must never nest`
	j.srv.mu.Unlock()
}

// Two instances of one type nested: two goroutines nesting (a, b) and
// (b, a) deadlock.
func transfer(a, b *Job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `b.mu.Lock while a.mu is held`
	b.mu.Unlock()
}

// A call two levels deep still locks.
func (j *Job) settled() bool { return j.State().Terminal() }

func (s *Server) badDeep(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active[id].settled() // want `\(\*Job\).settled may lock a mutex`
}

// The submit handler's dedup shape: the job state read under the server
// lock.
func (s *Server) badDedup(hash string) (State, bool) {
	s.mu.Lock()
	if dup, ok := s.active[hash]; ok {
		if state := dup.State(); !state.Terminal() { // want `\(\*Job\).State may lock a mutex and is called while s.mu is held`
			s.mu.Unlock()
			return state, true
		}
	}
	s.mu.Unlock()
	return "", false
}

// Clean: the same dedup with the state read once, after the unlock.
func (s *Server) goodDedup(hash string) (State, bool) {
	s.mu.Lock()
	dup := s.active[hash]
	s.mu.Unlock()
	if dup != nil {
		if state := dup.State(); !state.Terminal() {
			return state, true
		}
	}
	return "", false
}

// Clean: snapshot under one lock, release, then take the other.
func (j *Job) goodHandOff() int {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	return len(state) + len(j.srv.active)
}

// Clean: a goroutine body starts with no locks held, whatever its
// lexical context holds when it launches.
func (j *Job) goodAsync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	go func() {
		j.srv.mu.Lock()
		defer j.srv.mu.Unlock()
	}()
}

// Launching a goroutine that locks does not lock...
func (j *Job) refresh() {
	go func() {
		j.State()
	}()
}

// ...so calling the launcher under a lock is clean.
func (s *Server) goodSpawnUnderLock(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active[id].refresh()
}

// Acknowledged nesting: the directive on the function doc comment
// suppresses the finding inside it.
//
//dramvet:allow lockhold(fixture: shutdown path, serialized by the run loop)
func (j *Job) allowedInverse() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.srv.mu.Lock()
	j.srv.mu.Unlock()
}
