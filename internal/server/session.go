package server

import (
	"fmt"
	"sync"

	"crowddb/internal/exec"
)

// Session is one client's handle on the shared engine. Sessions carry the
// per-client crowd budget and statistics; the store, catalog, task
// manager, and comparison cache are shared across all sessions, so one
// session's paid answers are every session's cache hits.
type Session struct {
	id string

	mu sync.Mutex
	// budget is the remaining crowd comparisons this session may pay for;
	// -1 = unlimited. Shared-cache hits and adopted flights are free.
	budget  int
	queries int
	agg     exec.Stats
	closed  bool
	// jobs tracks the session's non-terminal v1 jobs: closing the session
	// cancels them (coded session_closed) instead of orphaning a running
	// statement on the shared engine.
	jobs map[string]*Job
}

// addJob registers an active job with its session. An anonymous one-shot
// session keeps no job map: it is never registered, so nothing closes it.
func (s *Session) addJob(j *Job) {
	if s.id == anonymousSessionID {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs == nil {
		s.jobs = make(map[string]*Job)
	}
	s.jobs[j.id] = j
}

// removeJob drops a terminal job from the active set.
func (s *Session) removeJob(id string) {
	if s.id == anonymousSessionID {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// SessionInfo is a session's reportable state.
type SessionInfo struct {
	ID      string `json:"id"`
	Queries int    `json:"queries"`
	// BudgetLeft is the remaining comparison budget (-1 = unlimited).
	BudgetLeft int        `json:"budget_left"`
	Stats      exec.Stats `json:"stats"`
}

// Info snapshots the session.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{ID: s.id, Queries: s.queries, BudgetLeft: s.budget, Stats: s.agg}
}

// budgetLeft reads the remaining comparison budget (-1 = unlimited)
// without reserving anything — the admission forecast's input.
func (s *Session) budgetLeft() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// reserveBudget atomically takes the whole remaining comparison budget
// for one statement (0 = unlimited), or errors when it is already spent.
// Reserving everything up front means concurrent statements on one
// session can never overspend in aggregate: the second reservation sees
// zero and is refused until the first settles and refunds what it did
// not pay.
func (s *Session) reserveBudget() (int, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errf(CodeUnknownSession, "session %s is closed", s.id)
	}
	switch {
	case s.budget < 0:
		return 0, nil // unlimited
	case s.budget == 0:
		return 0, errf(CodeBudgetExhausted,
			"session %s has no crowd-comparison budget left", s.id)
	default:
		reserved := s.budget
		s.budget = 0
		return reserved, nil
	}
}

// settle records a finished statement's stats and refunds the part of
// its reservation the statement did not pay the crowd for.
func (s *Session) settle(st exec.Stats, reserved int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	s.agg = s.agg.Add(st)
	if reserved > 0 && s.budget >= 0 {
		if unused := reserved - st.Comparisons; unused > 0 {
			s.budget += unused
		}
	}
}

// newSessionID formats the n-th session's identifier.
func newSessionID(n int64) string { return fmt.Sprintf("s%06d", n) }
