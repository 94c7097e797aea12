// Package server is crowddbd's concurrent query service: many client
// sessions over one shared CrowdDB engine. Sessions carry their own crowd
// budgets and statistics while sharing the store, catalog, task manager,
// and — crucially — the comparison cache, whose singleflight claims
// collapse identical in-flight crowd questions from concurrent sessions
// into a single HIT group (the crowd is paid once, everyone reads the
// answer).
//
// The service has one front door: every statement is a job (StartJob ->
// runJob), and the HTTP/JSON API in http.go is the only thing it listens
// on. Jobs run through one admission control: a bounded pool of
// concurrently executing queries, plus backpressure keyed off the task
// manager's submission queue — when crowd work is already piling up
// behind the in-flight window, new queries are rejected with a retryable
// error instead of deepening the backlog. Shutdown drains: running
// queries finish, new ones are refused.
package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/exec"
	"crowddb/internal/obs"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
)

// Config tunes the query service. The zero value serves with defaults.
type Config struct {
	// MaxSessions caps registered sessions (0 = 64).
	MaxSessions int
	// MaxConcurrent bounds concurrently executing queries (0 = 32).
	MaxConcurrent int
	// SessionBudget is the default per-session crowd-comparison budget
	// (0 = unlimited). Sessions may be created with an explicit budget.
	SessionBudget int
	// AdmissionHeadroom enables budget-aware admission: a script whose
	// forecast crowd spend exceeds remaining_budget × headroom is
	// rejected with budget_exhausted BEFORE any HIT is posted. 1.0
	// admits only scripts predicted to fit exactly; values above 1
	// re-admit conservatively overpredicted queries. 0 (the default)
	// disables the check.
	AdmissionHeadroom float64
}

// Stats counts the service's activity.
type Stats struct {
	Queries         int64 `json:"queries"`
	Rejected        int64 `json:"rejected"`
	Errors          int64 `json:"errors"`
	SessionsOpened  int64 `json:"sessions_opened"`
	SessionsClosed  int64 `json:"sessions_closed"`
	ActiveSessions  int   `json:"active_sessions"`
	InFlightQueries int   `json:"in_flight_queries"`
	// ActiveJobs counts v1 jobs not yet terminal; RetainedJobs counts
	// every job resource still pollable (active + finished retention).
	ActiveJobs   int  `json:"active_jobs"`
	RetainedJobs int  `json:"retained_jobs"`
	Draining     bool `json:"draining"`
}

// StatsReport is the full /stats payload: service counters plus the
// shared engine's task-manager and comparison-cache state.
type StatsReport struct {
	Server   Stats           `json:"server"`
	Sessions []SessionInfo   `json:"sessions"`
	Cache    exec.CacheStats `json:"cache"`
	// Tasks is nil when the engine runs without a crowd platform.
	Tasks             *taskmgr.Stats `json:"tasks,omitempty"`
	SchedulerInFlight int            `json:"scheduler_in_flight"`
	SchedulerQueued   int            `json:"scheduler_queued"`
	// CostModel is the optimizer's aggregate predicted-vs-actual error,
	// plus the budget-aware admission controller's decision counts and
	// forecast accuracy.
	CostModel CostModelReport `json:"cost_model"`
}

// CostModelReport extends the engine's cost-model accuracy with the
// admission controller's view of it.
type CostModelReport struct {
	core.CostModelStats
	Admission AdmissionStats `json:"admission"`
}

// Server is the concurrent multi-session query service.
type Server struct {
	cfg     Config
	eng     *core.Engine
	slots   chan struct{}
	drainCh chan struct{} // closed when Shutdown begins
	started time.Time

	// Job-path instruments (shared engine registry; nil-safe unset).
	mRowsStreamed *obs.Counter
	mJobsByState  map[JobState]*obs.Counter
	mJournalErrs  *obs.Counter // registered by EnableJournal

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int64
	jobs     map[string]*Job
	jobSeq   int64
	finished []string // terminal job ids, oldest first (retention FIFO)
	draining bool
	inflight int
	stats    Stats
	adm      AdmissionStats

	// journal is the durable jobs log (nil until EnableJournal): job
	// lifecycle, emitted rows, and budget movements survive restarts.
	// Atomic, not guarded by mu — appends happen while mu is held, and a
	// job reads it once per streamed row.
	journal atomic.Pointer[storage.RecordLog]

	active sync.WaitGroup
}

// New assembles a server over an engine.
func New(eng *core.Engine, cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 32
	}
	s := &Server{
		cfg:      cfg,
		eng:      eng,
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		drainCh:  make(chan struct{}),
		started:  time.Now(),
		sessions: make(map[string]*Session),
		jobs:     make(map[string]*Job),
	}
	s.registerMetrics()
	return s
}

// CreateSession registers a session. budget caps the session's paid crowd
// comparisons (0 = the configured default, negative = unlimited).
func (s *Server) CreateSession(budget int) (*Session, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errf(CodeShuttingDown, "server is shutting down")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, errf(CodeTooManySessions, "session limit %d reached", s.cfg.MaxSessions)
	}
	s.seq++
	sess := &Session{id: newSessionID(s.seq), budget: s.effectiveBudget(budget)}
	s.sessions[sess.id] = sess
	s.stats.SessionsOpened++
	s.journalSession(sess)
	return sess, nil
}

// effectiveBudget resolves a requested budget against the default:
// 0 defers to Config.SessionBudget, negative means unlimited, and the
// stored representation is -1 for unlimited.
func (s *Server) effectiveBudget(budget int) int {
	if budget == 0 {
		budget = s.cfg.SessionBudget
	}
	if budget <= 0 {
		return -1
	}
	return budget
}

// Session looks up a registered session.
func (s *Server) Session(id string) (*Session, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, errf(CodeUnknownSession, "unknown session %q", id)
	}
	return sess, nil
}

// CloseSession unregisters a session. Its paid answers stay in the shared
// cache — that is the point. In-flight jobs of the session are cancelled
// and fail with the coded session_closed state: a closed session must not
// leave an orphaned statement running (and paying) on the engine.
func (s *Server) CloseSession(id string) *Error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return errf(CodeUnknownSession, "unknown session %q", id)
	}
	sess.mu.Lock()
	sess.closed = true
	jobs := make([]*Job, 0, len(sess.jobs))
	for _, j := range sess.jobs {
		jobs = append(jobs, j)
	}
	sess.mu.Unlock()
	delete(s.sessions, id)
	s.stats.SessionsClosed++
	s.mu.Unlock()
	s.journalSessionClose(id)
	for _, j := range jobs {
		j.requestCancel(CodeSessionClosed, fmt.Sprintf("session %s closed with the query in flight", id))
	}
	return nil
}

// anonymousSessionID names the unregistered one-shot sessions backing
// session-less queries; their budgets are not journaled.
const anonymousSessionID = "(anonymous)"

func (s *Server) resolveSession(sessionID string) (*Session, *Error) {
	if sessionID == "" {
		// Anonymous one-shot: default budget, not registered, no cap.
		return &Session{id: anonymousSessionID, budget: s.effectiveBudget(0)}, nil
	}
	return s.Session(sessionID)
}

// admit runs admission control: refuse while draining, shed load while
// the task manager's submission queue is deep, then take an execution
// slot (blocking briefly is fine — slots turn over at engine speed). A
// job that finds no slot free calls waiting before it blocks; one whose
// context fires while parked behind full slots leaves the line instead of
// starting dead.
func (s *Server) admit(ctx context.Context, waiting func()) *Error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errf(CodeShuttingDown, "server is shutting down")
	}
	s.active.Add(1)
	s.inflight++
	s.mu.Unlock()

	if t := s.eng.Tasks(); t != nil {
		limit := 4 * t.Config().MaxInFlight // four in-flight windows of backlog
		if _, queued := t.Load(); queued > limit {
			s.exitActive()
			return errf(CodeBusy,
				"task manager backlog: %d HIT groups queued (limit %d); retry later",
				queued, limit)
		}
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	waiting()
	// Queries parked behind full slots must not start once draining
	// begins — re-check via the drain channel while blocked.
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-s.drainCh:
		s.exitActive()
		return errf(CodeShuttingDown, "server is shutting down")
	case <-ctx.Done():
		s.exitActive()
		return errf(CodeCancelled, "cancelled while queued for an execution slot")
	}
}

func (s *Server) exitActive() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	s.active.Done()
}

func (s *Server) release() {
	<-s.slots
	s.exitActive()
}

func (s *Server) countRejected(err *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch err.Code {
	case CodeBusy, CodeShuttingDown, CodeTooManySessions:
		s.stats.Rejected++
	default:
		s.stats.Errors++
	}
}

func (s *Server) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// Stats snapshots the full service report.
func (s *Server) Stats() StatsReport {
	s.mu.Lock()
	st := s.stats
	st.ActiveSessions = len(s.sessions)
	st.InFlightQueries = s.inflight
	st.RetainedJobs = len(s.jobs)
	st.Draining = s.draining
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if !j.State().Terminal() {
			st.ActiveJobs++
		}
	}

	report := StatsReport{Server: st, Cache: s.eng.CacheStats(), CostModel: s.costModelReport()}
	for _, sess := range sessions {
		report.Sessions = append(report.Sessions, sess.Info())
	}
	sort.Slice(report.Sessions, func(i, j int) bool {
		return report.Sessions[i].ID < report.Sessions[j].ID
	})
	if t := s.eng.Tasks(); t != nil {
		ts := t.Stats()
		report.Tasks = &ts
		report.SchedulerInFlight, report.SchedulerQueued = t.Load()
	}
	return report
}

// Shutdown drains the server: new queries are refused, running ones
// finish (or ctx expires and they fail with shutting_down), then the
// journal closes. It waits for jobs, not for HTTP handlers — the caller
// drains its http.Server afterwards so open streams get their trailer.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Drain deadline: jobs still running are forcibly failed with the
		// coded shutting_down error. Cancellation propagates through the
		// statement contexts into the crowd operators, so the wait below
		// is short; paid work settles against the session budgets.
		s.mu.Lock()
		jobs := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			j.requestCancel(CodeShuttingDown,
				"server drain deadline reached with the query still running")
		}
		<-done
	}

	if journal := s.journal.Swap(nil); journal != nil {
		journal.Close() //nolint:errcheck // best-effort teardown
	}
	return err
}
