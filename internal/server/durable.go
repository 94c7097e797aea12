package server

// Durable jobs: every job lifecycle event — submission, state
// transitions, emitted rows, and the session budget movements that fund
// them — is journaled through a storage.RecordLog with the same fsync
// contract as the per-shard WALs. A crowddbd restart replays the journal
// and recovers every job coherently:
//
//   - finished jobs come back terminal with their results metadata and
//     full row buffers, so NDJSON/SSE clients reconnect with ?from=N
//     across the restart without duplicate or missing rows;
//   - queued/running read-only scripts resume execution: the script
//     re-runs from the top with the first len(recovered rows) sink
//     emissions suppressed, and because the comparison cache is itself
//     persistent, the re-executed prefix is answered from memoized
//     decisions — a recovered job never re-pays a comparison;
//   - anything that cannot be resumed (scripts with writes, jobs whose
//     session did not survive) fails cleanly with the coded interrupted
//     state instead of vanishing.
//
// Budget recovery is crash-exact in the conservative direction: a
// session's journal carries absolute budget records (written at every
// settle) plus spend deltas counting the compare answers the session's
// own statements stored since the last absolute record. A HIT group's
// answers commit to the memo table with the group, and their spend is
// appended right after them, buffered; the next row's append syncs both.
// Answers are durable BEFORE their spend, and spend before the row, so a
// crash can only under-charge the session — never double-charge it.
// Under group sync, a crash between a group's commit and the next journal
// sync loses that group's spend: an under-charge the contract allows.
// (When answers were flushed at the next row instead, the same crash lost
// the answers themselves.)
//
// A record is made durable where something depends on it, not when it is
// written. The submit, run, schema, spend and budget records are
// buffered; the journal syncs at exactly three barriers:
//
//  1. before an HTTP response names a job the client did not name itself
//     (the plain 202 body, the job list, and a submit-and-stream head
//     that is flushed with no row behind it — one that leaves with a row
//     or the trailer is covered by barrier 2 or 3), so a client holding a
//     job id can always reattach to it after a restart;
//  2. before a row is pushed to the job's buffer — the row's Append
//     covers everything buffered before it, so "answers → spend → row"
//     still holds;
//  3. before a terminal state becomes visible: finish makes the end
//     record durable first, so a job a client saw done (or failed, or
//     cancelled) never comes back interrupted.
//
// What a crash can lose is a job no response named and no barrier
// synced — the same thing a client that never got its 202 assumes.

import (
	"context"
	"encoding/json"
	"fmt"

	"crowddb/internal/exec"
	"crowddb/internal/faultinject"
	"crowddb/internal/parser"
	"crowddb/internal/storage"
)

// Journal record types (the "t" field of each JSON line).
const (
	recSession      = "session"       // session created (absolute budget)
	recSessionClose = "session_close" // session closed
	recBudget       = "budget"        // absolute budget after a settle
	recSubmit       = "submit"        // job submitted
	recRun          = "run"           // job admitted and running
	recSchema       = "schema"        // result-set columns known
	recRow          = "row"           // one emitted row (rowRec)
	recSpend        = "spend"         // compare answers stored since the last budget record
	recEnd          = "end"           // terminal state reached
)

// journalRec is one JSON line of the jobs journal. Exactly one subset of
// fields is meaningful per record type.
type journalRec struct {
	T        string    `json:"t"`
	Session  string    `json:"session,omitempty"`
	Job      string    `json:"job,omitempty"`
	SQL      string    `json:"sql,omitempty"`
	Budget   *int      `json:"budget,omitempty"`
	Columns  []string  `json:"columns,omitempty"`
	Row      []*string `json:"row,omitempty"` // the on-disk form; the server writes and reads rowRec
	N        int       `json:"n,omitempty"`
	State    JobState  `json:"state,omitempty"`
	Code     Code      `json:"code,omitempty"`
	Msg      string    `json:"msg,omitempty"`
	Affected int       `json:"affected,omitempty"`
	Stmts    int       `json:"stmts,omitempty"`
}

// rowRec is how a row record is written and read back: its Row is the
// streamed NDJSON line itself — the bytes json.Marshal writes for
// journalRec.Row's cells, which it shadows — so the journal holds what
// the stream sends and recovery buffers it again as it is.
type rowRec struct {
	journalRec
	Row json.RawMessage `json:"row,omitempty"`
}

func (s *Server) journalLog() *storage.RecordLog { return s.journal.Load() }

func (s *Server) journalEnabled() bool { return s.journalLog() != nil }

// journalWrite adds one record — a journalRec, or a rowRec — to the
// journal; with wait it returns only once the record, and everything
// buffered before it, is durable.
// Nil-safe: a server without EnableJournal journals nothing.
func (s *Server) journalWrite(rec any, wait bool) {
	l := s.journalLog()
	if l == nil {
		return
	}
	var err error
	if wait {
		err = l.Append(rec)
	} else {
		err = l.Buffer(rec)
	}
	if err != nil {
		s.mJournalErrs.Inc() // counted, not returned: a poisoned journal must not fail queries
	}
}

// journalSync is barrier 1: everything buffered so far becomes durable.
func (s *Server) journalSync() {
	if l := s.journalLog(); l != nil && l.Sync() != nil {
		s.mJournalErrs.Inc()
	}
}

func (s *Server) journalSession(sess *Session) {
	if !s.journalEnabled() {
		return
	}
	b := sess.budgetLeft()
	s.journalWrite(journalRec{T: recSession, Session: sess.id, Budget: &b}, true)
}

func (s *Server) journalSessionClose(id string) {
	if !s.journalEnabled() {
		return
	}
	s.journalWrite(journalRec{T: recSessionClose, Session: id}, true)
}

// journalSubmit records a submitted job; a server without a journal
// builds no record (boxing one into journalWrite's any allocates).
func (s *Server) journalSubmit(j *Job) {
	if !s.journalEnabled() {
		return
	}
	s.journalWrite(journalRec{T: recSubmit, Job: j.id, Session: j.sessionID, SQL: j.sql}, false)
}

// journalRun records the queued->running transition; a crashpoint sits
// on every journaled state transition.
func (s *Server) journalRun(j *Job) {
	if !s.journalEnabled() {
		return
	}
	faultinject.Hit("server.job.state")
	if faultinject.Killed() {
		return
	}
	s.journalWrite(journalRec{T: recRun, Job: j.id}, false)
}

// journalBudget writes the session's absolute remaining budget after a
// settle, superseding the spend deltas journaled since.
func (s *Server) journalBudget(sess *Session) {
	if !s.journalEnabled() || sess.id == anonymousSessionID {
		return
	}
	b := sess.budgetLeft()
	s.journalWrite(journalRec{T: recBudget, Session: sess.id, Budget: &b}, false)
}

// journalEnd makes the terminal state a job is about to enter durable
// (barrier 3; finish publishes the state only after it returns).
func (s *Server) journalEnd(j *Job, state JobState, err *Error) {
	if !s.journalEnabled() {
		return
	}
	faultinject.Hit("server.job.state")
	if faultinject.Killed() {
		return
	}
	j.mu.Lock()
	rec := journalRec{T: recEnd, Job: j.id, State: state, Affected: j.affected, Stmts: j.stmtsDone}
	j.mu.Unlock()
	if err != nil {
		rec.Code, rec.Msg = err.Code, err.Message
	}
	s.journalWrite(rec, true)
}

// The job is the core.Observer of each statement it runs: the methods
// below run on the job's runner goroutine. With a journal, each writes
// what it reports before a client can see it, in the order the crowd
// produces it — a HIT group's comparison answers are stored with the
// group, Progress journals them as the session's spend, and the next
// row's synced append (barrier 2) makes both durable with it.

// Snapshot records the MVCC snapshot timestamp the running SELECT pinned.
func (j *Job) Snapshot(ts int64) {
	j.mu.Lock()
	j.snapshotTS = ts
	j.broadcastLocked()
	j.mu.Unlock()
}

// Schema begins a SELECT's result set.
func (j *Job) Schema(cols []string) {
	if j.srv.journalEnabled() {
		j.srv.journalWrite(journalRec{T: recSchema, Job: j.id, Columns: cols}, false)
	}
	j.mu.Lock()
	j.columns = cols
	j.broadcastLocked()
	j.mu.Unlock()
}

// Row encodes and buffers one streamed row. With a journal the row is
// journaled before it is buffered (and therefore observable by a
// streaming client); its append is barrier 2, so an offset a client has
// seen can never regress across a restart. During a resumed execution the
// first j.recovered rows — journaled and buffered before the crash — are
// suppressed entirely.
func (j *Job) Row(row exec.Row) error {
	if !j.srv.journalEnabled() {
		j.pushLine(j.encodeRow(row))
		return nil
	}
	faultinject.Hit("server.job.row")
	if faultinject.Killed() {
		return fmt.Errorf("server: process killed (fault injection)")
	}
	j.mu.Lock()
	skip := j.recovered > 0
	if skip {
		j.recovered--
	}
	j.mu.Unlock()
	if skip {
		return nil
	}
	line := j.encodeRow(row)
	j.srv.journalWrite(rowRec{journalRec{T: recRow, Job: j.id}, line}, true)
	j.pushLine(line)
	return nil
}

// Progress stores the running statement's latest stats snapshot. The
// engine publishes one before every crowd wait — before it posts a HIT
// group, before it waits on another session's flight — so the first one
// is the job's first wait on the crowd. Only that one wakes the job's
// waiters: streams read rows, the state and whether the job has waited,
// never the stats. The engine also publishes one right after it stores a
// HIT group's comparison answers; with a journal, the answers a named
// session's statement stored since the last call are journaled as its
// spend, buffered, so the next row's append syncs them.
func (j *Job) Progress(st exec.Stats) {
	if n := st.Memoized - j.spendJournaled; n > 0 && j.sessionID != "" && j.srv.journalEnabled() {
		j.spendJournaled = st.Memoized
		j.srv.journalWrite(journalRec{T: recSpend, Session: j.sessionID, N: n}, false)
	}
	j.mu.Lock()
	j.progressStats = st
	if !j.waited {
		j.waited = true
		j.broadcastLocked()
	}
	j.mu.Unlock()
}

// Final records the running statement's final crowd stats — reported
// even when it fails or is cancelled — for runJob to settle.
func (j *Job) Final(st exec.Stats) { j.stmtStats = st }

// ---------------------------------------------------------------------------
// Recovery

// recoveredSession is one session's replayed state.
type recoveredSession struct {
	budget     int
	spendSince int // spend deltas after the last absolute budget record
	closed     bool
}

// recoveredJob is one job's replayed state.
type recoveredJob struct {
	id, session, sql string
	columns          []string
	rows             rowLines
	state            JobState // "" = non-terminal at crash time
	code             Code
	msg              string
	affected, stmts  int
}

// resumable reports whether a script may safely re-execute after a
// restart: every statement must be read-only (SELECT / EXPLAIN / SHOW),
// so re-running it mutates nothing and the persistent comparison cache
// replays the crowd's answers for free.
func resumable(stmts []parser.Statement) bool {
	for _, stmt := range stmts {
		switch t := stmt.(type) {
		case *parser.Select, *parser.ShowTables:
		case *parser.Explain:
			if !resumable([]parser.Statement{t.Stmt}) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// EnableJournal turns on the durable jobs journal at path, recovering
// whatever a previous process journaled there. Call it once, after New
// and before serving traffic. Recovery rebuilds live sessions with their
// crash-exact remaining budgets, re-registers finished jobs with their
// results intact, resumes interrupted read-only scripts, fails
// unresumable ones with the coded interrupted state, and compacts the
// journal before new appends flow.
func (s *Server) EnableJournal(path string, mode storage.SyncMode) error {
	sessions := make(map[string]*recoveredSession)
	jobs := make(map[string]*recoveredJob)
	var order []string
	err := storage.ReplayRecordLog(path, func(line json.RawMessage) error {
		var rec rowRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch rec.T {
		case recSession:
			rs := &recoveredSession{budget: -1}
			if rec.Budget != nil {
				rs.budget = *rec.Budget
			}
			sessions[rec.Session] = rs
		case recSessionClose:
			if rs, ok := sessions[rec.Session]; ok {
				rs.closed = true
			}
		case recBudget:
			if rs, ok := sessions[rec.Session]; ok && rec.Budget != nil {
				rs.budget, rs.spendSince = *rec.Budget, 0
			}
		case recSpend:
			if rs, ok := sessions[rec.Session]; ok {
				rs.spendSince += rec.N
			}
		case recSubmit:
			jobs[rec.Job] = &recoveredJob{id: rec.Job, session: rec.Session, sql: rec.SQL}
			order = append(order, rec.Job)
		case recRun:
			// Lifecycle breadcrumb only: a non-terminal job is handled the
			// same whether it was queued or already running.
		case recSchema:
			if rj, ok := jobs[rec.Job]; ok {
				rj.columns = rec.Columns
			}
		case recRow:
			if rj, ok := jobs[rec.Job]; ok {
				rj.rows.add(rec.Row)
			}
		case recEnd:
			if rj, ok := jobs[rec.Job]; ok {
				rj.state, rj.code, rj.msg = rec.State, rec.Code, rec.Msg
				rj.affected, rj.stmts = rec.Affected, rec.Stmts
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: jobs journal replay: %w", err)
	}

	// Decide every non-terminal job's disposition before compaction so the
	// rewritten journal already carries the interrupted end records.
	type resumption struct {
		job   *Job
		stmts []parser.Statement
	}
	var resume []resumption
	for _, id := range order {
		rj := jobs[id]
		if rj.state != "" {
			continue // terminal: re-registered as-is below
		}
		stmts, perr := parser.ParseAll(rj.sql)
		rs := sessions[rj.session]
		sessionLive := rj.session == "" || (rs != nil && !rs.closed)
		if perr != nil || !sessionLive || !resumable(stmts) {
			rj.state = JobInterrupted
			rj.code = CodeInterrupted
			switch {
			case !sessionLive:
				rj.msg = "restart interrupted the job and its session did not survive"
			default:
				rj.msg = "restart interrupted the job and its script is not resumable (contains writes)"
			}
			continue
		}
		sess := s.recoverSession(rj.session, rs)
		ctx, cancel := context.WithCancel(context.Background())
		job := &Job{
			id:           rj.id,
			sql:          rj.sql,
			sess:         sess,
			sessionID:    rj.session,
			srv:          s,
			ctx:          ctx,
			cancel:       cancel,
			state:        JobQueued,
			columns:      rj.columns,
			rows:         rj.rows,
			recovered:    rj.rows.len(),
			admPredicted: -1,
		}
		resume = append(resume, resumption{job: job, stmts: stmts})
	}

	// Rebuild live sessions with their recovered budgets, continue the id
	// sequences past everything replayed.
	s.mu.Lock()
	for id, rs := range sessions {
		if rs.closed {
			continue
		}
		s.sessions[id] = s.recoverSessionLocked(id, rs)
		var n int64
		if _, err := fmt.Sscanf(id, "s%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	for _, id := range order {
		var n int64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.jobSeq {
			s.jobSeq = n
		}
	}
	s.mu.Unlock()

	// Compact: the rewritten journal carries live sessions (recovered
	// absolute budgets), then each retained job's submit/schema/rows and,
	// for terminal jobs, its end record. Spend deltas are folded away.
	log, err := storage.RewriteRecordLog(path, mode, func(add func(v any) error) error {
		for id, rs := range sessions {
			if rs.closed {
				continue
			}
			b := recoveredBudget(rs)
			if err := add(journalRec{T: recSession, Session: id, Budget: &b}); err != nil {
				return err
			}
		}
		for _, id := range order {
			rj := jobs[id]
			if err := add(journalRec{T: recSubmit, Job: rj.id, Session: rj.session, SQL: rj.sql}); err != nil {
				return err
			}
			if rj.columns != nil {
				if err := add(journalRec{T: recSchema, Job: rj.id, Columns: rj.columns}); err != nil {
					return err
				}
			}
			for i := 0; i < rj.rows.len(); i++ {
				if err := add(rowRec{journalRec{T: recRow, Job: rj.id}, rj.rows.line(i)}); err != nil {
					return err
				}
			}
			if rj.state != "" {
				rec := journalRec{T: recEnd, Job: rj.id, State: rj.state,
					Code: rj.code, Msg: rj.msg, Affected: rj.affected, Stmts: rj.stmts}
				if err := add(rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: jobs journal compaction: %w", err)
	}
	if reg := s.eng.Metrics(); reg != nil {
		log.SetMetrics(
			reg.Histogram("crowddb_journal_fsync_seconds",
				"jobs journal flush+fsync latency per group-commit batch, seconds", storage.FsyncBuckets),
			reg.Histogram("crowddb_journal_fsync_batch_records",
				"jobs journal records made durable per fsync (group-commit batch size)", storage.BatchBuckets))
		s.mJournalErrs = reg.Counter("crowddb_journal_append_errors_total",
			"jobs journal appends that failed (the journal is poisoned; queries keep running)")
	}
	s.journal.Store(log)

	// Re-register terminal jobs (including the freshly interrupted ones)
	// and launch the resumptions.
	for _, id := range order {
		rj := jobs[id]
		if rj.state == "" {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		job := &Job{
			id:           rj.id,
			sql:          rj.sql,
			sessionID:    rj.session,
			srv:          s,
			ctx:          ctx,
			cancel:       cancel,
			state:        rj.state,
			columns:      rj.columns,
			rows:         rj.rows,
			affected:     rj.affected,
			stmtsDone:    rj.stmts,
			admPredicted: -1,
		}
		if rj.code != "" {
			job.err = &Error{Code: rj.code, Message: rj.msg}
		}
		s.mu.Lock()
		s.jobs[job.id] = job
		s.finished = append(s.finished, job.id)
		s.mu.Unlock()
		if rj.state == JobInterrupted {
			s.mJobsByState[JobInterrupted].Inc()
		}
	}
	for _, r := range resume {
		s.mu.Lock()
		s.jobs[r.job.id] = r.job
		s.mu.Unlock()
		r.job.trace = s.eng.Tracer().StartSized(r.job.id, hasQuery(r.stmts))
		r.job.rowsMetric = s.mRowsStreamed
		r.job.sess.addJob(r.job)
		r.job.retired.Add(1)
		go s.runJob(r.job, r.stmts)
	}
	return nil
}

// recoveredBudget resolves a replayed session's remaining budget: the
// last absolute record minus the spend journaled after it, floored at
// zero (unlimited budgets stay unlimited).
func recoveredBudget(rs *recoveredSession) int {
	if rs.budget < 0 {
		return -1
	}
	if b := rs.budget - rs.spendSince; b > 0 {
		return b
	}
	return 0
}

// recoverSession returns the live *Session for a replayed session id,
// creating (or fetching) it under s.mu; empty ids get a fresh anonymous
// session with the default budget (anonymous budgets are not journaled).
func (s *Server) recoverSession(id string, rs *recoveredSession) *Session {
	if id == "" {
		return &Session{id: anonymousSessionID, budget: s.effectiveBudget(0)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoverSessionLocked(id, rs)
}

func (s *Server) recoverSessionLocked(id string, rs *recoveredSession) *Session {
	if sess, ok := s.sessions[id]; ok {
		return sess
	}
	sess := &Session{id: id, budget: recoveredBudget(rs)}
	s.sessions[id] = sess
	return sess
}
