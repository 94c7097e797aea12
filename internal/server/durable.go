package server

// Durable jobs: what recovery reads of a job's lifecycle — its
// submission, result-set schema, emitted rows and terminal state, and the
// session budget movements that fund them — is journaled through a
// storage.RecordLog with the same fsync contract as the per-shard WALs.
// The end record is the one state transition journaled (a job found
// queued recovers as one found running), and the server.job.state
// crashpoint sits on it. A crowddbd restart replays the journal and
// recovers every job coherently:
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
// written. The submit, schema, spend and budget records are buffered; the
// journal syncs at exactly three barriers:
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
	"encoding/json"
	"fmt"

	"crowddb/internal/core"
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

// The records below are built by one function each, which the live path
// and recovery's compaction share.

// sessionRecord carries a session's absolute remaining budget: t is
// recSession when the session is created, recBudget after a settle.
func sessionRecord(t string, sess *Session) journalRec {
	b := sess.budgetLeft()
	return journalRec{T: t, Session: sess.id, Budget: &b}
}

func submitRecord(j *Job) journalRec {
	return journalRec{T: recSubmit, Job: j.id, Session: j.sessionID, SQL: j.sql}
}

func schemaRecord(job string, cols []string) journalRec {
	return journalRec{T: recSchema, Job: job, Columns: cols}
}

func rowRecord(job string, line []byte) rowRec {
	return rowRec{journalRec{T: recRow, Job: job}, line}
}

// endRecord is j's end record for the terminal state it enters; the
// caller holds j.mu or is its only reader.
func endRecord(j *Job, state JobState, err *Error) journalRec {
	rec := journalRec{T: recEnd, Job: j.id, State: state, Affected: j.affected, Stmts: j.stmtsDone}
	if err != nil {
		rec.Code, rec.Msg = err.Code, err.Message
	}
	return rec
}

func (s *Server) journalSession(sess *Session) {
	if !s.journalEnabled() {
		return
	}
	s.journalWrite(sessionRecord(recSession, sess), true)
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
	s.journalWrite(submitRecord(j), false)
}

// journalBudget writes the session's absolute remaining budget after a
// settle, superseding the spend deltas journaled since.
func (s *Server) journalBudget(sess *Session) {
	if !s.journalEnabled() || sess.id == anonymousSessionID {
		return
	}
	s.journalWrite(sessionRecord(recBudget, sess), false)
}

// journalEnd makes the terminal state a job is about to enter durable
// (barrier 3; finish publishes the state only after it returns). It is
// the journal's one state transition, and a crashpoint sits on it.
func (s *Server) journalEnd(j *Job, state JobState, err *Error) {
	if !s.journalEnabled() {
		return
	}
	faultinject.Hit("server.job.state")
	if faultinject.Killed() {
		return
	}
	j.mu.Lock()
	rec := endRecord(j, state, err)
	j.mu.Unlock()
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
		j.srv.journalWrite(schemaRecord(j.id, cols), false)
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
	j.srv.journalWrite(rowRecord(j.id, line), true)
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

// jobRecord is what the journal holds of one job: its submit record, its
// result set so far, and — once it ended — its end record (state "" =
// not terminal). newJob builds a *Job from one.
type jobRecord struct {
	id, session, sql string
	columns          []string
	rows             rowLines
	state            JobState
	err              *Error
	affected, stmts  int
}

// recovery is one job rebuilt from the journal, with the script it
// resumes (unset for a terminal job).
type recovery struct {
	job    *Job
	script core.Script
}

// resumable reports whether a script's statements may safely re-execute
// after a restart: every statement must be read-only (SELECT / EXPLAIN /
// SHOW), so re-running it mutates nothing and the persistent comparison
// cache replays the crowd's answers for free. A SELECT the plan cache
// served unparsed has no statements here, and is resumable.
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
// and before serving traffic. Recovery replays the journal, decides every
// job's fate (rebuilding live sessions with their crash-exact remaining
// budgets), compacts the journal before new appends flow, and starts:
// finished jobs come back with their results intact, interrupted
// read-only scripts resume, and unresumable ones fail with the coded
// interrupted state.
func (s *Server) EnableJournal(path string, mode storage.SyncMode) error {
	sessions, records, err := replayJobsJournal(path)
	if err != nil {
		return fmt.Errorf("server: jobs journal replay: %w", err)
	}
	live, recs := s.recoverJobs(sessions, records)
	log, err := storage.RewriteRecordLog(path, mode, func(add func(v any) error) error {
		return compactJournal(add, live, recs)
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
	s.startRecovered(recs)
	return nil
}

// replayJobsJournal reads the journal at path into each session's and
// each job's last state, jobs in submission order. A "run" line, which
// journals written before the record was dropped carry, is skipped like
// any unknown record type.
func replayJobsJournal(path string) (map[string]*recoveredSession, []*jobRecord, error) {
	sessions := make(map[string]*recoveredSession)
	jobs := make(map[string]*jobRecord)
	var order []*jobRecord
	err := storage.ReplayRecordLog(path, func(line json.RawMessage) error {
		var rec rowRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		rs, rj := sessions[rec.Session], jobs[rec.Job]
		switch {
		case rec.T == recSession:
			rs = &recoveredSession{budget: -1}
			if rec.Budget != nil {
				rs.budget = *rec.Budget
			}
			sessions[rec.Session] = rs
		case rec.T == recSubmit:
			rj = &jobRecord{id: rec.Job, session: rec.Session, sql: rec.SQL}
			jobs[rec.Job] = rj
			order = append(order, rj)
		case rs != nil && rec.T == recSessionClose:
			rs.closed = true
		case rs != nil && rec.T == recBudget && rec.Budget != nil:
			rs.budget, rs.spendSince = *rec.Budget, 0
		case rs != nil && rec.T == recSpend:
			rs.spendSince += rec.N
		case rj != nil && rec.T == recSchema:
			rj.columns = rec.Columns
		case rj != nil && rec.T == recRow:
			rj.rows.add(rec.Row)
		case rj != nil && rec.T == recEnd:
			rj.state, rj.affected, rj.stmts = rec.State, rec.Affected, rec.Stmts
			if rec.Code != "" {
				rj.err = &Error{Code: rec.Code, Message: rec.Msg}
			}
		}
		return nil
	})
	return sessions, order, err
}

// recoverJobs is recovery's decision: it rebuilds the live sessions with
// their crash-exact budgets, continues the id sequences past everything
// replayed, and builds every replayed job — terminal as journaled,
// resumed when its script is read-only and its session survived, and
// interrupted otherwise.
func (s *Server) recoverJobs(sessions map[string]*recoveredSession, records []*jobRecord) (live []*Session, recs []recovery) {
	s.mu.Lock()
	for id, rs := range sessions {
		if rs.closed {
			continue
		}
		sess := newSession(id, recoveredBudget(rs))
		s.sessions[id] = sess
		live = append(live, sess)
		s.seq = max(s.seq, idSeq(id, "s%d"))
	}
	for _, r := range records {
		s.jobSeq = max(s.jobSeq, idSeq(r.id, "j%d"))
	}
	s.mu.Unlock()
	for _, r := range records {
		var script core.Script
		var sess *Session
		if r.state == "" {
			script, sess = s.resume(r)
		}
		recs = append(recs, recovery{s.newJob(*r, sess, -1), script})
	}
	return live, recs
}

// resume returns the script and session a job found mid-flight re-runs
// on, or marks the job interrupted when its session did not survive or
// its script is not resumable.
func (s *Server) resume(r *jobRecord) (core.Script, *Session) {
	script, perr := s.eng.Prepare(r.sql)
	sess, serr := s.resolveSession(r.session)
	switch {
	case serr != nil:
		r.err = errf(CodeInterrupted, "restart interrupted the job and its session did not survive")
	case perr != nil || !resumable(script.Statements()):
		r.err = errf(CodeInterrupted, "restart interrupted the job and its script is not resumable (contains writes)")
	default:
		return script, sess
	}
	r.state = JobInterrupted
	return core.Script{}, nil
}

// idSeq reads the sequence number of a journaled id (0 when it has none).
func idSeq(id, format string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, format, &n); err != nil {
		return 0
	}
	return n
}

// compactJournal writes the compacted journal: the live sessions with
// their recovered absolute budgets, then each retained job's submit,
// schema and rows and, for a terminal job, its end record. Spend deltas
// are folded into the budgets.
func compactJournal(add func(v any) error, live []*Session, recs []recovery) error {
	var err error
	put := func(rec any) {
		if err == nil {
			err = add(rec)
		}
	}
	for _, sess := range live {
		put(sessionRecord(recSession, sess))
	}
	for _, r := range recs {
		j := r.job
		put(submitRecord(j))
		if j.columns != nil {
			put(schemaRecord(j.id, j.columns))
		}
		for i := range j.rows.len() {
			put(rowRecord(j.id, j.rows.line(i)))
		}
		if j.state.Terminal() {
			put(endRecord(j, j.state, j.err))
		}
	}
	return err
}

// startRecovered lists the recovered terminal jobs as finished, in
// journal order, then launches the resumed ones.
func (s *Server) startRecovered(recs []recovery) {
	s.mu.Lock()
	for _, r := range recs {
		if st := r.job.state; st.Terminal() {
			s.jobs[r.job.id] = r.job
			s.finished = append(s.finished, r.job.id)
			if st == JobInterrupted {
				s.mJobsByState[JobInterrupted].Inc()
			}
		}
	}
	s.mu.Unlock()
	for _, r := range recs {
		if !r.job.state.Terminal() {
			s.launch(r.job, r.script)
		}
	}
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
