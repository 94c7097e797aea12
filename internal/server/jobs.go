package server

// The query-job subsystem: the v1 API's resource model. A job is one
// submitted CrowdSQL script moving through the lifecycle
//
//	queued -> running -> done | failed | cancelled
//
// Rows stream out of the engine into the job, each statement's observer,
// and its buffer as operators produce them, so clients can consume
// partial results while the crowd is still working; cancellation
// propagates through the statement context into the crowd operators (no
// new HIT groups are posted, queued submissions are withdrawn, paid work
// settles against the session budget). StartJob -> runJob is the only
// way a statement enters the server; the synchronous convenience form
// lives in pkg/client.Query.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/exec"
	"crowddb/internal/obs"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
)

// JobState is a job's lifecycle position.
type JobState string

// The job lifecycle: queued (admission pending), running, and the
// terminal states. Interrupted is reached only across a restart: the
// recovery path found the job mid-flight in the journal and could not
// resume its script.
const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCancelled   JobState = "cancelled"
	JobInterrupted JobState = "interrupted"
)

// maxRetainedJobs caps retained finished jobs: terminal job resources
// stay pollable until the cap evicts the oldest. Active jobs are never
// evicted.
const maxRetainedJobs = 256

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobInterrupted
}

// Job is one asynchronous query execution. All exported access goes
// through methods; the zero value is not usable (Server.StartJob builds
// them).
type Job struct {
	id        string
	sql       string
	sess      *Session
	sessionID string // "" = anonymous one-shot session
	srv       *Server
	// trace is the job's span tree: one trace for the whole script,
	// threaded through every statement, finished at retirement. Nil when
	// the engine runs with observability disabled.
	trace      *obs.Trace
	rowsMetric *obs.Counter

	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// notify is closed and cleared on every visible change; it is made only
	// when a waiter asks for it, so a change nobody waits for allocates
	// nothing.
	notify chan struct{}
	// waited says the job has waited on something outside the machine — an
	// execution slot, or the crowd. Until it has, its streams buffer what
	// they write instead of flushing it (see streamJobRows).
	waited bool
	// retired is released at the end of retireJob — after finish has
	// journaled the end record and woken the streamers: counters bumped,
	// retention cap enforced. Wait returns only past it. (A WaitGroup, not
	// a channel: no allocation per job, and a job recovered already
	// terminal, which this process never retires, never blocks.)
	retired sync.WaitGroup
	state   JobState
	err     *Error
	// cancelCode/cancelMsg record why cancellation was requested, so the
	// runner can distinguish a client DELETE (-> cancelled) from a closed
	// session (-> failed with session_closed).
	cancelCode Code
	cancelMsg  string

	// Result accumulation. rows holds every streamed row of the script,
	// encoded once as the line the NDJSON/SSE streamers and the journal
	// write; enc is the runner's scratch for encoding the next one.
	columns       []string
	rows          rowLines
	enc           []byte
	lastPredicted plan.Cost
	lastActual    float64
	affected      int
	plan          string
	warnings      []string

	stmtsDone     int
	settledStats  exec.Stats
	settledCents  float64
	progressStats exec.Stats // live snapshot of the running statement
	// stmtStats and spendJournaled belong to the running statement and
	// its goroutine alone (runJob zeroes them before each statement): the
	// final crowd stats Final reported, and the stored comparison answers
	// Progress has journaled as the session's spend.
	stmtStats      exec.Stats
	spendJournaled int
	// recovered counts journal-recovered rows already in the buffer when a
	// restart resumes this job: the re-executed script's first `recovered`
	// sink emissions are suppressed instead of buffered (and journaled)
	// again, so reconnecting clients see neither duplicates nor gaps.
	recovered int
	// admPredicted is the optimizer's cost forecast taken at admission
	// (cents; <0 = no forecast) — settled against the actual spend when
	// the job retires, for the /stats admission-accuracy report.
	admPredicted float64
	// snapshotTS is the MVCC snapshot timestamp the most recent SELECT
	// pinned: every row that statement streams is the database as of this
	// commit timestamp, regardless of writes landing while the crowd works.
	snapshotTS int64
}

// JobInfo is a job's reportable state (the v1 job resource).
type JobInfo struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Session string   `json:"session,omitempty"`
	// Columns names the (latest) result set's columns once known.
	Columns []string `json:"columns,omitempty"`
	// RowsEmitted counts rows streamed so far across the whole script.
	RowsEmitted int      `json:"rows_emitted"`
	Affected    int      `json:"affected,omitempty"`
	Plan        string   `json:"plan,omitempty"`
	Warnings    []string `json:"warnings,omitempty"`
	// StatementsDone counts completed statements of the script.
	StatementsDone int `json:"statements_done"`
	// Stats aggregates crowd activity over completed statements plus the
	// running statement's latest progress snapshot.
	Stats exec.Stats `json:"stats"`
	// PredictedCents/PredictedSeconds carry the cost model's forecast for
	// the last compiled statement; SpentCents is the crowd spend committed
	// so far (settled statements + the running statement's progress).
	PredictedCents   float64 `json:"predicted_cents,omitempty"`
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	SpentCents       float64 `json:"spent_cents"`
	ActualCents      float64 `json:"actual_cents,omitempty"`
	// SnapshotTS is the commit timestamp the latest SELECT's MVCC snapshot
	// pinned; its streamed rows are the database as of that instant.
	SnapshotTS int64 `json:"snapshot_ts,omitempty"`
	// TraceID names the job's span tree at GET /v1/queries/{id}/trace
	// (empty when the engine traces nothing).
	TraceID string `json:"trace_id,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// newJobID formats the n-th job's identifier.
func newJobID(n int64) string { return fmt.Sprintf("j%06d", n) }

// broadcastLocked wakes every waiter; callers hold j.mu.
func (j *Job) broadcastLocked() {
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

// notifyLocked returns the channel the next change closes; callers hold
// j.mu.
func (j *Job) notifyLocked() <-chan struct{} {
	if j.notify == nil {
		j.notify = make(chan struct{})
	}
	return j.notify
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Info snapshots the job resource.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:             j.id,
		State:          j.state,
		Session:        j.sessionID,
		Columns:        j.columns,
		RowsEmitted:    j.rows.len(),
		Affected:       j.affected,
		Plan:           j.plan,
		Warnings:       j.warnings,
		StatementsDone: j.stmtsDone,
		Stats:          j.settledStats.Add(j.progressStats),
		SpentCents:     j.settledCents + j.progressStats.Cents(j.srv.eng.Prices()),
		SnapshotTS:     j.snapshotTS,
		TraceID:        j.trace.ID(),
		Error:          j.err,
	}
	if !j.lastPredicted.IsUnbounded() {
		info.PredictedCents = j.lastPredicted.Cents
		info.PredictedSeconds = j.lastPredicted.Seconds
	}
	if j.state == JobDone {
		info.ActualCents = j.lastActual
	}
	return info
}

// rowLines is a job's streamed rows, each encoded once as an NDJSON line.
// Bytes once added are never written again, so a slice handed out under
// the job's lock stays valid to read after it is released.
type rowLines struct {
	buf  []byte // every line, each ending in '\n'
	ends []int  // ends[i] is the offset just past row i's '\n'
}

func (r *rowLines) add(line []byte) {
	r.buf = append(append(r.buf, line...), '\n')
	r.ends = append(r.ends, len(r.buf))
}

func (r *rowLines) len() int { return len(r.ends) }

// from returns the lines of rows n on (nil when there are none).
func (r *rowLines) from(n int) []byte {
	if n >= len(r.ends) {
		return nil
	}
	start := 0
	if n > 0 {
		start = r.ends[n-1]
	}
	return r.buf[start:]
}

// line returns row i's line without its newline.
func (r *rowLines) line(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.buf[start : r.ends[i]-1]
}

// encodeRow encodes row into the job's scratch and returns the line; it
// is valid until the next call. Only the job's runner calls it.
func (j *Job) encodeRow(row exec.Row) []byte {
	j.enc = appendRow(j.enc[:0], row)
	return j.enc
}

// pushLine buffers one encoded row and wakes the streamers.
func (j *Job) pushLine(line []byte) {
	j.rowsMetric.Inc()
	j.mu.Lock()
	j.rows.add(line)
	j.broadcastLocked()
	j.mu.Unlock()
}

// noteSlotWait records that the job is about to wait for an execution
// slot.
func (j *Job) noteSlotWait() {
	j.mu.Lock()
	j.waited = true
	j.broadcastLocked()
	j.mu.Unlock()
}

// completeStmt folds one finished statement into the job.
func (j *Job) completeStmt(res *core.Result, st exec.Stats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stmtsDone++
	j.settledStats = j.settledStats.Add(st)
	j.settledCents += res.ActualCents
	j.progressStats = exec.Stats{}
	j.lastPredicted = res.Predicted
	j.lastActual = res.ActualCents
	j.affected = res.Affected
	j.plan = res.Plan
	j.warnings = res.Warnings
	j.broadcastLocked()
}

// finish moves the job to a terminal state exactly once, and only after
// its end record is durable (barrier 3): whoever sees the terminal state —
// a stream's trailer, a poll, Wait — finds it again after any restart.
// The job's runner is the only caller.
func (s *Server) finish(j *Job, state JobState, err *Error) {
	j.cancel() // release the context regardless of how we got here
	if j.State().Terminal() {
		return
	}
	s.journalEnd(j, state, err)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.err = err
	// The running statement's progress is settled (or lost) by now.
	j.settledStats = j.settledStats.Add(j.progressStats)
	j.settledCents += j.progressStats.Cents(j.srv.eng.Prices())
	j.progressStats = exec.Stats{}
	j.broadcastLocked()
}

// finishInterrupted resolves a job whose statement context fired: a
// client cancellation yields the cancelled state, a closed session the
// coded session_closed failure, and an expired drain deadline the coded
// shutting_down failure.
func (s *Server) finishInterrupted(j *Job) {
	j.mu.Lock()
	code, msg := j.cancelCode, j.cancelMsg
	j.mu.Unlock()
	switch code {
	case CodeSessionClosed:
		s.finish(j, JobFailed, errf(CodeSessionClosed, "%s", msg))
	case CodeShuttingDown:
		s.finish(j, JobFailed, errf(CodeShuttingDown, "%s", msg))
	default:
		s.finish(j, JobCancelled, nil)
	}
}

// requestCancel asks a non-terminal job to stop. The statement context
// fires immediately; the runner settles paid work and records the
// terminal state.
func (j *Job) requestCancel(code Code, msg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.cancelCode == "" {
		j.cancelCode = code
		j.cancelMsg = msg
	}
	j.mu.Unlock()
	j.cancel()
}

// Wait blocks until the job is terminal and retired — end record
// journaled, state counters bumped, retention cap enforced — or ctx fires,
// and returns the last state it saw. It is the in-process form of
// reading a row stream to its trailer.
func (j *Job) Wait(ctx context.Context) (JobState, error) {
	for {
		j.mu.Lock()
		state := j.state
		if state.Terminal() {
			j.mu.Unlock()
			j.retired.Wait() // retirement follows the terminal state at once
			return state, nil
		}
		notify := j.notifyLocked()
		j.mu.Unlock()
		select {
		case <-notify:
		case <-ctx.Done():
			return state, ctx.Err()
		}
	}
}

// rowsFrom snapshots the lines of the rows buffered from index n on and
// how many rows they are, plus the state, whether the job has waited yet,
// and — unless the job is terminal — a channel that signals the next
// change: the streaming endpoints' poll step.
func (j *Job) rowsFrom(n int) (lines []byte, rows int, state JobState, waited bool, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines, rows = j.rows.from(n), max(j.rows.len()-n, 0)
	if !j.state.Terminal() {
		notify = j.notifyLocked()
	}
	return lines, rows, j.state, j.waited, notify
}

// Err returns the job's terminal error, if any.
func (j *Job) Err() *Error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ---------------------------------------------------------------------------
// Server-side job management

// StartJob submits a CrowdSQL script as an asynchronous job on behalf of
// a session (sessionID empty = anonymous one-shot session). Parse errors
// are rejected synchronously; everything later — admission, budget,
// execution — is reported through the job resource. It does not wait for
// the journal: the submit record is buffered before the job is listed,
// and becomes durable at the first barrier (a response naming the job, a
// row, the end record).
func (s *Server) StartJob(sessionID, sql string) (*Job, *Error) {
	sess, serr := s.resolveSession(sessionID)
	if serr != nil {
		s.countRejected(serr)
		return nil, serr
	}
	parseStart := time.Now()
	stmts, err := parser.ParseAll(sql)
	if err != nil {
		s.countError()
		return nil, errf(CodeParse, "%v", err)
	}
	parseEnd := time.Now()
	// Budget-aware admission: reject before any HIT could be posted when
	// the optimizer's forecast says the script cannot fit the session's
	// remaining budget. Zero cents have been spent at this point.
	predicted, aerr := s.admitBudget(sess, stmts)
	if aerr != nil {
		s.countRejected(aerr)
		return nil, aerr
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		serr := errf(CodeShuttingDown, "server is shutting down")
		s.countRejected(serr)
		return nil, serr
	}
	s.jobSeq++
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		id:           newJobID(s.jobSeq),
		sql:          sql,
		sess:         sess,
		sessionID:    sessionID,
		srv:          s,
		ctx:          ctx,
		cancel:       cancel,
		state:        JobQueued,
		admPredicted: predicted,
	}
	job.retired.Add(1)
	if s.jobs == nil {
		s.jobs = make(map[string]*Job)
	}
	s.journalSubmit(job)
	s.jobs[job.id] = job
	s.mu.Unlock()
	job.rowsMetric = s.mRowsStreamed
	// One trace per job, named by the job id: parsing happened before the
	// id was allocated, so it is stamped with explicit bounds.
	job.trace = s.eng.Tracer().StartSized(job.id, hasQuery(stmts))
	psp := job.trace.SpanAt(nil, "parse", parseStart, parseEnd)
	psp.SetInt("statements", int64(len(stmts)))
	sess.addJob(job)
	go s.runJob(job, stmts)
	return job, nil
}

// hasQuery reports whether a script runs a SELECT or EXPLAIN: its trace
// is sized for a query's operator spans.
func hasQuery(stmts []parser.Statement) bool {
	for _, st := range stmts {
		switch st.(type) {
		case *parser.Select, *parser.Explain:
			return true
		}
	}
	return false
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, errf(CodeUnknownJob, "unknown job %q", id)
	}
	return job, nil
}

// Jobs snapshots every retained job, newest first.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	infos := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = j.Info()
	}
	// Job ids are zero-padded sequentials, so string order is submission
	// order; report newest first.
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID > infos[b].ID })
	return infos
}

// CancelJob requests cancellation of a job and returns its (possibly
// not yet terminal) resource snapshot. Cancelling a finished job is a
// no-op, not an error — DELETE is idempotent.
func (s *Server) CancelJob(id string) (*Job, *Error) {
	job, serr := s.Job(id)
	if serr != nil {
		return nil, serr
	}
	job.requestCancel(CodeCancelled, "cancelled by client")
	return job, nil
}

// runJob executes a job's statements under the server's admission
// control, settling the session budget per statement — including for
// work a cancelled statement already paid for.
func (s *Server) runJob(job *Job, stmts []parser.Statement) {
	if aerr := s.admit(job.ctx, job.noteSlotWait); aerr != nil {
		s.countRejected(aerr)
		if job.ctx.Err() != nil {
			s.finishInterrupted(job)
		} else {
			s.finish(job, JobFailed, aerr)
		}
		s.retireJob(job)
		return
	}
	defer s.release()
	job.mu.Lock()
	if !job.state.Terminal() {
		job.state = JobRunning
		job.broadcastLocked()
	}
	job.mu.Unlock()
	s.journalRun(job)

	for _, stmt := range stmts {
		if job.ctx.Err() != nil {
			s.finishInterrupted(job)
			s.retireJob(job)
			return
		}
		reserved, berr := job.sess.reserveBudget()
		if berr != nil {
			s.countError()
			s.finish(job, JobFailed, berr)
			s.retireJob(job)
			return
		}
		job.stmtStats, job.spendJournaled = exec.Stats{}, 0
		opts := core.ExecOpts{CompareBudget: reserved, Observer: job, Trace: job.trace} // budget 0 = unlimited
		res, err := s.eng.ExecStmtCtx(job.ctx, stmt, opts)
		// Settle precisely: Final reports crowd work already paid even
		// when the statement failed or was cancelled, so the session budget
		// refunds exactly the unused reservation.
		job.sess.settle(job.stmtStats, reserved)
		s.journalBudget(job.sess)
		if err != nil {
			// Final's numbers supersede the last mid-statement progress
			// snapshot before the job settles (finish publishes them; this
			// is no wait).
			job.mu.Lock()
			job.progressStats = job.stmtStats
			job.mu.Unlock()
			if job.ctx.Err() != nil {
				s.finishInterrupted(job)
			} else {
				s.countError()
				s.finish(job, JobFailed, errf(CodeInternal, "%v", err))
			}
			s.retireJob(job)
			return
		}
		job.completeStmt(res, job.stmtStats)
	}
	s.mu.Lock()
	s.stats.Queries++
	s.mu.Unlock()
	s.finish(job, JobDone, nil)
	s.retireJob(job)
}

// retireJob moves a terminal job out of its session's active set and
// enforces the finished-job retention cap. The job's trace is sealed
// here — dangling spans close, the slow-query log fires past threshold.
// The journal is not touched: finish made the end record durable.
func (s *Server) retireJob(job *Job) {
	defer job.retired.Done()
	s.eng.Tracer().Finish(job.trace)
	s.mJobsByState[job.State()].Inc()
	job.sess.removeJob(job.id)
	s.noteAdmissionOutcome(job)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.id)
	for len(s.finished) > maxRetainedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}
