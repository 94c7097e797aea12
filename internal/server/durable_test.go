package server

// The durable-jobs acceptance suite: a crowddbd "restart" is simulated by
// closing the engine + server over a data dir and jobs journal, then
// assembling fresh ones over the same paths. Crashes are simulated with
// the faultinject registry's soft handler: from the armed instant on,
// every durability write (shard WAL, compare answers included, and
// jobs journal) is silently dropped and nothing more is synced, and a log
// closed afterwards keeps only its synced prefix — what a machine crash
// leaves — while the dying process's in-memory state plays out.
//
// The contracts pinned here:
//   - finished jobs survive a restart with state, columns, and full row
//     buffers intact (?from=N reconnects see identical bytes);
//   - interrupted read-only scripts resume to completion with rows
//     byte-identical to an uninterrupted run, zero re-paid comparisons,
//     and the session budget settling at exactly the uninterrupted value;
//   - scripts with writes, and jobs whose session did not survive, come
//     back terminal in the coded interrupted state;
//   - across arbitrary crashpoints the journal never invents rows, never
//     regresses an acknowledged offset, and never over-charges a budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/faultinject"
	"crowddb/internal/sim"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const durableQuery = "SELECT id FROM Pair WHERE a ~= b"

// engineOpener opens the engine a durable-jobs test runs on.
type engineOpener func(t *testing.T, dataDir string, seed int64, n int, mode storage.SyncMode) *core.Engine

// durableEngine opens a durable engine over dataDir with a fully
// deterministic crowd: perfect-accuracy workers, no spammers, no format
// noise, and a difficulty-0 oracle. Every majority vote is unanimous and
// correct, so a resumed execution reaches the same decisions as an
// uninterrupted one regardless of which comparisons replay from the
// persistent cache and which consume fresh market randomness.
func durableEngine(t *testing.T, dataDir string, seed int64, n int, mode storage.SyncMode) *core.Engine {
	t.Helper()
	eng, err := core.Open(durableConfig(dataDir, seed, n, mode))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// durableConfig is durableEngine's configuration.
func durableConfig(dataDir string, seed int64, n int, mode storage.SyncMode) core.Config {
	cs := workload.NewCompanies(n, seed)
	base := cs.Oracle()
	oracle := workload.NewOracle()
	oracle.RegisterCompare(func(kind crowd.TaskKind, q, l, r string) *crowd.SimTruth {
		tr := base.CompareTruth(kind, q, l, r)
		if tr != nil {
			tr.Difficulty = 0 // perfect workers never err: byte-identical replays
		}
		return tr
	})
	mcfg := sim.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Pool.SpammerFrac = 0
	mcfg.Pool.AccuracyMean = 1
	mcfg.Pool.AccuracySpread = 0
	mcfg.Pool.GarbageRate = 0
	mcfg.FormatNoiseRate = 0
	return core.Config{
		DataDir:  dataDir,
		WALSync:  mode,
		Platform: amt.New(sim.NewMarket(mcfg)),
		Oracle:   oracle,
		Payment:  wrm.DefaultPolicy(),
	}
}

// seedPairs populates the Pair table with n true-match surface-form pairs
// (run once, on the first open of a data dir).
func seedPairs(t *testing.T, eng *core.Engine, seed int64, n int) {
	t.Helper()
	if _, err := eng.Exec(`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		t.Fatal(err)
	}
	cs := workload.NewCompanies(n, seed)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			t.Fatal(err)
		}
	}
}

// renderedRows flattens a job's full row buffer (the ?from=0 stream) into
// comparable strings.
func renderedRows(j *Job) []string {
	lines, _, _, _, _ := j.rowsFrom(0)
	var rows [][]*string
	for len(lines) > 0 {
		line, rest, _ := bytes.Cut(lines, []byte{'\n'})
		var row []*string
		if err := json.Unmarshal(line, &row); err != nil {
			panic(fmt.Sprintf("buffered row %q: %v", line, err))
		}
		rows, lines = append(rows, row), rest
	}
	return flattenRows(rows)
}

// flattenRows joins each rendered row's cells with '|' (\N = null).
func flattenRows(rows [][]*string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for k, c := range r {
			if k > 0 {
				sb.WriteByte('|')
			}
			if c == nil {
				sb.WriteString(`\N`)
			} else {
				sb.WriteString(*c)
			}
		}
		out[i] = sb.String()
	}
	return out
}

func waitDone(t *testing.T, j *Job) JobState {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	state, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not reach a terminal state: %v", j.ID(), err)
	}
	return state
}

// baselineRun executes the pair query uninterrupted in fresh dirs and
// returns the rendered rows and the session's settled budget — the values
// every crash/recovery arm must converge to — plus how often the job hit
// each crashpoint between submit and retirement.
func baselineRun(t *testing.T, open engineOpener, seed int64, n, budget int, mode storage.SyncMode) ([]string, int, map[string]int) {
	t.Helper()
	dir := t.TempDir()
	eng := open(t, filepath.Join(dir, "data"), seed, n, mode)
	defer eng.Close()
	seedPairs(t, eng, seed, n)
	srv := New(eng, Config{})
	if err := srv.EnableJournal(filepath.Join(dir, "jobs.log"), mode); err != nil {
		t.Fatal(err)
	}
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	defer faultinject.Disarm()
	faultinject.Record()
	job, serr := srv.StartJob(sess.ID(), durableQuery)
	if serr != nil {
		t.Fatal(serr)
	}
	if state := waitDone(t, job); state != JobDone {
		t.Fatalf("baseline job state = %s (err %v), want done", state, job.Err())
	}
	rows, left := renderedRows(job), sess.Info().BudgetLeft
	// The workload ends by closing the session, so its synced close
	// record is among the hits a crash sweep kills at.
	if serr := srv.CloseSession(sess.ID()); serr != nil {
		t.Fatal(serr)
	}
	return rows, left, faultinject.Hits()
}

// TestJournalRecoversFinishedJob: a job that completed before the restart
// comes back terminal with its state, columns, and row buffer intact, and
// a reconnecting ?from=N client sees the identical suffix.
func TestJournalRecoversFinishedJob(t *testing.T) {
	const seed, n, budget = 61, 4, 20
	dir := t.TempDir()
	data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")

	eng1 := durableEngine(t, data, seed, n, storage.SyncAlways)
	seedPairs(t, eng1, seed, n)
	srv1 := New(eng1, Config{})
	if err := srv1.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	sess1, serr := srv1.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	job1, serr := srv1.StartJob(sess1.ID(), durableQuery)
	if serr != nil {
		t.Fatal(serr)
	}
	if state := waitDone(t, job1); state != JobDone {
		t.Fatalf("job state = %s (err %v), want done", state, job1.Err())
	}
	wantRows := renderedRows(job1)
	wantBudget := sess1.Info().BudgetLeft
	wantInfo := job1.Info()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := durableEngine(t, data, seed, n, storage.SyncAlways)
	defer eng2.Close()
	srv2 := New(eng2, Config{})
	if err := srv2.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	job2, serr := srv2.Job(job1.ID())
	if serr != nil {
		t.Fatal(serr)
	}
	info := job2.Info()
	if info.State != JobDone {
		t.Fatalf("recovered job state = %s, want done", info.State)
	}
	if !reflect.DeepEqual(info.Columns, wantInfo.Columns) {
		t.Errorf("recovered columns = %v, want %v", info.Columns, wantInfo.Columns)
	}
	if got := renderedRows(job2); !reflect.DeepEqual(got, wantRows) {
		t.Errorf("recovered rows diverge:\n%v\nwant\n%v", got, wantRows)
	}
	// Reconnect mid-stream: from=2 serves exactly the tail.
	if _, tail, _, _, _ := job2.rowsFrom(2); tail != len(wantRows)-2 {
		t.Errorf("rowsFrom(2) served %d rows, want %d", tail, len(wantRows)-2)
	}
	// The session survived with its crash-exact settled budget.
	sess2, serr := srv2.Session(sess1.ID())
	if serr != nil {
		t.Fatal(serr)
	}
	if got := sess2.Info().BudgetLeft; got != wantBudget {
		t.Errorf("recovered session budget = %d, want %d", got, wantBudget)
	}
	// Re-running the query on the recovered engine is free: every answer
	// was persisted, so no HIT group is ever posted again.
	if _, qerr := runScript(srv2, sess2.ID(), durableQuery); qerr != nil {
		t.Fatal(qerr)
	}
	if st := eng2.Tasks().Stats(); st.GroupsPosted != 0 {
		t.Errorf("re-run after restart posted %d HIT groups, want 0 (answers persisted)", st.GroupsPosted)
	}
	// The id sequences continued past the recovered resources.
	sess3, serr := srv2.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}
	if sess3.ID() == sess1.ID() {
		t.Errorf("recovered server re-issued session id %s", sess3.ID())
	}
	job3, serr := srv2.StartJob(sess3.ID(), "SHOW TABLES")
	if serr != nil {
		t.Fatal(serr)
	}
	if job3.ID() == job1.ID() {
		t.Errorf("recovered server re-issued job id %s", job3.ID())
	}
	waitDone(t, job3)
}

// crashMidQuery seeds a durable server over data and jpath, runs prepare
// (when not nil) on the engine, runs durableQuery on a session with the
// given budget and crashes the process in-memory at the third row: from
// that instant every durability write is dropped. It returns the job's
// and session's ids for the restarted server to look up, and how many
// comparisons the job led before it died.
func crashMidQuery(t *testing.T, data, jpath string, seed int64, n, budget int, prepare func(*core.Engine)) (jobID, sessID string, led int) {
	t.Helper()
	eng := durableEngine(t, data, seed, n, storage.SyncAlways)
	seedPairs(t, eng, seed, n)
	if prepare != nil {
		prepare(eng)
	}
	srv := New(eng, Config{})
	if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	defer faultinject.Disarm()
	faultinject.SetHandler(func(string) {}) // in-process crash: durability writes stop
	if err := faultinject.Arm("server.job.row=3"); err != nil {
		t.Fatal(err)
	}
	job, serr := srv.StartJob(sess.ID(), durableQuery)
	if serr != nil {
		t.Fatal(serr)
	}
	waitDone(t, job) // the dying process's in-memory terminal state is irrelevant
	eng.Close()      // Killed() is still set: closing persists nothing further
	return job.ID(), sess.ID(), job.Info().Stats.Comparisons
}

// journaledSpend sums the spend records the journal at jpath holds for
// session sessID: the comparisons it was charged for since its last
// absolute budget record.
func journaledSpend(t *testing.T, jpath, sessID string) int {
	t.Helper()
	spend := 0
	if err := storage.ReplayRecordLog(jpath, func(line json.RawMessage) error {
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.T == recSpend && rec.Session == sessID {
			spend += rec.N
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return spend
}

// resumeAfterCrash restarts a server over the dirs crashMidQuery left,
// waits for the resumed job and checks that its stream is the
// uninterrupted one and its session's budget settles at wantBudget. It
// returns the restarted engine.
func resumeAfterCrash(t *testing.T, data, jpath, jobID, sessID string, seed int64, n int, wantRows []string, wantBudget int) *core.Engine {
	t.Helper()
	eng := durableEngine(t, data, seed, n, storage.SyncAlways)
	t.Cleanup(func() { eng.Close() })
	srv := New(eng, Config{})
	if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	job, serr := srv.Job(jobID)
	if serr != nil {
		t.Fatal(serr)
	}
	if state := waitDone(t, job); state != JobDone {
		t.Fatalf("resumed job state = %s (err %v), want done", state, job.Err())
	}
	if got := renderedRows(job); !reflect.DeepEqual(got, wantRows) {
		t.Errorf("resumed stream diverges from the uninterrupted run:\n%v\nwant\n%v", got, wantRows)
	}
	sess, serr := srv.Session(sessID)
	if serr != nil {
		t.Fatal(serr)
	}
	if got := sess.Info().BudgetLeft; got != wantBudget {
		t.Errorf("budget settles at %d after crash+resume, want %d (the uninterrupted value)", got, wantBudget)
	}
	return eng
}

// TestJournalResumesInterruptedJob: a crash mid-stream loses nothing a
// client was acknowledged — the restarted server resumes the read-only
// script, the full stream is byte-identical to an uninterrupted run, no
// persisted comparison is re-paid, and the session budget settles at
// exactly the uninterrupted value.
func TestJournalResumesInterruptedJob(t *testing.T) {
	const seed, n, budget = 47, 4, 20
	wantRows, wantBudget, _ := baselineRun(t, durableEngine, seed, n, budget, storage.SyncAlways)

	dir := t.TempDir()
	data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
	jobID, sessID, _ := crashMidQuery(t, data, jpath, seed, n, budget, nil)

	// How many answers became durable (and were charged) before the crash?
	persisted := journaledSpend(t, jpath, sessID)
	if persisted == 0 {
		t.Fatal("test setup: the crash was meant to land after at least one persisted answer")
	}

	eng2 := resumeAfterCrash(t, data, jpath, jobID, sessID, seed, n, wantRows, wantBudget)
	// Zero re-paid comparisons: the resumed run buys exactly the answers
	// the crash lost — never one the persistent cache already holds.
	if st := eng2.Tasks().Stats(); st.GroupsPosted != n-persisted {
		t.Errorf("resumed run posted %d HIT groups, want %d (%d answers were persisted pre-crash)",
			st.GroupsPosted, n-persisted, persisted)
	}
}

// TestJournalResumedJobTracesParse: a job resumed after a restart opens
// its trace with the intake's "parse" span, as a job submitted to the
// restarted server does.
func TestJournalResumedJobTracesParse(t *testing.T) {
	const seed, n, budget = 47, 4, 20
	dir := t.TempDir()
	data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
	jobID, _, _ := crashMidQuery(t, data, jpath, seed, n, budget, nil)

	eng := durableEngine(t, data, seed, n, storage.SyncAlways)
	defer eng.Close()
	srv := New(eng, Config{})
	if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	resumed, serr := srv.Job(jobID)
	if serr != nil {
		t.Fatal(serr)
	}
	submitted, serr := srv.StartJob("", durableQuery)
	if serr != nil {
		t.Fatal(serr)
	}
	for name, job := range map[string]*Job{"resumed": resumed, "submitted": submitted} {
		if st := waitDone(t, job); st != JobDone {
			t.Fatalf("%s job ended %s (%v)", name, st, job.Err())
		}
		if spans := len(job.trace.JSON().FindSpans("parse")); spans != 1 {
			t.Errorf("%s job's trace has %d parse spans, want 1", name, spans)
		}
	}
}

// TestJournalChargesOnlySessionsOwnAnswers: the journal charges a session
// only for the answers its own statement stored. Five answers another
// session's leader memoized before the job started are not this session's
// spend (the journal used to charge them to whichever job emitted the
// next row, and the resumed budget settled at 11 instead of 16).
func TestJournalChargesOnlySessionsOwnAnswers(t *testing.T) {
	const seed, n, budget = 47, 4, 20
	wantRows, wantBudget, _ := baselineRun(t, durableEngine, seed, n, budget, storage.SyncAlways)

	dir := t.TempDir()
	data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
	jobID, sessID, led := crashMidQuery(t, data, jpath, seed, n, budget, func(eng *core.Engine) {
		for i := 0; i < 5; i++ {
			eng.Cache().PutEqual("another session's question", fmt.Sprintf("left %d", i), "right", i%2 == 0)
		}
	})
	if spend := journaledSpend(t, jpath, sessID); spend > led {
		t.Errorf("the journal charged the session %d comparisons, its statement led %d", spend, led)
	}
	resumeAfterCrash(t, data, jpath, jobID, sessID, seed, n, wantRows, wantBudget)
}

// TestJournalInterruptsUnresumableJobs: non-terminal journal entries whose
// script contains writes, or whose session did not survive, recover as
// terminal interrupted jobs instead of silently vanishing or re-running.
func TestJournalInterruptsUnresumableJobs(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.log")
	b := 10
	log, err := storage.OpenRecordLog(jpath, storage.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRec{
		{T: recSession, Session: "s000001", Budget: &b},
		{T: recSubmit, Job: "j000001", Session: "s000001", SQL: "INSERT INTO Pair VALUES (99, 'x', 'y')"},
		{T: "run", Job: "j000001"}, // a record older journals carry; replay skips it
		{T: recSession, Session: "s000002", Budget: &b},
		{T: recSubmit, Job: "j000002", Session: "s000002", SQL: "SELECT id FROM Pair"},
		{T: recSessionClose, Session: "s000002"},
	} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	eng := pairEngine(t, 3, 1)
	srv := New(eng, Config{})
	if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	for id, wantMsg := range map[string]string{
		"j000001": "not resumable",
		"j000002": "did not survive",
	} {
		job, serr := srv.Job(id)
		if serr != nil {
			t.Fatalf("job %s: %v", id, serr)
		}
		if st := job.State(); st != JobInterrupted {
			t.Errorf("job %s state = %s, want interrupted", id, st)
		}
		jerr := job.Err()
		if jerr == nil || jerr.Code != CodeInterrupted {
			t.Errorf("job %s error = %v, want code %s", id, jerr, CodeInterrupted)
		} else if !strings.Contains(jerr.Message, wantMsg) {
			t.Errorf("job %s message %q does not mention %q", id, jerr.Message, wantMsg)
		}
	}
	// The closed session stayed closed; the live one recovered.
	if _, serr := srv.Session("s000002"); serr == nil {
		t.Error("closed session s000002 was resurrected")
	}
	sess, serr := srv.Session("s000001")
	if serr != nil {
		t.Fatal(serr)
	}
	if got := sess.Info().BudgetLeft; got != b {
		t.Errorf("recovered budget = %d, want %d", got, b)
	}
}

// TestDrainDeadlineFailsRunningJobs: a Shutdown whose context expires
// forcibly fails still-running jobs with the coded shutting_down error
// instead of hanging the drain forever on stuck crowd work.
func TestDrainDeadlineFailsRunningJobs(t *testing.T) {
	eng := pairEngine(t, 83, 1)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}

	// Park the job on crowd work that never resolves: a foreign session
	// holds the pair's singleflight claim and never answers.
	cs := workload.NewCompanies(1, 83)
	l := cs.List[0].Canonical
	r := cs.List[0].Variants[len(cs.List[0].Variants)-1]
	if claim := eng.Cache().ClaimEqual("", l, r); !claim.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}

	job, serr := srv.StartJob(sess.ID(), durableQuery)
	if serr != nil {
		t.Fatal(serr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", job.State())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
	}
	if st := job.State(); st != JobFailed {
		t.Fatalf("drained job state = %s, want failed", st)
	}
	jerr := job.Err()
	if jerr == nil || jerr.Code != CodeShuttingDown {
		t.Fatalf("drained job error = %v, want code %s", jerr, CodeShuttingDown)
	}
}

// TestJournalSubmitWithoutJournalAllocatesNothing: a server without a
// journal builds no record for a submitted job or a closed session.
func TestJournalSubmitWithoutJournalAllocatesNothing(t *testing.T) {
	s := &Server{}
	j := &Job{id: "q1", sessionID: "s1", sql: "SELECT id FROM Pair WHERE id = 1"}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.journalSubmit(j)
		s.journalSessionClose(j.sessionID)
	}); allocs != 0 {
		t.Fatalf("journalSubmit on a journal-less server allocates %.2f times", allocs)
	}
}

// TestRestartSkipsClosedSessionIDs: a closed session whose job the journal
// retains keeps its id across restarts — the first restart replays its
// close, a second finds it only in the retained job — so the next session
// created is not given it.
func TestRestartSkipsClosedSessionIDs(t *testing.T) {
	const seed, n = 67, 2
	for restarts := 1; restarts <= 2; restarts++ {
		dir := t.TempDir()
		data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
		eng := durableEngine(t, data, seed, n, storage.SyncAlways)
		seedPairs(t, eng, seed, n)
		srv := New(eng, Config{})
		if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for range 2 {
			sess, serr := srv.CreateSession(-1)
			if serr != nil {
				t.Fatal(serr)
			}
			ids = append(ids, sess.ID())
		}
		job, serr := runScript(srv, ids[1], "SELECT id FROM Pair")
		if serr != nil {
			t.Fatal(serr)
		}
		if serr := srv.CloseSession(ids[1]); serr != nil {
			t.Fatal(serr)
		}
		for range restarts {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			eng = durableEngine(t, data, seed, n, storage.SyncAlways)
			srv = New(eng, Config{})
			if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
				t.Fatal(err)
			}
			if _, serr := srv.Job(job.ID()); serr != nil {
				t.Fatalf("%d restarts: the closed session's job is not retained: %v", restarts, serr)
			}
		}
		sess, serr := srv.CreateSession(-1)
		if serr != nil {
			t.Fatal(serr)
		}
		if slices.Contains(ids, sess.ID()) {
			t.Errorf("%d restarts: a new session was given the id %s of %v", restarts, sess.ID(), ids)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
