package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/crowd/model"
	"crowddb/internal/faultinject"
	"crowddb/internal/storage"
)

// TestCrashpointRecoveryProperty kills the durability layers at every
// crashpoint a workload passes, at every pass — the table is derived from
// one uninterrupted run's hit counts, so a newly added faultinject.Hit is
// swept without editing this test. Every log then keeps only its synced
// prefix, as after a machine crash. Two workloads, the WAL and the jobs
// journal both in SyncAlways and in SyncGroup (the daemon default):
//
//   - the streaming crowd query, then the session's close (SyncAlways at
//     the top level, SyncGroup under group/, and under hybrid/ with a
//     model tier in front of AMT whose contested comparisons escalate to
//     it, see hybridEngine): the journal never invents
//     rows — what it recovered is a prefix of the uninterrupted stream,
//     so no acknowledged offset regresses; the recovered job is coherent
//     (done after a resume, or interrupted); a completed resume is
//     byte-identical to the uninterrupted stream; a kill as the close
//     is journaled keeps the finished job and the session's budget;
//   - a write script, one job per statement (writes/<mode>/): a
//     multi-row INSERT over both shards, a keyed UPDATE, a primary-key
//     change that moves a row across shards, a DELETE, an INSERT that
//     re-inserts the deleted key, the move back, an unkeyed UPDATE and a
//     multi-row DELETE over both shards. The table recovers as the
//     statements seen done left it, plus at most part of the next one;
//     no row the script did not write appears, and the moved row never
//     has two copies, nor zero once its INSERT was seen done.
//
// And for both: a job whose terminal state was observed before the kill
// recovers with that state and affected count; a job with any synced
// journal record is known after the restart; the session budget never
// settles below the uninterrupted value (crashes may under-charge — lose
// unjournaled spend — but never double-charge).
func TestCrashpointRecoveryProperty(t *testing.T) {
	sweepCrowdQuery(t, storage.SyncAlways, durableEngine)
	t.Run("group", func(t *testing.T) { sweepCrowdQuery(t, storage.SyncGroup, durableEngine) })
	t.Run("hybrid", func(t *testing.T) {
		checkHybridEscalates(t)
		sweepCrowdQuery(t, storage.SyncGroup, hybridEngine)
	})
	t.Run("writes", func(t *testing.T) {
		for _, mode := range []storage.SyncMode{storage.SyncAlways, storage.SyncGroup} {
			t.Run(string(mode), func(t *testing.T) { sweepWriteScript(t, mode) })
		}
	})
}

// crashSpecs lists every point at every pass of one uninterrupted run.
func crashSpecs(t *testing.T, hits map[string]int, layers ...string) []string {
	t.Helper()
	var specs []string
	for point, count := range hits {
		for k := 1; k <= count; k++ {
			specs = append(specs, fmt.Sprintf("%s=%d", point, k))
		}
	}
	sort.Strings(specs)
	t.Logf("sweeping %d crash instants over %v", len(specs), hits)
	for _, point := range layers {
		if hits[point] == 0 {
			t.Errorf("the uninterrupted run never hit %s: the sweep lost a layer", point)
		}
	}
	return specs
}

// jobSeen is what a client could have seen of a terminal job.
type jobSeen struct {
	state    JobState
	affected int
}

// killObserver records, at the instant a crashpoint fires, what every job
// started so far had made visible. It installs itself as the registry's
// handler; a job must be added once StartJob returns it.
type killObserver struct {
	mu   sync.Mutex
	jobs []*Job
	seen map[string]jobSeen // the jobs terminal at the kill
}

func (o *killObserver) add(j *Job) {
	o.mu.Lock()
	o.jobs = append(o.jobs, j)
	o.mu.Unlock()
}

// observe snapshots the terminal jobs. It runs on whichever goroutine hit
// the crashpoint, so it takes nothing but the jobs' own locks.
func (o *killObserver) observe(string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = make(map[string]jobSeen)
	for _, j := range o.jobs {
		j.mu.Lock()
		s := jobSeen{j.state, j.affected}
		j.mu.Unlock()
		if s.state.Terminal() {
			o.seen[j.id] = s
		}
	}
}

// arm installs the observer and arms spec.
func (o *killObserver) arm(t *testing.T, spec string) {
	t.Helper()
	faultinject.SetHandler(o.observe)
	if err := faultinject.Arm(spec); err != nil {
		t.Fatal(err)
	}
}

// crash ends a run: if the crashpoint never fired, everything seen at the
// end counts as seen before the "crash". The server and engine are closed
// while the registry is still killed — every log keeps only its synced
// prefix — and the registry is disarmed.
func (o *killObserver) crash(t *testing.T, srv *Server, eng *core.Engine) {
	t.Helper()
	if !faultinject.Killed() {
		o.observe("")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	faultinject.Disarm()
}

// checkSeen asserts the restart kept every terminal state seen before the
// kill, and knows every job the journal synced any record of.
func (o *killObserver) checkSeen(t *testing.T, srv *Server, journaled map[string]journaledJob) {
	t.Helper()
	for _, j := range o.jobs {
		job, serr := srv.Job(j.id)
		seen, wasSeen := o.seen[j.id]
		switch {
		case serr != nil && (wasSeen || journaled[j.id].records > 0):
			t.Errorf("job %s vanished: seen %v, %d synced records", j.id, seen.state, journaled[j.id].records)
		case serr != nil || !wasSeen:
		case job.State() != seen.state || job.Info().Affected != seen.affected:
			t.Errorf("job %s was seen %s (affected %d) before the kill, recovered %s (affected %d)",
				j.id, seen.state, seen.affected, job.State(), job.Info().Affected)
		}
	}
}

// journaledJob counts what the journal holds of one job.
type journaledJob struct{ records, rows int }

func replayJournal(t *testing.T, path string) map[string]journaledJob {
	t.Helper()
	out := make(map[string]journaledJob)
	if err := storage.ReplayRecordLog(path, func(line json.RawMessage) error {
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Job != "" {
			jj := out[rec.Job]
			jj.records++
			if rec.T == recRow {
				jj.rows++
			}
			out[rec.Job] = jj
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkBudget asserts the session's recovered budget lies in [want, max].
func checkBudget(t *testing.T, srv *Server, id string, want, max int) {
	t.Helper()
	sess, serr := srv.Session(id)
	if serr != nil {
		t.Errorf("session %s lost: %v", id, serr)
		return
	}
	if got := sess.Info().BudgetLeft; got < want || got > max {
		t.Errorf("budget settled at %d, want within [%d, %d] (never over-charged)", got, want, max)
	}
}

// The crowd-query sweep's workload: the pairs, the comparison budget.
const sweepSeed, sweepPairs, sweepBudget = 29, 4, 20

// hybridEngine is durableEngine with a model tier in front of AMT. The
// model is always right but unsure of itself: its confidence straddles
// the 0.75 escalation floor, so some comparisons escalate to the humans
// and the rest stand on the model's answer. Either way each decision is
// the uninterrupted run's, however a restart moves the model's RNG stream.
func hybridEngine(t *testing.T, dataDir string, seed int64, n int, mode storage.SyncMode) *core.Engine {
	t.Helper()
	cfg := durableConfig(dataDir, seed, n, mode)
	cfg.Tasks.ModelPlatform = model.New(model.Config{Seed: seed, Profile: model.Profile{
		Accuracy: 1, CorrectConfidence: 0.75, ConfidenceNoise: 0.2,
	}})
	eng, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// checkHybridEscalates asserts the hybrid sweep's uninterrupted query
// escalates some of its comparisons to the humans, and not all of them.
func checkHybridEscalates(t *testing.T) {
	t.Helper()
	eng := hybridEngine(t, filepath.Join(t.TempDir(), "data"), sweepSeed, sweepPairs, storage.SyncGroup)
	defer eng.Close()
	seedPairs(t, eng, sweepSeed, sweepPairs)
	if _, err := eng.Exec(durableQuery); err != nil {
		t.Fatal(err)
	}
	st := eng.Tasks().Stats()
	model := st.ByPlatform["model"]
	t.Logf("%d of %d comparisons escalated", st.EscalatedHITs, model.HITs)
	if st.EscalatedHITs == 0 || st.EscalatedHITs >= model.HITs {
		t.Fatalf("%d of %d comparisons escalated, want some but not all", st.EscalatedHITs, model.HITs)
	}
}

// sweepCrowdQuery sweeps the streaming crowd query under one sync mode,
// on the engines open opens.
func sweepCrowdQuery(t *testing.T, mode storage.SyncMode, open engineOpener) {
	const seed, n, budget = sweepSeed, sweepPairs, sweepBudget
	wantRows, wantBudget, hits := baselineRun(t, open, seed, n, budget, mode)
	specs := crashSpecs(t, hits, "server.job.row", "server.job.state", "storage.recordlog.append",
		"storage.wal.append", "taskmgr.platform.post")
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
			eng1 := open(t, data, seed, n, mode)
			seedPairs(t, eng1, seed, n)
			srv1 := New(eng1, Config{})
			if err := srv1.EnableJournal(jpath, mode); err != nil {
				t.Fatal(err)
			}
			sess1, serr := srv1.CreateSession(budget)
			if serr != nil {
				t.Fatal(serr)
			}

			defer faultinject.Disarm()
			obs := &killObserver{}
			obs.arm(t, spec)
			job1, serr := srv1.StartJob(sess1.ID(), durableQuery)
			if serr != nil {
				t.Fatal(serr)
			}
			obs.add(job1)
			waitDone(t, job1)
			if serr := srv1.CloseSession(sess1.ID()); serr != nil {
				t.Fatal(serr)
			}
			obs.crash(t, srv1, eng1)

			journaled := replayJournal(t, jpath)
			ackRows := journaled[job1.ID()].rows
			if ackRows > len(wantRows) {
				t.Fatalf("journal acknowledged %d rows, baseline has %d", ackRows, len(wantRows))
			}

			eng2 := open(t, data, seed, n, mode)
			defer eng2.Close()
			srv2 := New(eng2, Config{})
			if err := srv2.EnableJournal(jpath, mode); err != nil {
				t.Fatal(err)
			}
			obs.checkSeen(t, srv2, journaled)
			job2, serr := srv2.Job(job1.ID())
			if serr != nil {
				return // nothing of it was synced (checkSeen): it was never accepted
			}
			state := waitDone(t, job2)
			rows := renderedRows(job2)
			switch state {
			case JobDone:
				if !reflect.DeepEqual(rows, wantRows) {
					t.Errorf("resumed stream diverges:\n%v\nwant\n%v", rows, wantRows)
				}
			case JobInterrupted:
				if len(rows) != ackRows {
					t.Errorf("interrupted job retains %d rows, journal acknowledged %d", len(rows), ackRows)
				}
			default:
				t.Errorf("recovered job state = %s, want done or interrupted", state)
			}
			// Acknowledged rows never regress: the final buffer starts with
			// exactly the journaled prefix of the baseline stream.
			for i := 0; i < ackRows && i < len(rows); i++ {
				if rows[i] != wantRows[i] {
					t.Errorf("acknowledged row %d changed across restart: %q vs %q", i, rows[i], wantRows[i])
				}
			}
			if _, serr := srv2.Session(sess1.ID()); serr == nil {
				checkBudget(t, srv2, sess1.ID(), wantBudget, budget)
			}
		})
	}
}

// The write script: one job per statement, run in order over a two-shard
// table. writeStates[k] is the table after the first k statements.
var (
	writeScript = []string{
		"INSERT INTO Acct VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')", // both shards
		"UPDATE Acct SET v = 'b2' WHERE id = 2",                          // keyed
		"UPDATE Acct SET id = 31 WHERE id = 3",                           // moves the row across shards
		"DELETE FROM Acct WHERE id = 1",
		"INSERT INTO Acct VALUES (1, 'a2'), (5, 'e')", // re-inserts a deleted key
		"UPDATE Acct SET id = 3 WHERE id = 31",        // moves the row back
		"UPDATE Acct SET v = 'z'",                     // unkeyed, both shards
		"DELETE FROM Acct WHERE id <> 3",              // several rows, both shards
	}
	writeStates = []map[int64]string{
		{},
		{1: "a", 2: "b", 3: "c", 4: "d"},
		{1: "a", 2: "b2", 3: "c", 4: "d"},
		{1: "a", 2: "b2", 31: "c", 4: "d"},
		{2: "b2", 31: "c", 4: "d"},
		{1: "a2", 2: "b2", 31: "c", 4: "d", 5: "e"},
		{1: "a2", 2: "b2", 3: "c", 4: "d", 5: "e"},
		{1: "z", 2: "z", 3: "z", 4: "z", 5: "z"},
		{3: "z"},
	}
	// writesBothShards lists the statements that write both shards' WALs.
	writesBothShards = map[int]bool{0: true, 2: true, 4: true, 5: true, 6: true, 7: true}
)

const movedFrom, movedTo = 3, 31

// writeServer opens a durable two-shard engine and a journaled server
// over data and jpath; create makes the Acct table (first open only).
func writeServer(t *testing.T, data, jpath string, mode storage.SyncMode, create bool) (*core.Engine, *Server) {
	t.Helper()
	eng, err := core.Open(core.Config{DataDir: data, Shards: 2, WALSync: mode})
	if err != nil {
		t.Fatal(err)
	}
	if create {
		if _, err := eng.Exec("CREATE TABLE Acct (id INTEGER PRIMARY KEY, v STRING)"); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(eng, Config{})
	if err := srv.EnableJournal(jpath, mode); err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// runWriteScript runs the script's statements as jobs, one after another;
// after runs after each job has retired.
func runWriteScript(t *testing.T, srv *Server, sessID string, obs *killObserver, after func(i int)) {
	t.Helper()
	for i, sql := range writeScript {
		job, serr := srv.StartJob(sessID, sql)
		if serr != nil {
			t.Fatal(serr)
		}
		obs.add(job)
		waitDone(t, job)
		after(i)
	}
}

// sweepWriteScript sweeps the write script under one sync mode.
func sweepWriteScript(t *testing.T, mode storage.SyncMode) {
	const budget = 20
	// Baseline: record the hits, and check the statements writesBothShards
	// lists each write both shards' WALs — the script covers what it
	// claims to.
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	eng, srv := writeServer(t, data, filepath.Join(dir, "jobs.log"), mode, true)
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	walSizes := func() [2]int64 {
		var sz [2]int64
		for i := range sz {
			if fi, err := os.Stat(filepath.Join(data, fmt.Sprintf("wal-%03d.log", i))); err == nil {
				sz[i] = fi.Size()
			}
		}
		return sz
	}
	defer faultinject.Disarm()
	faultinject.Record()
	prev := walSizes()
	runWriteScript(t, srv, sess.ID(), &killObserver{}, func(i int) {
		cur := walSizes()
		if writesBothShards[i] && (cur[0] == prev[0] || cur[1] == prev[1]) {
			t.Fatalf("%q wrote WAL bytes %v -> %v: not both shards", writeScript[i], prev, cur)
		}
		prev = cur
	})
	hits := faultinject.Hits()
	faultinject.Disarm()
	srv.Shutdown(context.Background())
	eng.Close()
	specs := crashSpecs(t, hits, "server.job.state", "storage.recordlog.append", "storage.wal.append")

	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
			eng1, srv1 := writeServer(t, data, jpath, mode, true)
			sess1, serr := srv1.CreateSession(budget)
			if serr != nil {
				t.Fatal(serr)
			}
			defer faultinject.Disarm()
			obs := &killObserver{}
			obs.arm(t, spec)
			runWriteScript(t, srv1, sess1.ID(), obs, func(int) {})
			obs.crash(t, srv1, eng1)
			journaled := replayJournal(t, jpath)

			eng2, srv2 := writeServer(t, data, jpath, mode, false)
			defer eng2.Close()
			obs.checkSeen(t, srv2, journaled)
			checkBudget(t, srv2, sess1.ID(), budget, budget)

			// The statements seen done are a prefix (they ran in order);
			// the next one may have reached the WAL in part.
			k := 0
			for _, j := range obs.jobs {
				if obs.seen[j.id].state != JobDone {
					break
				}
				k++
			}
			lo, hi := writeStates[k], writeStates[min(k+1, len(writeScript))]
			res, err := eng2.Exec("SELECT id, v FROM Acct")
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[int64]string)
			for _, row := range res.Rows {
				got[row[0].Int()] = row[1].Str()
			}
			ids := make(map[int64]bool)
			for _, m := range []map[int64]string{lo, hi, got} {
				for id := range m {
					ids[id] = true
				}
			}
			for id := range ids {
				g, gok := got[id]
				l, lok := lo[id]
				h, hok := hi[id]
				if (gok != lok || g != l) && (gok != hok || g != h) {
					t.Errorf("row %d recovered as %q (present %v); after statement %d it is %q (%v), after %d %q (%v)",
						id, g, gok, k, l, lok, k+1, h, hok)
				}
			}
			_, from := got[movedFrom]
			_, to := got[movedTo]
			if from && to {
				t.Errorf("the moved row recovered twice, under %d and %d", movedFrom, movedTo)
			}
			if k >= 1 && !from && !to {
				t.Errorf("the moved row was lost: its INSERT was seen done")
			}
		})
	}
}
