package bench

// E23: crash recovery and durable jobs. A crowddbd restart is simulated
// by closing the engine + server over a data dir and jobs journal, then
// assembling fresh ones over the same paths; the crash itself uses the
// faultinject registry's soft handler — from the armed crashpoint on,
// every durability write (shard WAL, compare answers included, and
// jobs journal) is silently dropped, exactly the writes a torn process
// would have lost. Three arms:
//
//   - baseline: the pair query runs uninterrupted on a durable engine
//     with the jobs journal enabled;
//   - crash+restart: the same query is killed at the third emitted row,
//     the server restarts over the surviving dirs, the job resumes, and
//     an NDJSON client reconnects with ?from=<acked offset>;
//   - admission: a server with -admission-headroom rejects a forecast
//     overrun before posting a single HIT.
//
// Determinism note for the benchdiff gate: the crowd is fully
// deterministic here (perfect-accuracy workers, difficulty-0 oracle,
// virtual-time market), so row streams, journaled spend, re-paid
// comparison counts, and budget settlements are exact at a fixed seed
// and gated: the resumed stream must be byte-identical to the baseline
// (rows_divergence_err = 0), recovery must never re-pay a persisted
// comparison (repaid_comparisons_err = 0), and the budget must settle at
// exactly the uninterrupted value (budget_left_delta_err = 0).
// Wall-clock recovery latency is informational (*_wall_us).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/faultinject"
	"crowddb/internal/server"
	"crowddb/internal/sim"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const (
	e23Pairs  = 6                                   // entity-resolution pairs (= crowd comparisons)
	e23Budget = 20                                  // session comparison budget
	e23Crash  = "server.job.row=3"                  // kill after the 3rd journaled row
	e23Query  = "SELECT id FROM Pair WHERE a ~= b " // the CROWDEQUAL workload
)

// e23Engine opens a durable engine whose crowd is fully deterministic:
// perfect-accuracy workers, no spammers, no format noise, and a
// difficulty-0 oracle. Every majority vote is unanimous and correct, so
// a resumed execution reaches the same decisions as an uninterrupted one
// regardless of which comparisons replay from the persistent cache and
// which consume fresh market randomness.
func e23Engine(dataDir string, seed int64) (*core.Engine, error) {
	base := workload.NewCompanies(e23Pairs, seed).Oracle()
	oracle := workload.NewOracle()
	oracle.RegisterCompare(func(kind crowd.TaskKind, q, l, r string) *crowd.SimTruth {
		tr := base.CompareTruth(kind, q, l, r)
		if tr != nil {
			tr.Difficulty = 0
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
	return core.Open(core.Config{
		DataDir:  dataDir,
		WALSync:  storage.SyncAlways,
		Platform: amt.New(sim.NewMarket(mcfg)),
		Oracle:   oracle,
		Payment:  wrm.DefaultPolicy(),
		Tasks:    taskmgr.DefaultConfig(),
	})
}

// e23Seed populates the Pair table (run once, on the first open).
func e23Seed(eng *core.Engine, seed int64) error {
	if _, err := eng.Exec(`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		return err
	}
	return insertPairs(eng, "Pair", workload.NewCompanies(e23Pairs, seed).List)
}

// e23Wait polls a job to a terminal state.
func e23Wait(j *server.Job) (server.JobState, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if st := j.State(); st.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return j.State(), fmt.Errorf("job %s stuck in %s", j.ID(), j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// e23Rows drains a terminal job's NDJSON row stream through the real
// HTTP surface — GET /v1/queries/<id>/rows?from=N — and returns the
// rendered rows plus the trailer state, exactly what a reconnecting
// client sees.
func e23Rows(srv *server.Server, jobID string, from int) ([]string, string, error) {
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/queries/%s/rows?from=%d", jobID, from), nil)
	w := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(w, req)
	var rows []string
	var state string
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "{") {
			var trailer struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line), &trailer); err != nil {
				return nil, "", err
			}
			state = trailer.State
			continue
		}
		var cells []*string
		if err := json.Unmarshal([]byte(line), &cells); err != nil {
			return nil, "", fmt.Errorf("row line %q: %w", line, err)
		}
		var sb strings.Builder
		for k, c := range cells {
			if k > 0 {
				sb.WriteByte('|')
			}
			if c == nil {
				sb.WriteString(`\N`)
			} else {
				sb.WriteString(*c)
			}
		}
		rows = append(rows, sb.String())
	}
	return rows, state, nil
}

// e23Journal replays the jobs journal and returns how many rows it
// acknowledged and how many compare answers it recorded as durably
// persisted (and charged) for the session.
func e23Journal(jpath, sessionID string) (ackRows, persisted int, err error) {
	err = storage.ReplayRecordLog(jpath, func(line json.RawMessage) error {
		var rec struct {
			T       string `json:"t"`
			Session string `json:"session"`
			N       int    `json:"n"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch rec.T {
		case "row":
			ackRows++
		case "spend":
			if rec.Session == sessionID {
				persisted += rec.N
			}
		}
		return nil
	})
	return ackRows, persisted, err
}

// e23Baseline runs the query uninterrupted on a durable engine and
// returns the values every recovery arm must converge to.
func e23Baseline(seed int64) (rows []string, budgetLeft, groups int, wall time.Duration, err error) {
	dir, err := os.MkdirTemp("", "crowddb-e23-base-")
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	eng, err := e23Engine(filepath.Join(dir, "data"), seed)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer eng.Close()
	if err := e23Seed(eng, seed); err != nil {
		return nil, 0, 0, 0, err
	}
	srv := server.New(eng, server.Config{})
	if err := srv.EnableJournal(filepath.Join(dir, "jobs.log"), storage.SyncAlways); err != nil {
		return nil, 0, 0, 0, err
	}
	sess, serr := srv.CreateSession(e23Budget)
	if serr != nil {
		return nil, 0, 0, 0, serr
	}
	start := time.Now()
	job, serr := srv.StartJob(sess.ID(), e23Query)
	if serr != nil {
		return nil, 0, 0, 0, serr
	}
	if st, err := e23Wait(job); err != nil || st != server.JobDone {
		return nil, 0, 0, 0, fmt.Errorf("baseline job state %s: %v (%v)", st, job.Err(), err)
	}
	wall = time.Since(start)
	rows, _, err = e23Rows(srv, job.ID(), 0)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return rows, sess.Info().BudgetLeft, eng.Tasks().Stats().GroupsPosted, wall, nil
}

// e23CrashRun kills the durability layers at e23Crash mid-query,
// restarts over the surviving dirs, and measures the resumed job.
type e23Recovery struct {
	ackRows       int // rows the journal acknowledged pre-crash
	persisted     int // compare answers durable (and charged) pre-crash
	state         server.JobState
	rows          []string // resumed ?from=0 stream
	tail          []string // reconnect with ?from=ackRows
	repaid        int      // persisted answers bought again after restart
	resumedGroups int      // HIT groups the resumed run posted
	budgetLeft    int
	recoveryWall  time.Duration // restart -> resumed job terminal
}

func e23CrashRun(seed int64) (e23Recovery, error) {
	var r e23Recovery
	dir, err := os.MkdirTemp("", "crowddb-e23-crash-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")

	eng1, err := e23Engine(data, seed)
	if err != nil {
		return r, err
	}
	if err := e23Seed(eng1, seed); err != nil {
		eng1.Close()
		return r, err
	}
	srv1 := server.New(eng1, server.Config{})
	if err := srv1.EnableJournal(jpath, storage.SyncAlways); err != nil {
		eng1.Close()
		return r, err
	}
	sess1, serr := srv1.CreateSession(e23Budget)
	if serr != nil {
		eng1.Close()
		return r, serr
	}

	defer faultinject.Disarm()
	faultinject.SetHandler(func(string) {}) // in-process crash: durability writes stop
	if err := faultinject.Arm(e23Crash); err != nil {
		eng1.Close()
		return r, err
	}
	job1, serr := srv1.StartJob(sess1.ID(), e23Query)
	if serr != nil {
		eng1.Close()
		return r, serr
	}
	if _, err := e23Wait(job1); err != nil { // the dying process's in-memory state is irrelevant
		eng1.Close()
		return r, err
	}
	// The drain returns once the job is retired, not merely terminal:
	// disarming earlier would let the dying server journal its end record.
	srv1.Shutdown(context.Background()) //nolint:errcheck // nothing left to drain
	eng1.Close()                        // Killed() is still set: closing persists nothing further
	faultinject.Disarm()

	if r.ackRows, r.persisted, err = e23Journal(jpath, sess1.ID()); err != nil {
		return r, err
	}

	restart := time.Now()
	eng2, err := e23Engine(data, seed)
	if err != nil {
		return r, err
	}
	defer eng2.Close()
	srv2 := server.New(eng2, server.Config{})
	if err := srv2.EnableJournal(jpath, storage.SyncAlways); err != nil {
		return r, err
	}
	job2, serr := srv2.Job(job1.ID())
	if serr != nil {
		return r, serr
	}
	if r.state, err = e23Wait(job2); err != nil {
		return r, err
	}
	r.recoveryWall = time.Since(restart)
	if r.rows, _, err = e23Rows(srv2, job2.ID(), 0); err != nil {
		return r, err
	}
	if r.tail, _, err = e23Rows(srv2, job2.ID(), r.ackRows); err != nil {
		return r, err
	}
	r.resumedGroups = eng2.Tasks().Stats().GroupsPosted
	// The resumed run should buy exactly the answers the crash lost; any
	// group beyond that re-paid a comparison the persistent cache held.
	r.repaid = r.resumedGroups - (e23Pairs - r.persisted)
	if r.repaid < 0 {
		r.repaid = 0
	}
	sess2, serr := srv2.Session(sess1.ID())
	if serr != nil {
		return r, serr
	}
	r.budgetLeft = sess2.Info().BudgetLeft
	return r, nil
}

// e23Admission submits a forecast overrun to a headroom-enforcing server
// and reports what the rejection cost.
func e23Admission(seed int64) (rejected, groups int, spend crowd.Cents, budgetLeft int, err error) {
	eng, err := e23Engine("", seed) // in-memory: admission happens before any durability
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer eng.Close()
	if err := e23Seed(eng, seed); err != nil {
		return 0, 0, 0, 0, err
	}
	srv := server.New(eng, server.Config{AdmissionHeadroom: 1})
	sess, serr := srv.CreateSession(1) // the forecast needs ~e23Pairs comparisons
	if serr != nil {
		return 0, 0, 0, 0, serr
	}
	if _, serr := srv.StartJob(sess.ID(), e23Query); serr != nil && serr.Code == server.CodeBudgetExhausted {
		rejected = 1
	}
	st := eng.Tasks().Stats()
	return rejected, st.GroupsPosted, st.ApprovedSpend, sess.Info().BudgetLeft, nil
}

// E23CrashRecovery measures durable jobs end to end: what a restart
// preserves, what a resume re-buys (nothing persisted), and what an
// admission rejection costs (nothing at all).
func E23CrashRecovery(seed int64) *Table {
	t := &Table{
		ID:      "E23",
		Title:   "crash recovery: durable jobs, resumed streams, budget-aware admission",
		Exhibit: "durable jobs + fault-injection extension (no paper exhibit)",
		Headers: []string{"arm", "outcome", "rows", "acked pre-crash", "persisted answers",
			"HIT groups", "re-paid", "budget left", "wall"},
		Metrics: map[string]float64{},
	}
	baseRows, baseBudget, baseGroups, baseWall, err := e23Baseline(seed)
	if err != nil {
		t.Notes = append(t.Notes, "baseline: "+err.Error())
		return t
	}
	t.AddRow("baseline", "done", fmt.Sprintf("%d", len(baseRows)), "-", "-",
		fmt.Sprintf("%d", baseGroups), "0", fmt.Sprintf("%d", baseBudget), fmtMicros(baseWall))
	t.Metrics["baseline_rows_out"] = float64(len(baseRows))
	t.Metrics["baseline_hit_groups"] = float64(baseGroups)
	t.Metrics["baseline_budget_left"] = float64(baseBudget)
	t.Metrics["baseline_wall_us"] = float64(baseWall.Microseconds())

	rec, err := e23CrashRun(seed)
	if err != nil {
		t.Notes = append(t.Notes, "crash+restart: "+err.Error())
		return t
	}
	t.AddRow("crash+restart", string(rec.state), fmt.Sprintf("%d", len(rec.rows)),
		fmt.Sprintf("%d", rec.ackRows), fmt.Sprintf("%d", rec.persisted),
		fmt.Sprintf("%d", rec.resumedGroups), fmt.Sprintf("%d", rec.repaid),
		fmt.Sprintf("%d", rec.budgetLeft), fmtMicros(rec.recoveryWall))
	divergence := 0
	if len(rec.rows) != len(baseRows) {
		divergence = abs(len(rec.rows) - len(baseRows))
	} else {
		for i := range baseRows {
			if rec.rows[i] != baseRows[i] {
				divergence++
			}
		}
	}
	tailDiv := abs(len(rec.tail) - (len(baseRows) - rec.ackRows))
	for i := range rec.tail {
		if i+rec.ackRows < len(baseRows) && rec.tail[i] != baseRows[i+rec.ackRows] {
			tailDiv++
		}
	}
	resumedDone := 0
	if rec.state == server.JobDone {
		resumedDone = 1
	}
	t.Metrics["resumed_rows_out"] = float64(len(rec.rows))
	t.Metrics["resumed_not_done_err"] = float64(1 - resumedDone)
	t.Metrics["rows_divergence_err"] = float64(divergence)
	t.Metrics["reconnect_tail_divergence_err"] = float64(tailDiv)
	t.Metrics["acked_rows_precrash"] = float64(rec.ackRows)
	t.Metrics["persisted_answers_precrash"] = float64(rec.persisted)
	t.Metrics["resumed_hit_groups"] = float64(rec.resumedGroups)
	t.Metrics["repaid_comparisons_err"] = float64(rec.repaid)
	t.Metrics["budget_left_delta_err"] = float64(abs(rec.budgetLeft - baseBudget))
	t.Metrics["recovery_wall_us"] = float64(rec.recoveryWall.Microseconds())

	rejected, admGroups, admSpend, admBudget, err := e23Admission(seed)
	if err != nil {
		t.Notes = append(t.Notes, "admission: "+err.Error())
		return t
	}
	t.AddRow("admission", "rejected", "0", "-", "-",
		fmt.Sprintf("%d", admGroups), "0", fmt.Sprintf("%d", admBudget), "-")
	t.Metrics["admission_not_rejected_err"] = float64(1 - rejected)
	t.Metrics["admission_hit_groups"] = float64(admGroups)
	t.Metrics["admission_spend_cents"] = float64(admSpend)
	t.Metrics["admission_budget_delta_err"] = float64(abs(admBudget - 1))

	t.Notes = append(t.Notes,
		fmt.Sprintf("crash arm kills durability at %q: the journal acknowledged %d of %d rows, %d answers were persisted (and charged) pre-crash",
			e23Crash, rec.ackRows, len(baseRows), rec.persisted),
		"the resumed stream is byte-identical to the uninterrupted run; the resume buys only the answers the crash lost (zero re-paid), and the budget settles at the uninterrupted value",
		"the admission arm rejects a forecast overrun with budget_exhausted before a single HIT group is posted")
	return t
}

func fmtMicros(d time.Duration) string {
	if d >= time.Millisecond {
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dµs", d.Microseconds())
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
