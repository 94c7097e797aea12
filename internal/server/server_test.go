package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// pairEngine builds an engine with a Pair table of n distinct company
// surface-form pairs, each needing one CROWDEQUAL to resolve. The
// conference oracle answers equality by loose normalization, so ground
// truth is deterministic.
func pairEngine(t *testing.T, seed int64, n int) *core.Engine {
	t.Helper()
	conf := workload.NewConference(8, seed)
	eng, err := core.Open(core.Config{
		Platform: amt.NewDefault(seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Exec(`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		t.Fatal(err)
	}
	cs := workload.NewCompanies(n, seed)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1] // lower-cased canonical: a true match
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// runScript runs sql the way every client's statement runs — StartJob ->
// runJob — waits for the job to retire, and returns it. A job that did
// not end done yields its coded error (cancelled when it carries none),
// which is what a synchronous caller of pkg/client.Query sees.
func runScript(srv *Server, sessionID, sql string) (*Job, *Error) {
	job, serr := srv.StartJob(sessionID, sql)
	if serr != nil {
		return nil, serr
	}
	state, _ := job.Wait(context.Background()) // errs only when its ctx fires
	switch {
	case state == JobDone:
		return job, nil
	case job.Err() != nil:
		return job, job.Err()
	default:
		return job, errf(CodeCancelled, "job %s was cancelled", job.ID())
	}
}

// TestConcurrentSessionsSharedCost: K sessions concurrently run the same
// CROWDEQUAL query set. The shared cache plus singleflight must bound the
// global paid comparisons at the number of unique pairs — each pair is
// paid exactly once no matter how many sessions race on it — and every
// session must see identical rows.
func TestConcurrentSessionsSharedCost(t *testing.T) {
	const nPairs, kSessions, mQueries = 12, 6, 3
	eng := pairEngine(t, 3, nPairs)
	srv := New(eng, Config{})

	query := "SELECT id FROM Pair WHERE a ~= b"
	type out struct {
		rows []string
		err  *Error
	}
	results := make([][]out, kSessions)
	var wg sync.WaitGroup
	for k := 0; k < kSessions; k++ {
		sess, serr := srv.CreateSession(-1)
		if serr != nil {
			t.Fatal(serr)
		}
		k := k
		results[k] = make([]out, mQueries)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < mQueries; m++ {
				job, qerr := runScript(srv, sess.ID(), query)
				if qerr != nil {
					results[k][m] = out{err: qerr}
					continue
				}
				results[k][m] = out{rows: renderedRows(job)}
			}
		}()
	}
	wg.Wait()

	for k := range results {
		for m := range results[k] {
			if results[k][m].err != nil {
				t.Fatalf("session %d query %d: %v", k, m, results[k][m].err)
			}
			if !reflect.DeepEqual(results[k][m].rows, results[0][0].rows) {
				t.Errorf("session %d query %d diverged:\n%v\nvs\n%v",
					k, m, results[k][m].rows, results[0][0].rows)
			}
		}
	}

	// Global crowd cost: exactly one paid comparison per unique pair.
	paid := 0
	for _, info := range srv.Stats().Sessions {
		paid += info.Stats.Comparisons
	}
	if paid != nPairs {
		t.Errorf("paid comparisons = %d, want %d (one per unique pair)", paid, nPairs)
	}
	if st := eng.Tasks().Stats(); st.HITsPosted != nPairs {
		t.Errorf("HITs posted = %d, want %d", st.HITsPosted, nPairs)
	}
	if cs := eng.CacheStats(); cs.Misses != nPairs {
		t.Errorf("cache misses = %d, want %d", cs.Misses, nPairs)
	}
}

// TestSingleflightBlocksDuplicate: while a comparison is in flight
// (claimed but unresolved), a query needing the same pair must post zero
// HIT groups and unblock the moment the answer is memoized.
func TestSingleflightBlocksDuplicate(t *testing.T) {
	eng := pairEngine(t, 5, 1)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}

	// Pose as the other session's in-flight leader.
	cs := workload.NewCompanies(1, 5)
	l := cs.List[0].Canonical
	r := cs.List[0].Variants[len(cs.List[0].Variants)-1]
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}

	done := make(chan *Error, 1)
	go func() {
		job, qerr := runScript(srv, sess.ID(), "SELECT id FROM Pair WHERE a ~= b")
		if qerr == nil && len(renderedRows(job)) != 1 {
			qerr = errf(CodeInternal, "got %d rows, want 1", len(renderedRows(job)))
		}
		done <- qerr
	}()

	// The query must neither finish nor post a HIT group while the pair
	// is foreign-owned.
	time.Sleep(50 * time.Millisecond)
	select {
	case qerr := <-done:
		t.Fatalf("query finished while its comparison was in flight elsewhere: %v", qerr)
	default:
	}
	if st := eng.Tasks().Stats(); st.GroupsPosted != 0 {
		t.Fatalf("duplicate concurrent comparison posted %d HIT groups, want 0", st.GroupsPosted)
	}

	eng.Cache().PutEqual("", l, r, true) // the "other session" resolves
	if qerr := <-done; qerr != nil {
		t.Fatal(qerr)
	}
	if st := eng.Tasks().Stats(); st.GroupsPosted != 0 {
		t.Errorf("after resolution: %d HIT groups posted, want 0", st.GroupsPosted)
	}
	info := sess.Info()
	if info.Stats.SharedFlights != 1 || info.Stats.Comparisons != 0 {
		t.Errorf("session stats = %+v, want 1 shared flight and 0 paid", info.Stats)
	}
}

// TestSessionBudgetIsolation: one session's exhausted budget must not
// constrain another session on the same engine.
func TestSessionBudgetIsolation(t *testing.T) {
	const nPairs = 8
	eng := pairEngine(t, 7, nPairs)
	srv := New(eng, Config{})

	capped, serr := srv.CreateSession(2)
	if serr != nil {
		t.Fatal(serr)
	}
	free, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}

	if _, qerr := runScript(srv, capped.ID(), "SELECT id FROM Pair WHERE a ~= b"); qerr != nil {
		t.Fatal(qerr)
	}
	ci := capped.Info()
	if ci.Stats.Comparisons > 2 {
		t.Errorf("capped session paid %d comparisons, budget was 2", ci.Stats.Comparisons)
	}
	if ci.Stats.BudgetDenied == 0 {
		t.Error("capped session should have been denied some comparisons")
	}
	if ci.BudgetLeft != 0 {
		t.Errorf("budget left = %d, want 0", ci.BudgetLeft)
	}
	// Next crowd query on the capped session is refused outright.
	if _, qerr := runScript(srv, capped.ID(), "SELECT id FROM Pair WHERE a ~= b"); qerr == nil || qerr.Code != CodeBudgetExhausted {
		t.Fatalf("exhausted session: got %v, want %s", qerr, CodeBudgetExhausted)
	}

	// The free session resolves everything (2 already cached).
	if _, qerr := runScript(srv, free.ID(), "SELECT id FROM Pair WHERE a ~= b"); qerr != nil {
		t.Fatal(qerr)
	}
	fi := free.Info()
	if fi.Stats.Comparisons != nPairs-2 {
		t.Errorf("free session paid %d comparisons, want %d (2 were already cached by the capped session)",
			fi.Stats.Comparisons, nPairs-2)
	}
	if fi.Stats.BudgetDenied != 0 {
		t.Errorf("free session denied %d comparisons", fi.Stats.BudgetDenied)
	}
}

// TestConcurrentQueriesCannotOverspendBudget: budget reservation is
// atomic, so concurrent statements on one session never pay more than
// the session's budget in aggregate.
func TestConcurrentQueriesCannotOverspendBudget(t *testing.T) {
	const nPairs, budget = 10, 3
	eng := pairEngine(t, 31, nPairs)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Budget-exhausted rejections are acceptable; overspending is not.
			runScript(srv, sess.ID(), "SELECT id FROM Pair WHERE a ~= b") //nolint:errcheck
		}()
	}
	wg.Wait()
	if paid := sess.Info().Stats.Comparisons; paid > budget {
		t.Errorf("session paid %d comparisons against a budget of %d", paid, budget)
	}
	if left := sess.Info().BudgetLeft; left != 0 {
		t.Errorf("budget left = %d, want 0 after contended spending", left)
	}
}

// TestSubqueryCannotBypassBudget: an IN-subquery spends from the
// statement's remaining budget, not a fresh copy.
func TestSubqueryCannotBypassBudget(t *testing.T) {
	const budget = 3
	eng := pairEngine(t, 37, 6)
	if _, err := eng.Exec(`CREATE TABLE Pair2 (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		t.Fatal(err)
	}
	cs := workload.NewCompanies(6, 99)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Pair2 VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	if _, qerr := runScript(srv, sess.ID(),
		"SELECT id FROM Pair WHERE id IN (SELECT id FROM Pair2 WHERE a ~= b) AND a ~= b"); qerr != nil {
		t.Fatal(qerr)
	}
	info := sess.Info()
	if info.Stats.Comparisons > budget {
		t.Errorf("statement with subquery paid %d comparisons against a budget of %d",
			info.Stats.Comparisons, budget)
	}
	if info.BudgetLeft < 0 {
		t.Errorf("budget left = %d", info.BudgetLeft)
	}
}

// TestServerDeterministicVsDirectEngine: a single server session must be
// bit-identical to driving the engine directly on a fresh instance with
// the same seed (the server adds no behavior on the single-session path).
func TestServerDeterministicVsDirectEngine(t *testing.T) {
	queries := []string{
		"SELECT id FROM Pair WHERE a ~= b",
		"SELECT a FROM Pair ORDER BY CROWDORDER(a, 'Which name looks more official?') LIMIT 5",
		"SELECT id FROM Pair WHERE a ~= b", // warm-cache rerun
	}
	run := func(viaServer bool) [][]string {
		eng := pairEngine(t, 11, 6)
		var all [][]string
		for _, q := range queries {
			if viaServer {
				srv := New(eng, Config{})
				sess, serr := srv.CreateSession(-1)
				if serr != nil {
					t.Fatal(serr)
				}
				job, qerr := runScript(srv, sess.ID(), q)
				if qerr != nil {
					t.Fatal(qerr)
				}
				all = append(all, renderedRows(job))
				continue
			}
			res, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			cells := make([][]*string, len(res.Rows))
			for i, r := range res.Rows {
				cells[i] = renderRow(r)
			}
			all = append(all, flattenRows(cells))
		}
		return all
	}
	direct := run(false)
	served := run(true)
	if !reflect.DeepEqual(direct, served) {
		t.Errorf("server path diverged from direct engine:\ndirect: %v\nserved: %v", direct, served)
	}
}

// TestBackpressureBusy: a deep task-manager submission queue must shed
// new queries with server_busy instead of deepening the backlog.
func TestBackpressureBusy(t *testing.T) {
	eng := pairEngine(t, 13, 2)
	srv := New(eng, Config{})
	window := eng.Tasks().Config().MaxInFlight
	limit := 4 * window // the backlog the server derives from the window

	// Flood the scheduler: the async window (8) fills, the rest queue.
	group := func(i int) *crowd.HITGroup {
		g := &crowd.HITGroup{
			Title: "flood", Kind: crowd.TaskProbeValues,
			Reward: 2, Assignments: 1,
		}
		g.HITs = append(g.HITs, &crowd.HIT{
			ID:   fmt.Sprintf("flood-%03d", i),
			Kind: crowd.TaskProbeValues,
			Fields: []crowd.Field{
				{Name: "value", Kind: crowd.FieldInput, Label: "v"},
			},
			Truth: &crowd.SimTruth{Truth: map[string]string{"value": "x"}},
		})
		return g
	}
	var pendings []*taskmgr.Pending
	for i := 0; i < window+limit+1; i++ { // 8 in flight + 33 queued > 32
		pendings = append(pendings, eng.Tasks().Submit(group(i)))
	}
	if _, queued := eng.Tasks().Load(); queued <= limit {
		t.Fatalf("test setup: queue depth %d, want > %d", queued, limit)
	}

	if _, qerr := runScript(srv, "", "SELECT id FROM Pair"); qerr == nil || qerr.Code != CodeBusy {
		t.Fatalf("got %v, want %s", qerr, CodeBusy)
	}

	for _, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if job, qerr := runScript(srv, "", "SELECT id FROM Pair"); qerr != nil || len(renderedRows(job)) != 2 {
		t.Fatalf("after drain: rows=%v err=%v", renderedRows(job), qerr)
	}

	st := srv.Stats()
	if st.Server.Rejected != 1 || st.Server.Queries != 1 {
		t.Errorf("server stats = %+v", st.Server)
	}
}

// TestGracefulShutdownDrains: in-flight queries finish, new ones are
// refused with shutting_down.
func TestGracefulShutdownDrains(t *testing.T) {
	eng := pairEngine(t, 17, 10)
	srv := New(eng, Config{})

	var wg sync.WaitGroup
	errs := make([]*Error, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = runScript(srv, "", "SELECT id FROM Pair WHERE a ~= b")
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, qerr := range errs {
		if qerr != nil && qerr.Code != CodeShuttingDown {
			t.Errorf("query %d: unexpected error %v", i, qerr)
		}
	}
	if _, qerr := runScript(srv, "", "SELECT id FROM Pair"); qerr == nil || qerr.Code != CodeShuttingDown {
		t.Fatalf("post-shutdown query: got %v, want %s", qerr, CodeShuttingDown)
	}
	if _, serr := srv.CreateSession(0); serr == nil || serr.Code != CodeShuttingDown {
		t.Fatalf("post-shutdown session: got %v, want %s", serr, CodeShuttingDown)
	}
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"draining"`) {
		t.Errorf("/healthz of a draining server: %d %s", rec.Code, rec.Body)
	}
}

// TestSessionLimitAndErrors covers the coded-error satellite: parse
// errors, unknown sessions, and the session cap.
func TestSessionLimitAndErrors(t *testing.T) {
	eng := pairEngine(t, 19, 1)
	srv := New(eng, Config{MaxSessions: 2})

	if _, qerr := runScript(srv, "", "SELEC nope"); qerr == nil || qerr.Code != CodeParse {
		t.Fatalf("parse: got %v, want %s", qerr, CodeParse)
	}
	if _, qerr := runScript(srv, "s999999", "SELECT id FROM Pair"); qerr == nil || qerr.Code != CodeUnknownSession {
		t.Fatalf("unknown session: got %v, want %s", qerr, CodeUnknownSession)
	}
	if _, qerr := runScript(srv, "", "SELECT id FROM NoSuchTable"); qerr == nil || qerr.Code != CodeInternal {
		t.Fatalf("exec error: got %v, want %s", qerr, CodeInternal)
	}

	a, _ := srv.CreateSession(0)
	if _, serr := srv.CreateSession(0); serr != nil {
		t.Fatal(serr)
	}
	if _, serr := srv.CreateSession(0); serr == nil || serr.Code != CodeTooManySessions {
		t.Fatalf("session cap: got %v, want %s", serr, CodeTooManySessions)
	}
	if err := srv.CloseSession(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, serr := srv.CreateSession(0); serr != nil {
		t.Fatalf("slot freed by close: %v", serr)
	}
	if err := srv.CloseSession(a.ID()); err == nil || err.Code != CodeUnknownSession {
		t.Fatalf("double close: got %v, want %s", err, CodeUnknownSession)
	}
}
