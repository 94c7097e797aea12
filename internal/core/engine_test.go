package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"crowddb/internal/crowd/amt"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// newConferenceEngine builds an engine over the simulated AMT with the
// demo paper's conference schema and workload oracle.
func newConferenceEngine(t *testing.T, seed int64, dir string) (*Engine, *workload.Conference) {
	t.Helper()
	conf := workload.NewConference(20, seed)
	eng, err := Open(Config{
		DataDir:  dir,
		Platform: amt.NewDefault(seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, eng, `CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER )`)
	mustExec(t, eng, `CREATE CROWD TABLE NotableAttendee (
		name STRING PRIMARY KEY,
		title STRING,
		FOREIGN KEY (title) REF Talk(title) )`)
	for _, talk := range conf.Talks[:10] {
		mustExec(t, eng, "INSERT INTO Talk (title) VALUES ("+sqltypes.NewString(talk.Title).SQLLiteral()+")")
	}
	return eng, conf
}

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func TestDDLAndDML(t *testing.T) {
	eng, _ := newConferenceEngine(t, 1, "")
	defer eng.Close()
	res := mustExec(t, eng, "SHOW TABLES")
	if len(res.Rows) != 2 {
		t.Fatalf("tables: %v", res.Rows)
	}
	res = mustExec(t, eng, "SELECT COUNT(*) FROM Talk")
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("count: %v", res.Rows)
	}
	res = mustExec(t, eng, "UPDATE Talk SET nb_attendees = 42 WHERE title LIKE '%1'")
	if res.Affected == 0 {
		t.Error("update affected nothing")
	}
	res = mustExec(t, eng, "DELETE FROM Talk WHERE nb_attendees = 42")
	if res.Affected == 0 {
		t.Error("delete affected nothing")
	}
}

// Paper §1: "SELECT abstract FROM paper WHERE title = 'CrowdDB'" must not
// return empty — the crowd fills the missing abstract (Example 1 / Fig 2).
func TestCrowdProbeFillsMissingAbstract(t *testing.T) {
	eng, conf := newConferenceEngine(t, 2, "")
	defer eng.Close()
	title := conf.Talks[0].Title
	res := mustExec(t, eng, "SELECT abstract FROM Talk WHERE title = "+sqltypes.NewString(title).SQLLiteral())
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	got := res.Rows[0][0]
	if got.IsUnknown() {
		t.Fatalf("abstract still unknown: %v (stats %+v)", got, res.Stats)
	}
	if quality.Normalize(got.Str()) != quality.Normalize(conf.Talks[0].Abstract) {
		t.Errorf("abstract: %q want %q", got.Str(), conf.Talks[0].Abstract)
	}
	if res.Stats.ProbeRequests != 1 {
		t.Errorf("probe requests: %+v", res.Stats)
	}
}

// §3: "Results obtained from the crowd are always stored in the database
// for future use" — the second identical query asks the crowd nothing.
func TestCrowdAnswersMemorized(t *testing.T) {
	eng, conf := newConferenceEngine(t, 3, "")
	defer eng.Close()
	q := "SELECT abstract FROM Talk WHERE title = " + sqltypes.NewString(conf.Talks[1].Title).SQLLiteral()
	r1 := mustExec(t, eng, q)
	if r1.Stats.ProbeRequests != 1 {
		t.Fatalf("first run must probe: %+v", r1.Stats)
	}
	r2 := mustExec(t, eng, q)
	if r2.Stats.ProbeRequests != 0 {
		t.Errorf("second run must hit storage: %+v", r2.Stats)
	}
	if r1.Rows[0][0].Str() != r2.Rows[0][0].Str() {
		t.Error("memorized answer differs")
	}
}

// Example 2: joining a stored table with a CROWD table solicits new tuples
// bound by the join key (CrowdJoin).
func TestCrowdJoinSolicitsTuples(t *testing.T) {
	eng, conf := newConferenceEngine(t, 4, "")
	defer eng.Close()
	title := conf.Talks[2].Title
	res := mustExec(t, eng,
		"SELECT n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE t.title = "+
			sqltypes.NewString(title).SQLLiteral())
	if len(res.Rows) == 0 {
		t.Fatalf("join produced nothing: %+v", res.Stats)
	}
	if res.Stats.NewTupleRequests == 0 {
		t.Errorf("crowd join must solicit tuples: %+v", res.Stats)
	}
	// Contributed names should come from the ground truth set.
	truthNames := map[string]bool{}
	for _, n := range conf.Notable[title] {
		truthNames[quality.Normalize(n)] = true
	}
	hits := 0
	for _, row := range res.Rows {
		if truthNames[quality.Normalize(row[0].Str())] {
			hits++
		}
	}
	if hits == 0 {
		t.Errorf("no contributed tuple matches truth: %v", res.Rows)
	}
}

// Example 3: CROWDORDER ranks talks by crowd preference.
func TestCrowdOrderRanking(t *testing.T) {
	eng, conf := newConferenceEngine(t, 5, "")
	defer eng.Close()
	res := mustExec(t, eng,
		`SELECT title FROM Talk ORDER BY CROWDORDER(title, "Which talk did you like better") LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Stats.Comparisons == 0 {
		t.Error("crowd order must compare")
	}
	// The top result should be among the true top half.
	ranking := conf.PreferenceRanking()
	topHalf := map[string]bool{}
	for _, title := range ranking[:len(ranking)/2] {
		topHalf[title] = true
	}
	// Only the 10 stored talks participate.
	if !topHalf[res.Rows[0][0].Str()] {
		t.Logf("warning: top pick %q not in global top half (crowd noise)", res.Rows[0][0].Str())
	}
}

// CROWDEQUAL entity resolution with the ~= shorthand.
func TestCrowdEqualPredicate(t *testing.T) {
	comp := workload.NewCompanies(8, 6)
	eng, err := Open(Config{
		Platform: amt.NewDefault(6),
		Oracle:   comp.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE company (name STRING PRIMARY KEY, hq STRING)`)
	for _, c := range comp.List {
		mustExec(t, eng, "INSERT INTO company VALUES ("+
			sqltypes.NewString(c.Canonical).SQLLiteral()+", "+
			sqltypes.NewString(c.HQ).SQLLiteral()+")")
	}
	variant := comp.List[0].Variants[len(comp.List[0].Variants)-1] // lower-cased canonical
	res := mustExec(t, eng, "SELECT hq FROM company WHERE name ~= "+sqltypes.NewString(variant).SQLLiteral())
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != comp.List[0].HQ {
		t.Errorf("entity resolution failed: %v (stats %+v)", res.Rows, res.Stats)
	}
	// Comparison answers are cached: re-running costs no crowd comparisons.
	res2 := mustExec(t, eng, "SELECT hq FROM company WHERE name ~= "+sqltypes.NewString(variant).SQLLiteral())
	if res2.Stats.Comparisons != 0 {
		t.Errorf("comparisons must be cached: %+v", res2.Stats)
	}
	if res2.Stats.CacheHits == 0 {
		t.Errorf("cache hits expected: %+v", res2.Stats)
	}
}

func TestUnboundedQueryRejected(t *testing.T) {
	eng, _ := newConferenceEngine(t, 7, "")
	defer eng.Close()
	if _, err := eng.Exec("SELECT name FROM NotableAttendee"); err == nil {
		t.Fatal("unbounded crowd query must fail at compile time")
	}
	// With LIMIT it becomes a bounded acquisition.
	res := mustExec(t, eng, "SELECT name FROM NotableAttendee LIMIT 3")
	if len(res.Rows) > 3 {
		t.Errorf("limit violated: %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	eng, _ := newConferenceEngine(t, 8, "")
	defer eng.Close()
	res := mustExec(t, eng, "EXPLAIN SELECT abstract FROM Talk WHERE title = 'X'")
	for _, want := range []string{"CrowdProbe(Talk) ask=[abstract]", "Scan(Talk) filter=(title = 'X')", "bounded: true"} {
		if !strings.Contains(res.Plan, want) {
			t.Errorf("explain missing %q:\n%s", want, res.Plan)
		}
	}
	if _, err := eng.Exec("EXPLAIN INSERT INTO Talk (title) VALUES ('x')"); err == nil {
		t.Error("EXPLAIN DML must fail")
	}
}

// TestExplainSameOnEveryHost: a plan's text — the cpu: forecast included —
// does not depend on how many cores the host has.
func TestExplainSameOnEveryHost(t *testing.T) {
	eng := newKVEngine(t, 20000) // two shards
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var plans []string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		plans = append(plans, mustExec(t, eng, "EXPLAIN SELECT id FROM kv WHERE n > 100").Plan)
	}
	if plans[0] != plans[1] || !strings.Contains(plans[0], "cpu:") {
		t.Errorf("EXPLAIN at GOMAXPROCS 1 and 4 must agree and carry cpu:\n%s\nvs\n%s", plans[0], plans[1])
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	conf := workload.NewConference(20, 9)

	eng, _ := newConferenceEngineWithDir(t, 9, dir, conf)
	title := conf.Talks[0].Title
	q := "SELECT abstract FROM Talk WHERE title = " + sqltypes.NewString(title).SQLLiteral()
	r1 := mustExec(t, eng, q)
	if r1.Stats.ProbeRequests != 1 {
		t.Fatalf("first probe: %+v", r1.Stats)
	}
	// Also cache a comparison.
	mustExec(t, eng, "SELECT title FROM Talk WHERE title ~= "+sqltypes.NewString(strings.ToUpper(title)).SQLLiteral())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: schema, data, crowd answers, and the comparison memo persist.
	eng2, err := Open(Config{
		DataDir:  dir,
		Platform: amt.NewDefault(10),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	res := mustExec(t, eng2, "SHOW TABLES")
	if len(res.Rows) != 2 {
		t.Fatalf("schema lost: %v", res.Rows)
	}
	r2 := mustExec(t, eng2, q)
	if r2.Stats.ProbeRequests != 0 {
		t.Errorf("crowd answer lost across restart: %+v", r2.Stats)
	}
	if r2.Rows[0][0].Str() != r1.Rows[0][0].Str() {
		t.Error("persisted abstract differs")
	}
	r3 := mustExec(t, eng2, "SELECT title FROM Talk WHERE title ~= "+sqltypes.NewString(strings.ToUpper(title)).SQLLiteral())
	if r3.Stats.Comparisons != 0 {
		t.Errorf("comparison memo lost across restart: %+v", r3.Stats)
	}
}

// TestSchemaScriptReplacedWhole: a DDL replaces schema.sql through a temp
// file instead of appending in place — a crash mid-append left a partial
// statement there and every later Open failed on it. So the script parses
// whole after every DDL, and a temp file a crash left behind is ignored
// by Open and overwritten by the next DDL.
func TestSchemaScriptReplacedWhole(t *testing.T) {
	dir := t.TempDir()
	script, tmp := filepath.Join(dir, "schema.sql"), filepath.Join(dir, "schema.sql.tmp")
	statements := func() int {
		t.Helper()
		data, err := os.ReadFile(script)
		if err != nil {
			t.Fatal(err)
		}
		stmts, err := parser.ParseAll(string(data))
		if err != nil {
			t.Fatalf("schema.sql does not parse: %v\n%s", err, data)
		}
		return len(stmts)
	}
	eng, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, ddl := range []string{
		"CREATE TABLE a (id INTEGER PRIMARY KEY, v STRING)",
		"CREATE INDEX a_v ON a (v)",
		"CREATE TABLE b (id INTEGER PRIMARY KEY)",
		"DROP TABLE b",
	} {
		mustExec(t, eng, ddl)
		if n := statements(); n != i+1 {
			t.Fatalf("after %q: %d statements in schema.sql, want %d", ddl, n, i+1)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash between writing the temp file and renaming it.
	if err := os.WriteFile(tmp, []byte("CREATE INDEX a_v ON a ("), 0o644); err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("Open with a leftover temp file: %v", err)
	}
	defer eng2.Close()
	if res := mustExec(t, eng2, "SHOW TABLES"); len(res.Rows) != 1 {
		t.Fatalf("tables after reopen: %v", res.Rows)
	}
	mustExec(t, eng2, "CREATE TABLE c (id INTEGER PRIMARY KEY)")
	if n := statements(); n != 5 {
		t.Errorf("%d statements after reopen + DDL, want 5", n)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("the leftover temp file survived the next DDL: %v", err)
	}
}

func newConferenceEngineWithDir(t *testing.T, seed int64, dir string, conf *workload.Conference) (*Engine, *workload.Conference) {
	t.Helper()
	eng, err := Open(Config{
		DataDir:  dir,
		Platform: amt.NewDefault(seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, eng, `CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER )`)
	mustExec(t, eng, `CREATE CROWD TABLE NotableAttendee (
		name STRING PRIMARY KEY,
		title STRING,
		FOREIGN KEY (title) REF Talk(title) )`)
	for _, talk := range conf.Talks[:10] {
		mustExec(t, eng, "INSERT INTO Talk (title) VALUES ("+sqltypes.NewString(talk.Title).SQLLiteral()+")")
	}
	return eng, conf
}

func TestNoCrowdEngineDegrades(t *testing.T) {
	eng, err := Open(Config{Optimizer: optimizer.Options{AllowUnbounded: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)`)
	mustExec(t, eng, `INSERT INTO Talk (title) VALUES ('X')`)
	res := mustExec(t, eng, `SELECT abstract FROM Talk WHERE title = 'X'`)
	if len(res.Rows) != 1 || !res.Rows[0][0].IsCNull() {
		t.Errorf("without a crowd the CNULL must survive: %v", res.Rows)
	}
}

func TestInsertDefaultsCrowdColumnsToCNull(t *testing.T) {
	eng, _ := newConferenceEngine(t, 11, "")
	defer eng.Close()
	res := mustExec(t, eng, "SELECT title FROM Talk WHERE abstract IS CNULL")
	if len(res.Rows) != 10 {
		t.Errorf("all inserted talks have CNULL abstracts: %d", len(res.Rows))
	}
	tab, _ := eng.cat.Table("Talk")
	if tab.Stats().CNullCount["abstract"] != 10 {
		t.Errorf("CNULL stats: %+v", tab.Stats().CNullCount)
	}
}

func TestQueryRequiresSelect(t *testing.T) {
	eng, _ := newConferenceEngine(t, 12, "")
	defer eng.Close()
	if _, err := eng.Query("INSERT INTO Talk (title) VALUES ('zz')"); err == nil {
		t.Error("Query must reject non-SELECT")
	}
	if _, err := eng.Query("SELECT COUNT(*) FROM Talk"); err != nil {
		t.Errorf("Query select: %v", err)
	}
}

func TestWRMPaysDuringQueries(t *testing.T) {
	eng, conf := newConferenceEngine(t, 13, "")
	defer eng.Close()
	mustExec(t, eng, "SELECT abstract FROM Talk WHERE title = "+sqltypes.NewString(conf.Talks[0].Title).SQLLiteral())
	if len(eng.WRM().Ledger()) == 0 {
		t.Error("the WRM must settle payments for collected assignments")
	}
	if len(eng.tracker.Workers()) == 0 {
		t.Error("worker quality must be tracked")
	}
}

// TestMixedKeyJoinMatchesNestedLoop: an equi-join whose sides are of two
// key families (INTEGER against STRING) keeps the rows its predicate
// keeps — compare converts one side, as the nested loop and IN do — and
// one within a family (INTEGER against FLOAT) still joins its equal
// numbers.
func TestMixedKeyJoinMatchesNestedLoop(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, "CREATE TABLE a (id INTEGER PRIMARY KEY, i INTEGER)")
	mustExec(t, eng, "CREATE TABLE b (id INTEGER PRIMARY KEY, s STRING, f FLOAT)")
	mustExec(t, eng, "INSERT INTO a VALUES (1, 42), (2, 7)")
	mustExec(t, eng, "INSERT INTO b VALUES (10, '42', 42.0), (11, 'x', 8.5)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT a.id, b.id FROM a JOIN b ON a.i = b.s", "[[1 10]]"},
		{"SELECT a.id, b.id FROM a JOIN b ON a.i = b.s OR 1 = 0", "[[1 10]]"},
		{"SELECT a.id, b.id FROM a JOIN b ON b.s = a.i AND a.id > 0", "[[1 10]]"},
		{"SELECT a.id FROM a WHERE a.i IN (SELECT s FROM b)", "[[1]]"},
		{"SELECT a.id, b.id FROM a JOIN b ON a.i = b.f", "[[1 10]]"},
	} {
		if got := fmt.Sprint(mustExec(t, eng, tc.sql).Rows); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.sql, got, tc.want)
		}
	}
}
