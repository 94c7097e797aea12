package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// planCounts reads the plan cache's hit and miss counters.
func planCounts(e *Engine) (hits, misses float64) {
	return e.obsm.planHits.Value(), e.obsm.planMisses.Value()
}

// talkEngine holds n talks: title 'talk-NN' (the key), room 'Room N%5'
// (indexed) and n = NN; and Fav, the multiples of 3 below n.
func talkEngine(t *testing.T, n int) *Engine {
	t.Helper()
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, n INTEGER)")
	mustExec(t, eng, "CREATE INDEX by_room ON Talk (room)")
	for i := 0; i < n; i++ {
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%02d', 'Room %d', %d)", i, i%5, i))
	}
	mustExec(t, eng, "CREATE TABLE Fav (n INTEGER PRIMARY KEY)")
	for i := 0; i < n; i += 3 {
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Fav VALUES (%d)", i))
	}
	return eng
}

// rowsText renders rows sorted, one per line.
func rowsText(res *Result) string {
	var lines []string
	for _, r := range res.Rows {
		var sb strings.Builder
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPlanCacheAnswersEachStatement: one shape run with many literals
// returns each statement's own rows — through a primary-key probe, an
// index probe, an IN list, LIKE and an IN subquery — and compiles once.
// Every literal of a shape keeps the same share of the rows, so once its
// first run has observed the filter's selectivity (a statistic the
// optimizer reads) the shape's plan stays current.
func TestPlanCacheAnswersEachStatement(t *testing.T) {
	const n = 40
	talks := func(keep func(i int) bool) string {
		var lines []string
		for i := 0; i < n; i++ {
			if keep(i) {
				lines = append(lines, fmt.Sprintf("talk-%02d|", i))
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, tc := range []struct {
		name string
		sql  func(i int) string
		want func(i int) string
	}{
		{"pk probe",
			func(i int) string { return fmt.Sprintf("SELECT n FROM Talk WHERE title = 'talk-%02d'", i) },
			func(i int) string { return fmt.Sprintf("%d|", i) }},
		{"index probe",
			func(i int) string { return fmt.Sprintf("SELECT title FROM Talk WHERE room = 'Room %d'", i%5) },
			func(i int) string { return talks(func(j int) bool { return j%5 == i%5 }) }},
		{"in list",
			func(i int) string { return fmt.Sprintf("SELECT title FROM Talk WHERE n IN (%d, %d)", i, (i+7)%n) },
			func(i int) string { return talks(func(j int) bool { return j == i || j == (i+7)%n }) }},
		{"like",
			func(i int) string { return fmt.Sprintf("SELECT title FROM Talk WHERE title LIKE 'talk-%d%%'", i%4) },
			func(i int) string { return talks(func(j int) bool { return j/10 == i%4 }) }},
		{"in subquery",
			func(i int) string {
				return fmt.Sprintf("SELECT title FROM Talk WHERE n IN (SELECT n FROM Fav) AND title <> 'talk-%02d'", i)
			},
			func(i int) string { return talks(func(j int) bool { return j%3 == 0 && j != i }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := talkEngine(t, n)
			hits0, misses0 := planCounts(eng)
			for i := 0; i < n; i++ {
				res := mustExec(t, eng, tc.sql(i))
				if got, want := rowsText(res), tc.want(i); got != want {
					t.Fatalf("%s:\n got %q\nwant %q", tc.sql(i), got, want)
				}
			}
			if hits, misses := planCounts(eng); misses-misses0 > 2 || hits-hits0 < n-2 {
				t.Errorf("%d statements of one shape: %v misses, %v hits; want at most 2 misses", n, misses-misses0, hits-hits0)
			}
		})
	}
}

// TestPlanCacheCrowdEqualReadsItsLiteral: CROWDEQUAL against a WHERE
// literal asks about, and answers for, each statement's own literal.
func TestPlanCacheCrowdEqualReadsItsLiteral(t *testing.T) {
	comp := workload.NewCompanies(8, 6)
	eng, err := Open(Config{Platform: newAMT(6), Oracle: comp.Oracle(), Payment: wrm.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE company (name STRING PRIMARY KEY, hq STRING)`)
	for _, c := range comp.List {
		mustExec(t, eng, "INSERT INTO company VALUES ("+
			sqltypes.NewString(c.Canonical).SQLLiteral()+", "+sqltypes.NewString(c.HQ).SQLLiteral()+")")
	}
	hits0, _ := planCounts(eng)
	for round := 0; round < 2; round++ { // the second round's answers come from the comparison cache
		for _, c := range comp.List {
			variant := c.Variants[len(c.Variants)-1] // the lower-cased name
			res := mustExec(t, eng, "SELECT name FROM company WHERE name ~= "+sqltypes.NewString(variant).SQLLiteral())
			if len(res.Rows) != 1 || res.Rows[0][0].Str() != c.Canonical {
				t.Errorf("round %d, %q: %v", round, variant, res.Rows)
			}
		}
	}
	if hits, _ := planCounts(eng); hits == hits0 {
		t.Error("no statement was served from the plan cache")
	}
}

// TestPlanCacheCrowdProbePrefill: a CrowdProbe over a CROWD table
// pre-fills the solicitation from each statement's own WHERE key. The
// tuples a statement solicits move the table's statistics, so before each
// statement the cached entries are made current again, and the
// equivalence net, which would see the moved costs, is off: the plan's
// shape does not depend on them, and where the pre-fill comes from does.
func TestPlanCacheCrowdProbePrefill(t *testing.T) {
	defer func(net func(*Engine, string, []sqltypes.Value, *planEntry) error) { checkPlanHit = net }(checkPlanHit)
	checkPlanHit = nil
	eng, conf := newConferenceEngine(t, 9, "")
	defer eng.Close()
	hits0, _ := planCounts(eng)
	for _, talk := range conf.Talks[:6] {
		for _, en := range eng.plans.entries {
			en.version, en.opts = eng.cat.Version(), eng.optimizerOptions()
		}
		res := mustExec(t, eng, "SELECT name, title FROM NotableAttendee WHERE title = "+sqltypes.NewString(talk.Title).SQLLiteral())
		if len(res.Rows) == 0 {
			t.Errorf("%q: no attendee solicited (%+v)", talk.Title, res.Stats)
		}
		for _, r := range res.Rows {
			if r[1].Str() != talk.Title {
				t.Errorf("%q: solicited row %v names another talk", talk.Title, r)
			}
		}
	}
	if hits, _ := planCounts(eng); hits-hits0 != 5 {
		t.Errorf("%v of 6 statements were served from the plan cache, want 5", hits-hits0)
	}
}

// TestPlanCacheInvalidation: what the optimizer reads changing forces a
// recompile — an index, a table dropped and created again with other
// columns, an insert, and a crowd answer that moves the comparison cache's
// hit rate.
func TestPlanCacheInvalidation(t *testing.T) {
	eng := talkEngine(t, 10)
	// recompiles reports whether running sql compiled afresh.
	recompiles := func(sql string) bool {
		t.Helper()
		_, misses0 := planCounts(eng)
		mustExec(t, eng, sql)
		_, misses := planCounts(eng)
		return misses > misses0
	}
	// settled runs sql until its plan is cached and current: a run can
	// itself move a statistic (the first observed filter selectivity).
	settled := func(sql string) {
		t.Helper()
		for i := 0; recompiles(sql); i++ {
			if i == 3 {
				t.Fatalf("%s recompiles on every run", sql)
			}
		}
	}
	const byN = "SELECT title FROM Talk WHERE n = 3"
	settled(byN)
	mustExec(t, eng, "CREATE INDEX by_n ON Talk (n)")
	if !recompiles(byN) {
		t.Error("CREATE INDEX does not recompile")
	}
	settled(byN)
	mustExec(t, eng, "INSERT INTO Talk VALUES ('talk-10', 'Room 0', 10)")
	if !recompiles(byN) {
		t.Error("an INSERT does not recompile")
	}
	settled(byN)
	// An UPDATE that changes no statistic keeps the plan.
	mustExec(t, eng, "UPDATE Talk SET room = 'Room 9' WHERE n = 3")
	if recompiles(byN) {
		t.Error("an UPDATE that moves no statistic recompiles")
	}

	const all = "SELECT * FROM Talk WHERE title = 'talk-03'"
	mustExec(t, eng, all)
	mustExec(t, eng, "DROP TABLE Talk")
	mustExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, speaker STRING)")
	mustExec(t, eng, "INSERT INTO Talk VALUES ('talk-03', 'ada')")
	res := mustExec(t, eng, all)
	if strings.Join(res.Columns, ",") != "title,speaker" || rowsText(res) != "talk-03|ada|" {
		t.Errorf("after DROP and CREATE: columns %v, rows %q", res.Columns, rowsText(res))
	}

	// A crowd answer moves the comparison cache's hit rate, a cost input.
	comp := workload.NewCompanies(4, 6)
	crowd, err := Open(Config{Platform: newAMT(6), Oracle: comp.Oracle(), Payment: wrm.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer crowd.Close()
	mustExec(t, crowd, `CREATE TABLE company (name STRING PRIMARY KEY)`)
	for _, c := range comp.List {
		mustExec(t, crowd, "INSERT INTO company VALUES ("+sqltypes.NewString(c.Canonical).SQLLiteral()+")")
	}
	const eq = "SELECT name FROM company WHERE name ~= 'ibm'"
	mustExec(t, crowd, eq)
	_, misses0 := planCounts(crowd)
	if res := mustExec(t, crowd, eq); res.Stats.CacheHits == 0 {
		t.Fatalf("the repeat was not answered from the comparison cache: %+v", res.Stats)
	}
	if _, misses := planCounts(crowd); misses == misses0 {
		t.Error("a moved comparison-cache hit rate does not recompile")
	}
}

// TestPlanCacheBounded: more shapes than the capacity keep the cache at
// most planCacheCap entries, a shape cached again after the cache
// emptied still answers, and a stale entry is overwritten without an
// allocation.
func TestPlanCacheBounded(t *testing.T) {
	eng := talkEngine(t, 3)
	for i := 0; i < planCacheCap+10; i++ {
		res := mustExec(t, eng, fmt.Sprintf("SELECT n + %d FROM Talk WHERE title = 'talk-01'", i))
		if got := rowsText(res); got != fmt.Sprintf("%d|", i+1) {
			t.Fatalf("shape %d: %q", i, got)
		}
		if n := len(eng.plans.entries); n > planCacheCap {
			t.Fatalf("%d shapes cached, capacity %d", n, planCacheCap)
		}
	}
	// A miss on a cached shape overwrites its stale entry in place.
	key := keyOf(t, "SELECT n FROM Talk WHERE title = 'talk-01'")
	eng.plans.put(planEntry{key: key, version: 1})
	stale := func() { eng.plans.put(planEntry{key: key, version: 2}) }
	if n := testing.AllocsPerRun(100, stale); n != 0 && !raceEnabled {
		t.Errorf("overwriting a stale entry allocates %v times", n)
	}
}

// TestPlanCacheServesTheRefreshedEntry: a statement whose intake found a
// stale entry runs on the entry that replaced it since — another
// statement of its shape compiled in between — without compiling again.
func TestPlanCacheServesTheRefreshedEntry(t *testing.T) {
	eng := talkEngine(t, 10)
	point := func(i int) string { return fmt.Sprintf("SELECT n FROM Talk WHERE title = 'talk-%02d'", i) }
	mustExec(t, eng, point(1))
	mustExec(t, eng, "INSERT INTO Talk VALUES ('talk-10', 'Room 0', 10)") // a new row count: the entry is stale
	sc, err := eng.Prepare(point(2))
	if err != nil || sc.cached == nil {
		t.Fatalf("the stale entry does not serve the intake: %v", err)
	}
	mustExec(t, eng, point(3)) // compiles afresh, replacing the entry
	_, misses0 := planCounts(eng)
	res, err := eng.ExecAt(context.Background(), &sc, 0, DefaultExecOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := planCounts(eng); misses != misses0 {
		t.Errorf("the statement compiled again instead of running on the refreshed entry")
	}
	if rowsText(res) != "2|" {
		t.Errorf("rows %q, want 2", rowsText(res))
	}
}

// TestPlanCacheNetCatchesStaleEntry: the equivalence net (export_test.go)
// fails a hit whose plan is not the one a fresh compile makes. The entry
// is planted stale by skipping its version check.
func TestPlanCacheNetCatchesStaleEntry(t *testing.T) {
	eng := talkEngine(t, 5)
	mustExec(t, eng, "SELECT n FROM Talk WHERE room = 'Room 1'")
	for i := 5; i < 50; i++ {
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%02d', 'Room %d', %d)", i, i%5, i))
	}
	for _, en := range eng.plans.entries {
		en.version = eng.cat.Version()
	}
	_, err := eng.Exec("SELECT n FROM Talk WHERE room = 'Room 2'")
	if err == nil || !strings.Contains(err.Error(), "plan cache: stale hit") {
		t.Fatalf("a stale entry passed the net: %v", err)
	}
}

// TestPlanCacheConcurrentShape: 8 goroutines run one shape with distinct
// literals; each gets its own row.
func TestPlanCacheConcurrentShape(t *testing.T) {
	const n = 40
	eng := talkEngine(t, n)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g*5 + k) % n
				res, err := eng.Exec(fmt.Sprintf("SELECT n, title FROM Talk WHERE title = 'talk-%02d'", i))
				if err != nil {
					errs <- err
					return
				}
				if got, want := rowsText(res), fmt.Sprintf("%d|talk-%02d|", i, i); got != want {
					errs <- fmt.Errorf("goroutine %d, talk-%02d: %q", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, _ := planCounts(eng); hits < 8*50-8 {
		t.Errorf("%v of 400 statements hit the plan cache", hits)
	}
}

// TestPointSelectCompilesOnce: after warm-up a point SELECT with a new
// literal on every run moves the hit counter once per run and allocates
// at most what it was measured at (14 per statement through Query, the
// intake included, without the equivalence net; 29 when a hit parsed).
func TestPointSelectCompilesOnce(t *testing.T) {
	const maxAllocs = 14
	defer func(net func(*Engine, string, []sqltypes.Value, *planEntry) error) { checkPlanHit = net }(checkPlanHit)
	checkPlanHit = nil
	eng := talkEngine(t, 40)
	stmts := make([]string, 40)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT n FROM Talk WHERE title = 'talk-%02d'", i)
	}
	next := 0
	run := func() {
		if _, err := eng.Query(stmts[next%len(stmts)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	run()
	hits0, misses0 := planCounts(eng)
	allocs := testing.AllocsPerRun(200, run)
	hits, misses := planCounts(eng)
	if misses != misses0 || hits-hits0 != 201 { // AllocsPerRun runs once more to warm up
		t.Errorf("201 point SELECTs: %v hits, %v misses", hits-hits0, misses-misses0)
	}
	t.Logf("point SELECT: %v allocations", allocs)
	if raceEnabled {
		t.Skip("the count is not exact under -race (race_test.go)")
	}
	if allocs > maxAllocs {
		t.Errorf("a cached point SELECT allocates %v times, want at most %d", allocs, maxAllocs)
	}
}
