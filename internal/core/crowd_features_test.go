package core

import (
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/mobile"
	"crowddb/internal/optimizer"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func newAMT(seed int64) *amt.Platform { return amt.NewDefault(seed) }

// Aggregates over crowd columns must first instantiate the CNULLs they
// aggregate (§2.1: values are sourced when "required to evaluate ... or if
// they are part of a query result").
func TestAggregateOverCrowdColumn(t *testing.T) {
	eng, conf := newConferenceEngine(t, 41, "")
	defer eng.Close()
	res := mustExec(t, eng, "SELECT COUNT(nb_attendees), AVG(nb_attendees) FROM Talk")
	if res.Stats.ProbeRequests == 0 {
		t.Fatalf("aggregation must probe: %+v", res.Stats)
	}
	if res.Rows[0][0].Int() < 8 { // 10 talks, allow a couple of failed quorums
		t.Errorf("most attendance values must be filled: %v", res.Rows)
	}
	avg := res.Rows[0][1].Float()
	if avg < 20 || avg > 310 {
		t.Errorf("average out of ground-truth range: %f", avg)
	}
	_ = conf
}

// CROWDEQUAL in the SELECT list resolves through the single-pair fallback
// path and caches like everything else.
func TestCrowdEqualInSelectList(t *testing.T) {
	comp := workload.NewCompanies(4, 42)
	eng, err := Open(Config{
		Platform: newAMT(42),
		Oracle:   comp.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE company (name STRING PRIMARY KEY)`)
	for _, c := range comp.List {
		mustExec(t, eng, "INSERT INTO company VALUES ("+sqltypes.NewString(c.Canonical).SQLLiteral()+")")
	}
	probe := sqltypes.NewString(comp.List[0].Variants[len(comp.List[0].Variants)-1]).SQLLiteral()
	res := mustExec(t, eng, "SELECT name, CROWDEQUAL(name, "+probe+") AS same FROM company")
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	yes := 0
	for _, row := range res.Rows {
		if row[1].Kind() == sqltypes.KindBool && row[1].Bool() {
			yes++
		}
	}
	if yes < 1 {
		t.Errorf("the matching company must be recognized: %v", res.Rows)
	}
	if res.Stats.Comparisons == 0 {
		t.Errorf("projection comparisons must reach the crowd: %+v", res.Stats)
	}
}

// The full demo workload also runs on the mobile platform end to end.
func TestConferenceOnMobilePlatform(t *testing.T) {
	conf := workload.NewConference(8, 43)
	eng, err := Open(Config{
		Platform: mobile.New(mobile.DefaultConfig(43)),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	for _, talk := range conf.Talks {
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk (title) VALUES (%s)",
			sqltypes.NewString(talk.Title).SQLLiteral()))
	}
	res := mustExec(t, eng, "SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 0")
	if len(res.Rows) < 6 {
		t.Errorf("mobile crowd should fill most counts: %d rows (%+v)", len(res.Rows), res.Stats)
	}
}

// LIKE over a crowd column: the predicate requires the value, so the
// column is probed before filtering.
func TestLikeOverCrowdColumn(t *testing.T) {
	eng, conf := newConferenceEngine(t, 44, "")
	defer eng.Close()
	res := mustExec(t, eng, "SELECT title FROM Talk WHERE abstract LIKE '%techniques%'")
	if res.Stats.ProbeRequests == 0 {
		t.Fatalf("LIKE on crowd column must probe: %+v", res.Stats)
	}
	// Every ground-truth abstract contains "techniques".
	if len(res.Rows) < 8 {
		t.Errorf("rows: %d", len(res.Rows))
	}
	_ = conf
}

// EXPLAIN shows the join reorder: the crowd table moves to the inner side.
func TestExplainShowsCrowdJoin(t *testing.T) {
	eng, _ := newConferenceEngine(t, 45, "")
	defer eng.Close()
	res := mustExec(t, eng,
		"EXPLAIN SELECT n.name FROM NotableAttendee n JOIN Talk t ON n.title = t.title")
	plan := res.Plan
	scanIdx := indexOf(plan, "CrowdProbe(NotableAttendee")
	talkIdx := indexOf(plan, "Scan(Talk")
	if scanIdx < 0 || talkIdx < 0 {
		t.Fatalf("plan:\n%s", plan)
	}
	if scanIdx < talkIdx {
		t.Errorf("crowd table must be reordered after Talk:\n%s", plan)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// The engine's quality tracker converges: after several crowd queries,
// workers who disagreed with majorities score lower.
func TestQualityTrackerConverges(t *testing.T) {
	eng, conf := newConferenceEngine(t, 46, "")
	defer eng.Close()
	for _, talk := range conf.Talks[:6] {
		mustExec(t, eng, "SELECT abstract FROM Talk WHERE title = "+
			sqltypes.NewString(talk.Title).SQLLiteral())
	}
	// The decisions must be recorded as quality.Decision votes: the workers
	// the market saw score off the prior, and agreement dominates.
	ws := eng.cfg.Platform.(*amt.Platform).WorkerStats()
	if len(ws) < 3 {
		t.Fatalf("too few workers answered: %d", len(ws))
	}
	var above, below int
	for _, w := range ws {
		switch s := eng.tracker.Score(w.ID); {
		case s > 0.5:
			above++
		case s < 0.5:
			below++
		}
	}
	if above == 0 && below == 0 {
		t.Error("scores must move off the prior")
	}
	if above <= below {
		t.Errorf("majority agreement should dominate: %d workers score above the prior, %d below", above, below)
	}
	_ = quality.Decision{}
}

// TestBoundednessFollowsThePrice: bounded means a finite predicted cost,
// and the optimizer prices a CrowdJoin exactly where the executor runs one.
// A LEFT JOIN is no CrowdJoin, so its crowd inner is unbounded: rejected,
// and under AllowUnbounded read from stored rows only, with the warning. An
// inner join that keys the crowd column on an expression over the outer
// side is a CrowdJoin: bounded, priced per outer key, and run as one.
func TestBoundednessFollowsThePrice(t *testing.T) {
	eng, _ := newConferenceEngine(t, 46, "")
	defer eng.Close()
	left := "SELECT t.title, n.name FROM Talk t LEFT JOIN NotableAttendee n ON n.title = t.title"
	for _, sql := range []string{"EXPLAIN " + left, left} {
		if _, err := eng.Exec(sql); err == nil || !strings.Contains(err.Error(), "CROWD table n is unbounded") {
			t.Errorf("%s: want the unbounded error, got %v", sql, err)
		}
	}
	byExpr := "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = LOWER(t.title)"
	res := mustExec(t, eng, "EXPLAIN "+byExpr)
	if !strings.Contains(res.Plan, "bounded: true\npredicted: ¢60.0") || len(res.Warnings) != 0 {
		t.Errorf("the expression-keyed CrowdJoin is bounded and priced per outer key:\n%s%v", res.Plan, res.Warnings)
	}
	if res = mustExec(t, eng, byExpr); res.Stats.NewTupleRequests == 0 {
		t.Errorf("the expression-keyed join must run as a CrowdJoin: %+v", res.Stats)
	}

	open, err := Open(Config{Optimizer: optimizer.Options{AllowUnbounded: true}, Platform: newAMT(46)})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	for _, sql := range []string{
		"CREATE TABLE Talk (title STRING PRIMARY KEY)",
		"CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING)",
		"INSERT INTO Talk VALUES ('a'), ('b')",
		"INSERT INTO NotableAttendee VALUES ('ann', 'a')",
	} {
		mustExec(t, open, sql)
	}
	res = mustExec(t, open, left+" ORDER BY t.title")
	if got := fmt.Sprint(res.Rows); got != "[[a ann] [b NULL]]" || res.Stats.NewTupleRequests != 0 ||
		len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "CROWD table n is unbounded") {
		t.Errorf("%s under AllowUnbounded: rows %s, stats %+v, warnings %v", left, got, res.Stats, res.Warnings)
	}
}

// TestCrowdProbeReadsWhatItsBoundAllows: a LIMIT straight over the probe of
// a closed-world table stops the scan under it, so only the rows returned
// are probed. A LIMIT over a sort bounds the sort: every stored row is read
// and probed, and the answer is the sorted table's first rows. A crowd
// conjunct is decided after the probe, so no bound stops the read under it.
func TestCrowdProbeReadsWhatItsBoundAllows(t *testing.T) {
	eng, _ := newConferenceEngine(t, 47, "")
	defer eng.Close()
	res := mustExec(t, eng, "SELECT title, abstract FROM Talk LIMIT 2")
	if len(res.Rows) != 2 || res.Stats.RowsScanned != 2 || res.Stats.ProbeRequests < 2 {
		t.Errorf("LIMIT over a probe: %d rows, %+v", len(res.Rows), res.Stats)
	}
	top := mustExec(t, eng, "SELECT title, nb_attendees FROM Talk ORDER BY title LIMIT 3")
	if top.Stats.RowsScanned != 10 || top.Stats.ProbeRequests < 10 {
		t.Errorf("LIMIT over a sort must read and probe all 10 talks: %+v", top.Stats)
	}
	all := mustExec(t, eng, "SELECT title, nb_attendees FROM Talk ORDER BY title")
	if got, want := fmt.Sprint(top.Rows), fmt.Sprint(all.Rows[:3]); got != want {
		t.Errorf("ORDER BY title LIMIT 3 = %s, want %s", got, want)
	}
	res = mustExec(t, eng, "SELECT title FROM Talk WHERE nb_attendees >= 0 LIMIT 1")
	if len(res.Rows) != 1 || res.Stats.RowsScanned != 10 {
		t.Errorf("a crowd conjunct under a LIMIT: %d rows, %+v", len(res.Rows), res.Stats)
	}
}
