package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/optimizer"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// Platform outages must surface as statement errors without corrupting
// the engine: stored data stays queryable and later crowd calls work.
func TestEngineSurvivesPlatformOutage(t *testing.T) {
	conf := workload.NewConference(10, 32)
	flaky := crowd.NewFlaky(amt.NewDefault(32), 1) // every call fails
	eng, err := Open(Config{
		Platform: flaky,
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk (title) VALUES ('%s')", conf.Talks[0].Title))

	if _, err := eng.Exec(fmt.Sprintf("SELECT abstract FROM Talk WHERE title = '%s'", conf.Talks[0].Title)); err == nil {
		t.Fatal("outage must surface as an error")
	}
	if flaky.Fails() == 0 {
		t.Fatal("no failure was injected")
	}
	// Crowd-free statements still work.
	res := mustExec(t, eng, "SELECT COUNT(*) FROM Talk")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("engine corrupted after outage: %v", res.Rows)
	}
	// Platform recovers: the same crowd query now succeeds.
	flaky.FailEvery = 0
	res = mustExec(t, eng, fmt.Sprintf("SELECT abstract FROM Talk WHERE title = '%s'", conf.Talks[0].Title))
	if res.Rows[0][0].IsUnknown() {
		t.Errorf("query after recovery: %v (%+v)", res.Rows, res.Stats)
	}
}

// Worker no-shows: with a deadline too tight for any answers, the query
// still returns (with CNULLs surviving) instead of hanging.
func TestWorkerNoShowDeadline(t *testing.T) {
	conf := workload.NewConference(10, 33)
	tcfg := taskmgr.DefaultConfig()
	tcfg.MaxWait = time.Minute
	eng, err := Open(Config{
		Platform: amt.NewDefault(33),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
		Tasks:    tcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk (title) VALUES ('%s')", conf.Talks[0].Title))
	res := mustExec(t, eng, "SELECT title, abstract FROM Talk")
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if !res.Rows[0][1].IsCNull() {
		t.Errorf("no answers could have arrived in 1 virtual minute: %v", res.Rows[0])
	}
	ts := eng.Tasks().Stats()
	if ts.ExpiredGroups == 0 {
		t.Errorf("deadline must expire the group: %+v", ts)
	}
}

// The comparison budget caps crowd comparisons per query; CROWDORDER then
// degrades deterministically instead of overspending.
func TestCompareBudget(t *testing.T) {
	conf := workload.NewConference(10, 34)
	eng, err := Open(Config{
		Platform:      amt.NewDefault(34),
		Oracle:        conf.Oracle(),
		Payment:       wrm.DefaultPolicy(),
		CompareBudget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	for _, talk := range conf.Talks {
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk (title) VALUES ('%s')", talk.Title))
	}
	res := mustExec(t, eng, `SELECT title FROM Talk ORDER BY CROWDORDER(title, "better?")`)
	if res.Stats.Comparisons > 5 {
		t.Errorf("budget exceeded: %+v", res.Stats)
	}
	if res.Stats.BudgetDenied == 0 {
		t.Errorf("denials expected for a 10-row sort with budget 5: %+v", res.Stats)
	}
	if len(res.Rows) != 10 {
		t.Errorf("sort must still return all rows: %d", len(res.Rows))
	}
}

// Checkpointing truncates the WAL while preserving all state.
func TestEngineCheckpoint(t *testing.T) {
	dir := t.TempDir()
	conf := workload.NewConference(10, 35)
	eng, _ := newConferenceEngineWithDir(t, 35, dir, conf)
	q := fmt.Sprintf("SELECT abstract FROM Talk WHERE title = '%s'", conf.Talks[0].Title)
	first := mustExec(t, eng, q)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, eng, "INSERT INTO Talk (title) VALUES ('post-checkpoint')")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(Config{
		DataDir:  dir,
		Platform: amt.NewDefault(36),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	res := mustExec(t, eng2, "SELECT COUNT(*) FROM Talk")
	if res.Rows[0][0].Int() != 11 {
		t.Errorf("rows after checkpoint+WAL recovery: %v", res.Rows)
	}
	res = mustExec(t, eng2, q)
	if res.Stats.ProbeRequests != 0 || res.Rows[0][0].Str() != first.Rows[0][0].Str() {
		t.Errorf("crowd answer lost through checkpoint: %+v", res.Stats)
	}
}

// Property-style equivalence: on randomly generated crowd-free data,
// every optimizer configuration must return identical result sets.
func TestOptimizerEquivalenceOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		eng, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, eng, `CREATE TABLE talk (id INTEGER PRIMARY KEY, room STRING, att INTEGER)`)
		mustExec(t, eng, `CREATE TABLE vis (vid INTEGER PRIMARY KEY, tid INTEGER, who STRING)`)
		nTalks := 5 + rng.Intn(20)
		for i := 0; i < nTalks; i++ {
			mustExec(t, eng, fmt.Sprintf("INSERT INTO talk VALUES (%d, 'R%d', %d)", i, rng.Intn(4), rng.Intn(300)))
		}
		nVis := 5 + rng.Intn(40)
		for i := 0; i < nVis; i++ {
			mustExec(t, eng, fmt.Sprintf("INSERT INTO vis VALUES (%d, %d, 'w%d')", i, rng.Intn(nTalks+3), rng.Intn(10)))
		}
		queries := []string{
			"SELECT id FROM talk WHERE att > 100 AND room = 'R1' ORDER BY id",
			"SELECT t.id, v.who FROM talk t JOIN vis v ON v.tid = t.id WHERE t.att >= 50 ORDER BY t.id, v.who",
			"SELECT v.who, COUNT(*) AS c FROM vis v, talk t WHERE v.tid = t.id GROUP BY v.who ORDER BY c DESC, v.who",
			"SELECT DISTINCT room FROM talk ORDER BY room LIMIT 3",
			"SELECT id FROM talk ORDER BY att DESC LIMIT 4",
		}
		configs := []optimizer.Options{
			{},
			{DisablePushdown: true},
			{DisableStopAfter: true},
			{DisableJoinReorder: true},
			{DisablePushdown: true, DisableStopAfter: true, DisableJoinReorder: true},
		}
		for _, q := range queries {
			var baseline string
			for ci, opts := range configs {
				eng.cfg.Optimizer = opts
				res, err := eng.Exec(q)
				if err != nil {
					t.Fatalf("trial %d, config %d, %q: %v", trial, ci, q, err)
				}
				var sb strings.Builder
				for _, row := range res.Rows {
					for _, v := range row {
						sb.WriteString(v.String())
						sb.WriteByte('|')
					}
					sb.WriteByte('\n')
				}
				if ci == 0 {
					baseline = sb.String()
				} else if sb.String() != baseline {
					t.Errorf("trial %d: config %d changed results for %q:\n%s\nvs\n%s",
						trial, ci, q, baseline, sb.String())
				}
			}
		}
		eng.Close()
	}
}

// EXPLAIN must carry cardinality annotations (§3.2.2).
func TestExplainCardinalities(t *testing.T) {
	eng, _ := newConferenceEngine(t, 37, "")
	defer eng.Close()
	res := mustExec(t, eng, "EXPLAIN SELECT title FROM Talk WHERE title = 'X'")
	if !strings.Contains(res.Plan, "rows") {
		t.Errorf("cardinality annotations missing:\n%s", res.Plan)
	}
}
