package core

import (
	"context"
	"fmt"
	"testing"

	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// TestPlanCacheRepricesJoinFreePlans: every cacheable SELECT of the
// parser's corpus and the crowdbench experiments (keyCorpus, over
// corpusEngine's tables) and the crowd statements of the conference
// schema run once; then each input the cost model reads moves in turn —
// an INSERT, a DELETE, an observed filter selectivity, a CNULL answered,
// the comparison cache's hit rate and the observed round-trip p50. After
// each, every SELECT entry is stale, and one whose plan joins nothing is
// re-priced without a compile: it keeps its tree and the executor kept
// for it, and agrees with a fresh compile on the masked EXPLAIN with
// per-node costs, the forecast, boundedness, warnings and columns
// (recompileHit). An entry whose plan joins compiles afresh, and after a
// DDL every entry does. keyCorpus's DML entries read none of those
// inputs: each is a hit until the DDL, then compiles afresh.
func TestPlanCacheRepricesJoinFreePlans(t *testing.T) {
	comp := workload.NewCompanies(4, 23)
	corpus := corpusEngine(t, Config{Platform: newAMT(23), Oracle: comp.Oracle(), Payment: wrm.DefaultPolicy()})
	conference, conf := newConferenceEngine(t, 23, "")
	defer conference.Close()
	talk := sqltypes.NewString(conf.Talks[0].Title).SQLLiteral()
	for _, tc := range []struct {
		name           string
		eng            *Engine
		sqls           []string
		insert, delete string
		crowd          string // a crowd statement of a shape of its own, with a %d slot
	}{
		{"corpus", corpus, keyCorpus,
			"INSERT INTO Talk VALUES ('talk-new', 'n', 5, 'Room 3', 'q')", "DELETE FROM Talk WHERE title = 'talk-new'",
			"SELECT hq FROM company WHERE name ~= 'company %d'"},
		{"conference", conference, []string{
			"SELECT title, abstract FROM Talk WHERE title <> 'y'",
			"SELECT abstract FROM Talk LIMIT 3",
			"SELECT title FROM Talk WHERE nb_attendees > 10",
			"SELECT name FROM NotableAttendee WHERE title = " + talk,
			"SELECT name FROM NotableAttendee LIMIT 5",
			"SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better?')",
			"SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title",
			"SELECT n.name FROM NotableAttendee n JOIN Talk t ON n.title = t.title WHERE t.title = " + talk,
		},
			"INSERT INTO Talk (title) VALUES ('a new talk')", "DELETE FROM Talk WHERE title = 'a new talk'",
			"SELECT title FROM Talk WHERE title ~= 'talk %d'"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.eng
			var stmts []string
			keys := map[string]bool{}
			for _, sql := range tc.sqls {
				mustExec(t, e, sql)
				sc, err := e.Prepare(sql)
				if err != nil || cachedAt(&sc, 0) == nil {
					t.Fatalf("%s: not served by the plan cache (%v)", sql, err)
				}
				if !keys[sc.stmts[0].en.kept.key] {
					keys[sc.stmts[0].en.kept.key] = true
					stmts = append(stmts, sql)
				}
			}
			talks, _ := e.cat.Table("Talk")
			talks.AdjustCNull("abstract", 1) // for the answer below to take back
			n := 0
			moves := []struct {
				name     string
				costOnly bool // moves a cost input, not the catalog
				move     func()
			}{
				{"an INSERT", false, func() { mustExec(t, e, tc.insert) }},
				{"a DELETE", false, func() { mustExec(t, e, tc.delete) }},
				{"an observed filter selectivity", false, func() { talks.ObserveFilter(100, 37) }},
				{"a CNULL answered", false, func() { talks.AdjustCNull("abstract", -1) }},
				{"the comparison cache's hit rate", true, func() {
					e.cache.PutEqual("q", "l", "r", true)
					e.cache.ClaimEqual("q", "l", "r")
				}},
				{"the observed round-trip p50", true, func() {
					for was := e.costInputs().RoundTripSeconds; e.costInputs().RoundTripSeconds == was && n < 20; n++ {
						mustExec(t, e, fmt.Sprintf(tc.crowd, n))
					}
				}},
			}
			for _, mv := range moves {
				version, cost := e.cat.Version(), e.costInputs()
				mv.move()
				if moved := e.cat.Version() != version; moved == mv.costOnly || mv.costOnly && e.costInputs() == cost {
					t.Fatalf("%s: catalog version moved %v, cost inputs %+v, were %+v", mv.name, moved, e.costInputs(), cost)
				}
				serveStale(t, e, mv.name, stmts, true)
			}
			mustExec(t, e, "CREATE TABLE Unread (k INTEGER PRIMARY KEY)")
			serveStale(t, e, "a DDL", stmts, false)
		})
	}
}

// serveStale serves each of stmts, whose entries moved went stale, and
// fails unless an entry whose plan joins nothing was re-priced on its
// tree and kept executor, when reprice says it may be, and compiled
// afresh otherwise. It then runs each statement, which keeps an executor
// for the entry it was served.
func serveStale(t *testing.T, e *Engine, moved string, stmts []string, reprice bool) {
	t.Helper()
	for _, sql := range stmts {
		sc, err := e.Prepare(sql)
		if err != nil || cachedAt(&sc, 0) == nil {
			t.Fatalf("after %s, %s: not served by the plan cache (%v)", moved, sql, err)
		}
		cs := cachedAt(&sc, 0)
		x := keptTop(e, cs.en.kept.key)
		hits0, misses0 := planCounts(e)
		reprices0 := repriceCount(e)
		en, err := e.serve(cs, cs.en)
		if err != nil {
			t.Fatalf("after %s, %s: %v", moved, sql, err)
		}
		hits, misses := planCounts(e)
		repriced, compiled := repriceCount(e) > reprices0, misses > misses0
		if cs.en.write != nil {
			if hit := hits > hits0; hit != reprice || repriced || compiled == reprice {
				t.Errorf("after %s, %s: hit %v, re-priced %v, compiled %v; want a hit %v", moved, sql, hit, repriced, compiled, reprice)
			}
			if err := recompileHit(e, sql, cs.slots, &en); err != nil {
				t.Errorf("after %s: %v", moved, err)
			}
			continue // DML writes: the moves are the test's own
		}
		switch {
		case hits != hits0:
			t.Errorf("after %s, %s: a stale entry served as a hit", moved, sql)
		case reprice && !joins(cs.en.opt.Root):
			if !repriced || compiled {
				t.Errorf("after %s, %s: re-priced %v, compiled %v; want re-priced, no compile", moved, sql, repriced, compiled)
			}
			if en.opt.Root != cs.en.opt.Root || x == nil || x.plan != en.opt.Root || keptTop(e, cs.en.kept.key) != x {
				t.Errorf("after %s, %s: the re-priced entry did not keep its tree and executor", moved, sql)
			}
			if err := recompileHit(e, sql, cs.slots, &en); err != nil {
				t.Errorf("after %s: %v", moved, err)
			}
		case repriced || !compiled:
			t.Errorf("after %s, %s (joins %v): re-priced %v, compiled %v; want compiled", moved, sql, joins(cs.en.opt.Root), repriced, compiled)
		}
		if _, err := e.ExecAt(context.Background(), &sc, 0, DefaultExecOpts()); err != nil {
			t.Fatalf("after %s, %s: %v", moved, sql, err)
		}
	}
}
