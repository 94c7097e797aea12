package server

// The job is the observer of every statement it runs. These tests pin the
// two statement shapes whose reports do not come from one plain SELECT:
// EXPLAIN ANALYZE, which runs its query but streams nothing, and a SELECT
// whose IN-subqueries ask the crowd, whose spend the outer statement
// reports and settles.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
)

// fillPairs creates and fills a table like pairEngine's Pair, with ids
// 0..len(cs)-1: each row needs one CROWDEQUAL to resolve.
func fillPairs(t *testing.T, eng *core.Engine, name string, cs []workload.Company) {
	t.Helper()
	if _, err := eng.Exec(fmt.Sprintf("CREATE TABLE %s (id INTEGER PRIMARY KEY, a STRING, b STRING)", name)); err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		variant := c.Variants[len(c.Variants)-1]
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s)", name,
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplainAnalyzeJobStreamsNothing: an EXPLAIN ANALYZE job pays for
// its query's crowd work but streams neither a row nor a schema; its job
// resource carries the analyzed plan, and its session is charged exactly
// the comparisons the statement paid.
func TestExplainAnalyzeJobStreamsNothing(t *testing.T) {
	const nPairs, budget = 8, 100
	eng := pairEngine(t, 41, nPairs)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	stored := eng.CacheStats().Size
	job, qerr := runScript(srv, sess.ID(), "EXPLAIN ANALYZE SELECT id FROM Pair WHERE a ~= b")
	if qerr != nil {
		t.Fatal(qerr)
	}
	info := job.Info()
	if info.RowsEmitted != 0 || info.Columns != nil {
		t.Errorf("EXPLAIN ANALYZE streamed %d rows under columns %v", info.RowsEmitted, info.Columns)
	}
	if lines, rows, _, _, _ := job.rowsFrom(0); rows != 0 || len(lines) != 0 {
		t.Errorf("the job buffered %d rows: %q", rows, lines)
	}
	if !strings.Contains(info.Plan, "actual:") || !strings.Contains(info.Plan, "comparisons") {
		t.Errorf("job plan %q carries no analysis", info.Plan)
	}
	paid := eng.CacheStats().Size - stored
	if paid != nPairs {
		t.Fatalf("the statement stored %d comparison answers, want %d", paid, nPairs)
	}
	si := sess.Info()
	if si.Stats.Comparisons != paid || si.BudgetLeft != budget-paid {
		t.Errorf("session charged %d comparisons with %d left; the statement paid %d of %d",
			si.Stats.Comparisons, si.BudgetLeft, paid, budget)
	}
	if info.Stats.Comparisons != paid {
		t.Errorf("job resource reports %d comparisons, the statement paid %d", info.Stats.Comparisons, paid)
	}
}

// TestSubqueryJobProgressAndSettlement: a job whose IN-subqueries ask the
// crowd reports spend that never goes backwards while they run — the
// second subquery's progress rides on what the first already paid — and
// its session settles the outer statement's comparisons plus every
// subquery's. With a budget smaller than the first subquery needs, the
// subquery spends it all and the rest of the statement gets what is left
// of it, nothing, not a fresh budget.
func TestSubqueryJobProgressAndSettlement(t *testing.T) {
	const query = "SELECT id FROM Outers WHERE id IN (SELECT id FROM Inner1 WHERE a ~= b) AND id IN (SELECT id FROM Inner2 WHERE a ~= b) AND a ~= b"
	// The second subquery needs fewer comparisons than the first: reported
	// alone, its spend would read below what the first already paid.
	const nOuter, nInner1, nInner2 = 6, 6, 3
	setup := func(t *testing.T, seed int64) (*core.Engine, *Server) {
		eng := pairEngine(t, seed, 0)
		cs := workload.NewCompanies(nOuter+nInner1+nInner2, seed).List // no pair in two tables: no answer is shared
		fillPairs(t, eng, "Outers", cs[:nOuter])
		fillPairs(t, eng, "Inner1", cs[nOuter:nOuter+nInner1])
		fillPairs(t, eng, "Inner2", cs[nOuter+nInner1:])
		return eng, New(eng, Config{})
	}

	// Progress is sampled by polling the job, so one run can miss a
	// regression between two samples; five runs seldom all do.
	for seed := int64(43); seed < 48; seed++ {
		t.Run(fmt.Sprintf("progress and settlement, seed %d", seed), func(t *testing.T) {
			eng, srv := setup(t, seed)
			sess, serr := srv.CreateSession(-1)
			if serr != nil {
				t.Fatal(serr)
			}
			stored := eng.CacheStats().Size
			job, serr := srv.StartJob(sess.ID(), query)
			if serr != nil {
				t.Fatal(serr)
			}
			var samples []JobInfo
			for {
				info := job.Info()
				samples = append(samples, info)
				if info.State.Terminal() {
					break
				}
				runtime.Gosched()
			}
			if state, _ := job.Wait(context.Background()); state != JobDone {
				t.Fatalf("job ended %s: %v", state, job.Err())
			}
			for i := 1; i < len(samples); i++ {
				prev, cur := samples[i-1], samples[i]
				if cur.Stats.Comparisons < prev.Stats.Comparisons || cur.SpentCents < prev.SpentCents {
					t.Fatalf("progress went backwards at sample %d of %d: %d comparisons, ¢%.2f after %d, ¢%.2f",
						i, len(samples), cur.Stats.Comparisons, cur.SpentCents, prev.Stats.Comparisons, prev.SpentCents)
				}
			}
			paid := eng.CacheStats().Size - stored
			if paid <= nInner1+nInner2 {
				t.Fatalf("the statement stored %d comparison answers; its subqueries alone need %d", paid, nInner1+nInner2)
			}
			if got := sess.Info().Stats.Comparisons; got != paid {
				t.Errorf("session settled %d comparisons, the statement and its subqueries paid %d", got, paid)
			}
			if got := job.Info().Stats.Comparisons; got != paid {
				t.Errorf("job resource reports %d comparisons, the statement and its subqueries paid %d", got, paid)
			}
		})
	}

	t.Run("budget smaller than a subquery needs", func(t *testing.T) {
		const budget = nInner1 / 2
		eng, srv := setup(t, 49)
		sess, serr := srv.CreateSession(budget)
		if serr != nil {
			t.Fatal(serr)
		}
		stored := eng.CacheStats().Size
		if _, qerr := runScript(srv, sess.ID(), query); qerr != nil {
			t.Fatal(qerr)
		}
		paid := eng.CacheStats().Size - stored
		si := sess.Info()
		if paid != budget || si.Stats.Comparisons != budget || si.BudgetLeft != 0 {
			t.Errorf("the statement stored %d answers and was charged %d comparisons with %d left; budget %d",
				paid, si.Stats.Comparisons, si.BudgetLeft, budget)
		}
		if si.Stats.BudgetDenied == 0 {
			t.Error("no comparison was denied: the statement ran past its budget")
		}
	})
}
