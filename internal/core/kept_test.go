package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/exec"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
)

// A plan-cache hit runs on an executor kept for its entry: a tree built
// and bound for an earlier statement of its shape, opened again with this
// statement's slot values. These tests hold a kept tree to one freshly
// built from the same plan.

// keptShapes are the machine operator shapes, each a statement whose
// slot literals are fresh for each k.
var keptShapes = []struct {
	name string
	sql  func(k int) string
}{
	{"pk probe", func(k int) string { return fmt.Sprintf("SELECT n, room FROM Talk WHERE title = 'talk-%02d'", 3*k+1) }},
	{"index probe", func(k int) string {
		return fmt.Sprintf("SELECT title FROM Talk WHERE room = 'Room %d' AND n > %d", k%5, k)
	}},
	{"filtered scan", func(k int) string { return fmt.Sprintf("SELECT title, n FROM Talk WHERE n > %d AND n < %d", k, 20+k) }},
	{"projection", func(k int) string {
		return fmt.Sprintf("SELECT n + 1, title || '!', -n FROM Talk WHERE n >= %d", 30-k)
	}},
	{"group by having", func(k int) string {
		return fmt.Sprintf("SELECT room, COUNT(*), SUM(n) FROM Talk WHERE n > %d GROUP BY room HAVING COUNT(*) > 1", 5*k)
	}},
	{"distinct", func(k int) string { return fmt.Sprintf("SELECT DISTINCT room FROM Talk WHERE n < %d", 2+k) }},
	{"sort", func(k int) string {
		return fmt.Sprintf("SELECT title FROM Talk WHERE n <> %d ORDER BY room DESC, n", k)
	}},
	{"top-k", func(k int) string {
		return fmt.Sprintf("SELECT title, n FROM Talk WHERE n < %d ORDER BY n DESC LIMIT 5", 30-k)
	}},
	{"limit offset", func(k int) string { return fmt.Sprintf("SELECT title FROM Talk WHERE n >= %d LIMIT 4 OFFSET 2", k) }},
	{"hash join", func(k int) string {
		return fmt.Sprintf("SELECT t.title, f.n FROM Talk t JOIN Fav f ON f.n = t.n WHERE t.n > %d", 2*k)
	}},
	{"nested-loop join", func(k int) string {
		return fmt.Sprintf("SELECT t.title, f.n FROM Talk t JOIN Fav f ON f.n < t.n WHERE t.n < %d AND f.n > %d", 8+k, k)
	}},
	{"left join", func(k int) string {
		return fmt.Sprintf("SELECT t.title, f.n FROM Talk t LEFT JOIN Fav f ON f.n = t.n WHERE t.n < %d", 5+2*k)
	}},
	{"in subquery", func(k int) string {
		return fmt.Sprintf("SELECT title FROM Talk WHERE n > %d AND n IN (SELECT n FROM Fav WHERE n < 20)", k)
	}},
	{"seven slots, negated", func(k int) string {
		return fmt.Sprintf("SELECT title FROM Talk WHERE n IN (%d, %d, -%d, %d) OR n BETWEEN -%d AND %d OR title = 'talk-%02d'",
			k, k+7, k, 2*k+11, k+1, k/2, 30+k)
	}},
}

// keptRounds is how many statements of each shape run: the first compiles
// and builds, every later one is a hit with fresh literals.
const keptRounds = 5

// orderedText renders rows in their order, one per line.
func orderedText(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// freshen makes every cached entry whose plan joins current, so that a
// hit runs on its entry's plan and kept executor however far the table
// statistics moved (a filtered scan's observed selectivity moves them
// every statement). An entry whose plan joins nothing needs no help: it
// is re-priced on its kept executor.
func freshen(eng *Engine) {
	eng.plans.mu.Lock()
	defer eng.plans.mu.Unlock()
	for _, cp := range eng.plans.entries {
		if cp.write == nil && joins(cp.opt.Root) {
			cp.version, cp.opts = eng.cat.Version(), eng.optimizerOptions()
		}
	}
}

// joins reports whether n's tree has a join: join order and a join's
// build-side estimate read the statistics.
func joins(n plan.Node) bool {
	if _, ok := n.(*plan.Join); ok {
		return true
	}
	return slices.ContainsFunc(n.Children(), joins)
}

// keptTop is the executor a hit on key takes next, nil when none is kept.
func keptTop(eng *Engine, key string) *executor {
	eng.plans.mu.Lock()
	cp := eng.plans.entries[key]
	eng.plans.mu.Unlock()
	if cp == nil {
		return nil
	}
	return cp.kept.idle.Load()
}

// memoized is how many IN-subquery results x's context holds.
func memoized(x *executor) int {
	return reflect.ValueOf(&x.ctx).Elem().FieldByName("subqMemo").Len()
}

// keptRun runs sql, a statement whose shape is cached, as a hit or a
// re-price on the executor kept for its entry, and fails unless it did.
// It returns the result and the statement as the intake took it in.
func keptRun(t *testing.T, eng *Engine, sql string, opts ExecOpts) (*Result, *statement, error) {
	t.Helper()
	freshen(eng)
	sc, err := eng.Prepare(sql)
	if err != nil || cachedAt(&sc, 0) == nil {
		t.Fatalf("%s: not served by the plan cache (%v)", sql, err)
	}
	cs := cachedAt(&sc, 0)
	x := keptTop(eng, cs.en.kept.key)
	if x == nil || x.plan != cs.en.opt.Root {
		t.Fatalf("%s: no executor kept for the entry's plan", sql)
	}
	hits0, misses0 := planCounts(eng)
	reprices0 := repriceCount(eng)
	res, err := eng.ExecAt(context.Background(), &sc, 0, opts)
	if hits, misses := planCounts(eng); hits+repriceCount(eng) != hits0+reprices0+1 || misses != misses0 ||
		keptTop(eng, cs.en.kept.key) != x {
		t.Fatalf("%s: did not run as a hit or a re-price on the kept executor", sql)
	}
	if n := memoized(x); n != 0 {
		t.Errorf("%s: the kept executor holds %d IN-subquery results after its statement", sql, n)
	}
	return res, cs, err
}

// keptAgreesWithFresh runs sql on its entry's kept executor and then on a
// tree freshly built from the same plan with the same slot values, and
// fails unless the two agree in rows, row order and stats.
func keptAgreesWithFresh(t *testing.T, eng *Engine, sql string) {
	t.Helper()
	kept, cs, err := keptRun(t, eng, sql, DefaultExecOpts())
	if err != nil {
		t.Fatalf("%s on the kept executor: %v", sql, err)
	}
	fresh, err := eng.runSelect(context.Background(), cs.en.opt, cs.en.cols, cs.slots, nil, DefaultExecOpts(), nil, nil, nil)
	if err != nil {
		t.Fatalf("%s on a fresh tree: %v", sql, err)
	}
	if got, want := orderedText(kept), orderedText(fresh); got != want {
		t.Errorf("%s:\nkept tree:\n%sfresh tree:\n%s", sql, got, want)
	}
	if kept.Stats != fresh.Stats {
		t.Errorf("%s: kept tree's stats %+v, fresh tree's %+v", sql, kept.Stats, fresh.Stats)
	}
}

// TestKeptExecutorAnswersAsFresh: a hit or a re-price runs on the tree
// kept for its entry and answers as a tree freshly built from the same
// plan — rows, row order and stats — for every machine operator shape
// re-run with fresh literals (more than four slots, negated ones among
// them), after a statement on the entry failed or was cancelled, and from
// 8 goroutines at once. A crowd statement repeated on its kept tree
// answers with the same rows and pays for nothing new. The equivalence net
// stays on for every plan that joins nothing.
func TestKeptExecutorAnswersAsFresh(t *testing.T) {
	defer func(net func(*Engine, string, []sqltypes.Value, *planEntry) error) { checkPlanHit = net }(checkPlanHit)
	net := checkPlanHit
	checkPlanHit = func(e *Engine, sql string, slots []sqltypes.Value, hit *planEntry) error {
		if hit.opt != nil && joins(hit.opt.Root) {
			return nil // freshen makes join entries current that a fresh compile would cost otherwise
		}
		return net(e, sql, slots, hit)
	}

	t.Run("shapes", func(t *testing.T) {
		eng := talkEngine(t, 40)
		for _, s := range keptShapes {
			mustExec(t, eng, s.sql(0))
			for k := 1; k < keptRounds; k++ {
				keptAgreesWithFresh(t, eng, s.sql(k))
			}
		}
	})

	t.Run("failures", func(t *testing.T) {
		eng := talkEngine(t, 40)
		refuse := errors.New("the sink refuses a row")
		for i, s := range keptShapes {
			mustExec(t, eng, s.sql(0))
			// The sink stops the statement at its second row.
			rows := 0
			stop := &recorder{onRow: func(exec.Row) error {
				if rows++; rows == 2 {
					return refuse
				}
				return nil
			}}
			if _, _, err := keptRun(t, eng, s.sql(1), ExecOpts{CompareBudget: -1, Observer: stop}); err != nil && !errors.Is(err, refuse) {
				t.Fatalf("%s: %v", s.name, err)
			}
			keptAgreesWithFresh(t, eng, s.sql(2))
			// A cancelled statement opens and closes the tree.
			freshen(eng)
			sc, err := eng.Prepare(s.sql(3))
			if err != nil || cachedAt(&sc, 0) == nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.ExecAt(ctx, &sc, 0, DefaultExecOpts()); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: a cancelled statement returned %v", s.name, err)
			}
			keptAgreesWithFresh(t, eng, s.sql(4+i%2))
		}
		// A row the WHERE cannot evaluate fails the statement midway.
		overflow := func(m int64) string {
			return fmt.Sprintf("SELECT title FROM Talk WHERE n * %d > 5 ORDER BY n LIMIT 30", m)
		}
		mustExec(t, eng, overflow(2))
		if _, _, err := keptRun(t, eng, overflow(math.MaxInt64), DefaultExecOpts()); err == nil {
			t.Fatal("an overflowing product did not fail its statement")
		}
		keptAgreesWithFresh(t, eng, overflow(3))
	})

	t.Run("concurrent", func(t *testing.T) {
		eng := talkEngine(t, 40)
		want := make([][keptRounds]string, len(keptShapes))
		for i, s := range keptShapes {
			for k := range keptRounds {
				res, err := freshRun(t, eng, s.sql(k))
				if err != nil {
					t.Fatal(err)
				}
				want[i][k] = rowsText(res)
			}
		}
		hits0, _ := planCounts(eng)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 3*len(keptShapes); n++ {
					i, k := (g+n)%len(keptShapes), (g*7+n)%keptRounds
					freshen(eng) // the other goroutines' scans move the statistics
					res, err := eng.Exec(keptShapes[i].sql(k))
					if err == nil && rowsText(res) != want[i][k] {
						err = fmt.Errorf("%s:\n%s\nwant\n%s", keptShapes[i].sql(k), rowsText(res), want[i][k])
					}
					if err != nil {
						errs <- err
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
		if hits, _ := planCounts(eng); hits == hits0 {
			t.Error("no statement ran as a plan-cache hit")
		}
	})

	t.Run("crowd", func(t *testing.T) {
		eng, _ := newConferenceEngine(t, 71, "")
		defer eng.Close()
		mustExec(t, eng, "CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)")
		for i, c := range workload.NewCompanies(4, 71).List {
			mustExec(t, eng, fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)", i,
				sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(c.Variants[len(c.Variants)-1]).SQLLiteral()))
		}
		for _, sql := range []string{
			"SELECT id FROM Pair WHERE id >= 0 AND a ~= b",
			"SELECT title FROM Talk WHERE title <> 'x' ORDER BY CROWDORDER(title, 'Which talk did you like better?')",
			"SELECT title, abstract FROM Talk WHERE title <> 'y'",
		} {
			first := mustExec(t, eng, sql)
			if paid := first.Stats.Comparisons + first.Stats.ProbeRequests; paid == 0 {
				t.Fatalf("%s: the first run paid the crowd nothing (%+v)", sql, first.Stats)
			}
			for rep := 0; rep < 2; rep++ {
				groups := eng.Tasks().Stats().GroupsPosted
				res, _, err := keptRun(t, eng, sql, DefaultExecOpts())
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if got, want := orderedText(res), orderedText(first); got != want {
					t.Errorf("%s, repeat %d:\n%swant\n%s", sql, rep, got, want)
				}
				if st := res.Stats; st.Comparisons+st.ProbeRequests+st.NewTupleRequests != 0 ||
					eng.Tasks().Stats().GroupsPosted != groups {
					t.Errorf("%s, repeat %d paid the crowd again: %+v", sql, rep, st)
				}
			}
		}
	})
}
