package exec

// Tests for the stop-after push-downs: a bounded Sort moved below a Project
// that copies its keys, and a bounded Sort's keys and bound handed to the
// Aggregate under it. DisableStopAfter plans neither, which makes it the
// reference: a statement must return the same rows in the same order, or
// the same error, either way, at every batch size. No select item here can
// fail: one that fails only on a row the limit drops would fail on the
// reference's side alone.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// setupStopAfter builds a table whose sort keys tie a lot and hold NULLs:
// g has 8 values, k 5 and NULL, v 40, f 7. c is a CROWD column holding 6
// stored values and CNULL: with no platform attached, every plan reads the
// table through a CrowdProbe that asks nothing.
func setupStopAfter(t testing.TB) *harness {
	st, err := storage.NewStoreOptions("", storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{cat: catalog.New(), store: st}
	tab := &catalog.Table{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "k", Type: sqltypes.TypeInt},
			{Name: "v", Type: sqltypes.TypeInt},
			{Name: "f", Type: sqltypes.TypeFloat},
			{Name: "c", Type: sqltypes.TypeString, Crowd: true},
		},
	}
	if err := h.cat.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := h.store.CreateTable(tab.Name, tab.PrimaryKeyIndexes()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for id := 0; id < 300; id++ {
		k := num(int64(rng.Intn(5)))
		if rng.Intn(5) == 0 {
			k = sqltypes.Null()
		}
		row := Row{num(int64(id)), str(fmt.Sprintf("g%d", rng.Intn(8))), k, num(int64(rng.Intn(40))),
			sqltypes.NewFloat(float64(rng.Intn(7)) / 2), str(fmt.Sprintf("c%d", rng.Intn(6)))}
		if rng.Intn(4) == 0 {
			row[5] = sqltypes.CNull()
		}
		if _, err := storeInsert(h.store, "s", row); err != nil {
			t.Fatal(err)
		}
		tab.AddRowCount(1)
	}
	return h
}

// stopAfterQuery draws one statement; pick(n) chooses in [0, n).
func stopAfterQuery(pick func(int) int) string {
	one := func(opts ...string) string { return opts[pick(len(opts))] }
	some := func(max int, opts ...string) []string {
		var out []string
		for _, i := range rand.New(rand.NewSource(int64(pick(1 << 16)))).Perm(len(opts))[:min(1+pick(max), len(opts))] {
			out = append(out, opts[i])
		}
		return out
	}
	keys := func(cands ...string) string {
		ks := some(3, cands...)
		for i := range ks {
			ks[i] += one("", " DESC", " ASC")
		}
		return " ORDER BY " + strings.Join(ks, ", ")
	}
	where := one("", " WHERE v > 12", " WHERE k IS NOT NULL", " WHERE g <> 'g3'",
		" WHERE c > 'c2'", " WHERE c IS NOT CNULL", " WHERE v > 12 AND c <> 'c4'")
	var sql string
	switch pick(3) {
	case 0: // a projection: keys among its outputs, aliases and columns it drops
		items := some(4, "id", "g", "k", "v", "f", "c", "k AS kk", "v AS vv", "g AS grp", "v * 2 AS dbl", "'x' AS lit", "c AS cc")
		var outs []string
		for _, it := range items {
			name, alias, ok := strings.Cut(it, " AS ")
			if ok {
				name = alias
			}
			outs = append(outs, name)
		}
		sql = "SELECT " + strings.Join(items, ", ") + " FROM s" + where +
			keys(append(outs, "k", "v", "f", "id", "g", "c")...)
	case 1: // DISTINCT: keys among its outputs
		items := some(3, "g", "k", "f", "c")
		sql = "SELECT DISTINCT " + strings.Join(items, ", ") + " FROM s" + where + keys(items...)
	default: // GROUP BY: keys among its outputs and aggregates it does not select
		group := one("g", "k", "g, k", "c")
		items := append(strings.Split(group, ", "), some(3, "COUNT(*)", "SUM(v) AS total", "AVG(f)", "MIN(k)", "MAX(v) AS mx", "MAX(c)")...)
		var outs []string
		for _, it := range items {
			name, alias, ok := strings.Cut(it, " AS ")
			if ok {
				name = alias
			}
			outs = append(outs, name)
		}
		having := one("", "", " HAVING COUNT(*) > 4", " HAVING SUM(v) > 200")
		sql = "SELECT " + strings.Join(items, ", ") + " FROM s" + where + " GROUP BY " + group + having +
			keys(append(outs, "SUM(f)", "MAX(k)", "MIN(v) - MAX(v)", "COUNT(*) * 2", "MIN(c)")...)
	}
	if pick(5) > 0 {
		sql += " LIMIT " + one("0", "1", "3", "10", "40", "1000")
		if pick(3) == 0 {
			sql += " OFFSET " + one("1", "5", "50")
		}
	}
	return sql
}

// runOutcome plans and runs sql, and renders its rows, kind for kind, or
// its error; plan is the optimized plan's EXPLAIN.
func (h *harness) runOutcome(sql string, opts optimizer.Options, batch int) (outcome, tree string) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return "parse: " + err.Error(), ""
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		return "plan: " + err.Error(), ""
	}
	opt, err := optimizer.Optimize(root, h.cat, opts)
	if err != nil {
		return "optimize: " + err.Error(), ""
	}
	tree = plan.ExplainTree(opt.Root)
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache(), batchSize: batch}
	op, err := Build(opt.Root, ctx)
	if err != nil {
		return "build: " + err.Error(), tree
	}
	rows, err := Run(op, ctx)
	if err != nil {
		return "run: " + err.Error(), tree
	}
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&sb, "%d:%s|", v.Kind(), v)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), tree
}

// checkStopAfter runs sql with the push-downs and without, at batch size
// batch, reports how the pushed plan differs from the reference, and
// returns the pushed plan.
func checkStopAfter(t *testing.T, h *harness, sql string, batch int) (topk, moved bool, pushed string) {
	t.Helper()
	want, ref := h.runOutcome(sql, optimizer.Options{DisableStopAfter: true}, batch)
	got, pushed := h.runOutcome(sql, optimizer.Options{}, batch)
	if got != want {
		t.Fatalf("%s (batch %d): pushed plan differs from the reference\npushed:\n%s%s\nreference:\n%s%s",
			sql, batch, pushed, got, ref, want)
	}
	projectAboveSort := func(tree string) bool {
		p, s := strings.Index(tree, "Project("), strings.Index(tree, "Sort(")
		return p >= 0 && s >= 0 && p < s
	}
	return strings.Contains(pushed, "topk="), projectAboveSort(pushed) && !projectAboveSort(ref), pushed
}

func TestStopAfterPushdownMatchesReference(t *testing.T) {
	h := setupStopAfter(t)
	rng := rand.New(rand.NewSource(31))
	topks, moves, probes, filtered := 0, 0, 0, 0
	for i := 0; i < 500; i++ {
		sql := stopAfterQuery(rng.Intn)
		for _, batch := range []int{1, 7, 256} {
			topk, moved, pushed := checkStopAfter(t, h, sql, batch)
			if batch != 1 {
				continue
			}
			if topk {
				topks++
			}
			if moved {
				moves++
			}
			if strings.Contains(pushed, "CrowdProbe(s) filter=") {
				filtered++
			} else if strings.Contains(pushed, "CrowdProbe(s)") {
				probes++
			}
		}
	}
	if topks < 20 || moves < 20 {
		t.Errorf("the corpus pushed a bound into %d aggregates and moved %d sorts below a projection, want ≥ 20 each", topks, moves)
	}
	if probes < 20 || filtered < 20 {
		t.Errorf("the corpus planned %d CrowdProbes without a filter and %d with one, want ≥ 20 each", probes, filtered)
	}
	// The shapes the push-downs must get right, whatever the draw.
	for _, sql := range []string{
		"SELECT v AS g2, id FROM s ORDER BY g2 DESC, id LIMIT 7",
		"SELECT id, k FROM s ORDER BY k, v DESC LIMIT 10 OFFSET 5",
		"SELECT id, v * 2 AS dbl FROM s ORDER BY dbl LIMIT 5",
		"SELECT id, v * 2 AS dbl FROM s ORDER BY id DESC LIMIT 4",
		"SELECT id FROM s ORDER BY v LIMIT 0",
		"SELECT DISTINCT k FROM s ORDER BY k DESC LIMIT 2",
		"SELECT k, COUNT(*) FROM s GROUP BY k ORDER BY k LIMIT 3",
		"SELECT g, SUM(v) AS total FROM s GROUP BY g HAVING COUNT(*) > 30 ORDER BY total DESC, g LIMIT 2 OFFSET 1",
		"SELECT g FROM s GROUP BY g ORDER BY MAX(k), AVG(f) DESC LIMIT 4",
		"SELECT g, k, COUNT(*) FROM s GROUP BY g, k ORDER BY COUNT(*) DESC LIMIT 5",
		"SELECT g, SUM(f) FROM s GROUP BY g ORDER BY -g LIMIT 3",
		"SELECT id, v FROM s ORDER BY v DESC, id LIMIT 3",
		"SELECT id, c FROM s ORDER BY c DESC, id LIMIT 5 OFFSET 2",
		"SELECT id FROM s WHERE c > 'c2' ORDER BY v, id LIMIT 4",
		"SELECT c, COUNT(*) FROM s GROUP BY c ORDER BY COUNT(*) DESC, c LIMIT 2",
	} {
		for _, batch := range []int{1, 7, 256} {
			checkStopAfter(t, h, sql, batch)
		}
	}
}

func FuzzStopAfter(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 4, 0, 1, 1}, uint8(1))
	f.Add([]byte{2, 2, 0, 1, 3, 2, 9, 1, 3}, uint8(7))
	f.Add([]byte{1, 1, 2, 0, 5}, uint8(0))
	h := setupStopAfter(f)
	f.Fuzz(func(t *testing.T, choices []byte, batch uint8) {
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			c := int(choices[0])
			choices = choices[1:]
			return c % n
		}
		checkStopAfter(t, h, stopAfterQuery(pick), int(batch%9))
	})
}
