package exec

import (
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// harness builds a crowd-free engine substrate: catalog + store (with
// the memo table, which crowd comparisons write) + data.
type harness struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return &harness{cat: catalog.New(), store: memoStore(t, 1)}
}

// memoStore opens an in-memory store over shards holding the memo table.
func memoStore(t testing.TB, shards int) *storage.Store {
	t.Helper()
	st, err := storage.NewStoreOptions("", storage.Options{Shards: shards})
	if err == nil {
		err = CreateMemoTable(st)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func (h *harness) createTable(t *testing.T, tab *catalog.Table) {
	t.Helper()
	if err := h.cat.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := h.store.CreateTable(tab.Name, tab.PrimaryKeyIndexes()); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) insert(t *testing.T, table string, rows ...Row) {
	t.Helper()
	tab, _ := h.cat.Table(table)
	for _, r := range rows {
		if _, err := storeInsert(h.store, table, r); err != nil {
			t.Fatal(err)
		}
		tab.AddRowCount(1)
	}
}

// storeInsert, storeUpdate and storeDelete commit one row change in a
// transaction of their own.
func storeInsert(st *storage.Store, table string, row Row) (storage.RowID, error) {
	tx := st.Begin()
	defer tx.Commit()
	return tx.Insert(table, row)
}

func storeUpdate(st *storage.Store, table string, id storage.RowID, row Row) error {
	tx := st.Begin()
	defer tx.Commit()
	_, _, err := tx.Update(table, id, func(Row) (Row, error) { return row.Clone(), nil })
	return err
}

func storeDelete(st *storage.Store, table string, id storage.RowID) error {
	tx := st.Begin()
	defer tx.Commit()
	_, err := tx.Delete(table, id)
	return err
}

// run compiles and executes a SELECT without a crowd.
func (h *harness) run(t *testing.T, sql string, opts optimizer.Options) []Row {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	opt, err := optimizer.Optimize(root, h.cat, opts)
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	op, err := Build(opt.Root, ctx)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	rows, err := Run(op, ctx)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func str(s string) sqltypes.Value { return sqltypes.NewString(s) }
func num(i int64) sqltypes.Value  { return sqltypes.NewInt(i) }

func setupConference(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "Talk",
		Columns: []catalog.Column{
			{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "room", Type: sqltypes.TypeString},
			{Name: "nb_attendees", Type: sqltypes.TypeInt},
		},
	})
	h.createTable(t, &catalog.Table{
		Name: "Attendee",
		Columns: []catalog.Column{
			{Name: "name", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "talk", Type: sqltypes.TypeString},
		},
	})
	h.insert(t, "Talk",
		Row{str("CrowdDB"), str("Grand A"), num(120)},
		Row{str("Qurk"), str("Grand B"), num(80)},
		Row{str("PIQL"), str("Grand A"), num(60)},
		Row{str("Spark"), str("Grand C"), num(200)},
	)
	h.insert(t, "Attendee",
		Row{str("alice"), str("CrowdDB")},
		Row{str("bob"), str("CrowdDB")},
		Row{str("carol"), str("Qurk")},
		Row{str("dave"), str("Spark")},
		Row{str("erin"), str("Spark")},
		Row{str("frank"), str("Spark")},
	)
	return h
}

func TestSelectWhereProject(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT title FROM Talk WHERE nb_attendees > 100", optimizer.Options{})
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	got := map[string]bool{rows[0][0].Str(): true, rows[1][0].Str(): true}
	if !got["CrowdDB"] || !got["Spark"] {
		t.Errorf("wrong rows: %v", rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT title FROM Talk ORDER BY nb_attendees DESC LIMIT 2 OFFSET 1", optimizer.Options{})
	if len(rows) != 2 || rows[0][0].Str() != "CrowdDB" || rows[1][0].Str() != "Qurk" {
		t.Errorf("rows: %v", rows)
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	h := setupConference(t)
	sqls := []string{
		// equi join -> hash join
		"SELECT a.name, t.room FROM Attendee a JOIN Talk t ON a.talk = t.title ORDER BY a.name",
		// non-equi ON -> nested loop
		"SELECT a.name FROM Attendee a JOIN Talk t ON a.talk = t.title AND t.nb_attendees > 100 ORDER BY a.name",
	}
	want := [][]string{
		{"alice", "bob", "carol", "dave", "erin", "frank"},
		{"alice", "bob", "dave", "erin", "frank"},
	}
	for i, sql := range sqls {
		rows := h.run(t, sql, optimizer.Options{})
		var names []string
		for _, r := range rows {
			names = append(names, r[0].Str())
		}
		if strings.Join(names, ",") != strings.Join(want[i], ",") {
			t.Errorf("%s:\n got %v\nwant %v", sql, names, want[i])
		}
	}
}

func TestLeftJoin(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT t.title, a.name FROM Talk t LEFT JOIN Attendee a ON a.talk = t.title WHERE t.title = 'PIQL'", optimizer.Options{})
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if !rows[0][1].IsNull() {
		t.Errorf("unmatched left join must null-extend: %v", rows[0])
	}
}

func TestCrossJoinCount(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT t.title, a.name FROM Talk t, Attendee a", optimizer.Options{})
	if len(rows) != 24 {
		t.Errorf("cross join: %d rows", len(rows))
	}
}

func TestAggregates(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT COUNT(*), SUM(nb_attendees), AVG(nb_attendees), MIN(title), MAX(nb_attendees) FROM Talk", optimizer.Options{})
	if len(rows) != 1 {
		t.Fatal("one row expected")
	}
	r := rows[0]
	if r[0].Int() != 4 || r[1].Int() != 460 || r[2].Float() != 115 || r[3].Str() != "CrowdDB" || r[4].Int() != 200 {
		t.Errorf("aggregates: %v", r)
	}
}

func TestGroupByHaving(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, `SELECT talk, COUNT(*) AS c FROM Attendee GROUP BY talk HAVING COUNT(*) >= 2 ORDER BY c DESC, talk`, optimizer.Options{})
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	if rows[0][0].Str() != "Spark" || rows[0][1].Int() != 3 {
		t.Errorf("first group: %v", rows[0])
	}
	if rows[1][0].Str() != "CrowdDB" || rows[1][1].Int() != 2 {
		t.Errorf("second group: %v", rows[1])
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT COUNT(*), SUM(nb_attendees) FROM Talk WHERE nb_attendees > 9999", optimizer.Options{})
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty aggregate: %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT DISTINCT room FROM Talk ORDER BY room", optimizer.Options{})
	if len(rows) != 3 {
		t.Errorf("distinct: %v", rows)
	}
}

func TestAggregatesSkipUnknowns(t *testing.T) {
	h := setupConference(t)
	h.insert(t, "Talk", Row{str("NullTalk"), str("X"), sqltypes.Null()})
	h.insert(t, "Talk", Row{str("CNullTalk"), str("X"), sqltypes.CNull()})
	rows := h.run(t, "SELECT COUNT(nb_attendees), COUNT(*) FROM Talk", optimizer.Options{})
	if rows[0][0].Int() != 4 || rows[0][1].Int() != 6 {
		t.Errorf("NULL/CNULL skip: %v", rows[0])
	}
}

// The optimizer must never change results on crowd-free data: run a query
// battery with all rules on and all rules off and compare.
func TestOptimizerPlanEquivalence(t *testing.T) {
	h := setupConference(t)
	queries := []string{
		"SELECT title FROM Talk WHERE nb_attendees > 50 AND room = 'Grand A' ORDER BY title",
		"SELECT a.name, t.room FROM Attendee a JOIN Talk t ON a.talk = t.title WHERE t.nb_attendees >= 80 ORDER BY a.name",
		"SELECT t.title FROM Talk t, Attendee a WHERE a.talk = t.title AND a.name = 'alice'",
		"SELECT talk, COUNT(*) FROM Attendee GROUP BY talk ORDER BY talk",
		"SELECT DISTINCT room FROM Talk ORDER BY room LIMIT 2",
		"SELECT title FROM Talk ORDER BY nb_attendees LIMIT 3",
	}
	naive := optimizer.Options{DisablePushdown: true, DisableStopAfter: true, DisableJoinReorder: true}
	for _, sql := range queries {
		a := h.run(t, sql, optimizer.Options{})
		b := h.run(t, sql, naive)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("optimizer changed results for %q:\n opt:   %v\n naive: %v", sql, a, b)
		}
	}
}

func TestStopAfterLimitsScan(t *testing.T) {
	h := setupConference(t)
	rows := h.run(t, "SELECT title FROM Talk LIMIT 2", optimizer.Options{})
	if len(rows) != 2 {
		t.Errorf("limit: %v", rows)
	}
}

func TestCompareCacheRoundTrip(t *testing.T) {
	c := NewCompareCache()
	c.PutEqual("q", "a", "b", true)
	c.put(kindOrder, "q2", "x", "y", "y")
	// Symmetric lookup.
	if v, ok := c.GetEqual("q", "b", "a"); !ok || !v {
		t.Error("equal lookup must be symmetric")
	}
	if w, ok := c.GetOrder("q2", "y", "x"); !ok || w != "y" {
		t.Error("order lookup must be symmetric")
	}
	// Resident is not stored: only the compare broker writes the memo
	// table.
	st := memoStore(t, 1)
	c2 := NewCompareCache()
	if err := c2.Load(st); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.GetEqual("q", "a", "b"); ok {
		t.Error("a put reached the memo table")
	}
}
