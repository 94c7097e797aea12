package optimizer

import (
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, tab := range []*catalog.Table{
		{
			Name: "Talk",
			Columns: []catalog.Column{
				{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
				{Name: "abstract", Type: sqltypes.TypeString, Crowd: true},
				{Name: "nb_attendees", Type: sqltypes.TypeInt, Crowd: true},
			},
		},
		{
			Name:  "NotableAttendee",
			Crowd: true,
			Columns: []catalog.Column{
				{Name: "name", Type: sqltypes.TypeString, PrimaryKey: true},
				{Name: "title", Type: sqltypes.TypeString},
			},
			ForeignKeys: []catalog.ForeignKey{{Columns: []string{"title"}, RefTable: "Talk", RefColumns: []string{"title"}}},
		},
		{
			Name: "Room",
			Columns: []catalog.Column{
				{Name: "rtitle", Type: sqltypes.TypeString, PrimaryKey: true},
				{Name: "capacity", Type: sqltypes.TypeInt},
			},
		},
	} {
		if err := cat.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	if tab, ok := cat.Table("Talk"); ok {
		tab.SetRowCount(100)
	}
	if tab, ok := cat.Table("NotableAttendee"); ok {
		tab.SetRowCount(5)
	}
	if tab, ok := cat.Table("Room"); ok {
		tab.SetRowCount(10)
	}
	return cat
}

func optimize(t *testing.T, cat *catalog.Catalog, sql string, opts Options) *Result {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.Build(stmt.(*parser.Select), cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(root, cat, opts)
	if err != nil {
		t.Fatalf("Optimize(%q): %v", sql, err)
	}
	return res
}

func findScan(n plan.Node, table string) *plan.Scan {
	if s, ok := n.(*plan.Scan); ok {
		if strings.EqualFold(s.Table.Name, table) {
			return s
		}
		return nil
	}
	for _, c := range n.Children() {
		if s := findScan(c, table); s != nil {
			return s
		}
	}
	return nil
}

func findProbe(n plan.Node, table string) *plan.CrowdProbe {
	if p, ok := n.(*plan.CrowdProbe); ok && strings.EqualFold(p.Scan.Table.Name, table) {
		return p
	}
	for _, c := range n.Children() {
		if p := findProbe(c, table); p != nil {
			return p
		}
	}
	return nil
}

func TestPredicatePushdown(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT abstract FROM Talk WHERE title = 'CrowdDB'`, Options{})
	scan := findScan(res.Root, "Talk")
	if scan.Filter == nil {
		t.Fatal("predicate must be pushed into the scan")
	}
	// No Filter node should remain.
	if strings.Contains(plan.ExplainTree(res.Root), "Filter(") {
		t.Errorf("residual filter:\n%s", plan.ExplainTree(res.Root))
	}
	// Probe key derived from the equality.
	if v, ok := scan.ProbeKeys["title"]; !ok || v.Val.Str() != "CrowdDB" {
		t.Errorf("probe keys: %v", scan.ProbeKeys)
	}
}

func TestCrowdPredicateNotPushed(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT title FROM Talk WHERE title ~= 'crowd db' AND nb_attendees > 10`, Options{})
	out := plan.ExplainTree(res.Root)
	if !strings.Contains(out, "CrowdFilter") {
		t.Errorf("crowd predicate must stay in a CrowdFilter:\n%s", out)
	}
	// nb_attendees is a crowd column: its plain predicate pushes to the
	// probe, which decides it once the CNULLs are filled.
	probe := findProbe(res.Root, "Talk")
	if probe == nil || probe.Filter == nil || !strings.Contains(probe.Filter.String(), "nb_attendees") {
		t.Errorf("plain predicate must still push: %v", probe)
	}
	if scan := findScan(res.Root, "Talk"); scan.Filter != nil {
		t.Errorf("a conjunct that reads a crowd column must not reach the scan: %v", scan.Filter)
	}
	// A conjunct over stored columns only goes on down to the scan.
	res = optimize(t, cat, `SELECT abstract FROM Talk WHERE title > 'M' AND nb_attendees > 10`, Options{})
	probe, scan := findProbe(res.Root, "Talk"), findScan(res.Root, "Talk")
	if probe.Filter == nil || probe.Filter.String() != "(nb_attendees > 10)" ||
		scan.Filter == nil || scan.Filter.String() != "(title > 'M')" {
		t.Errorf("conjuncts split wrong:\n%s", plan.ExplainTree(res.Root))
	}
}

func TestJoinConditionPushdownFromWhere(t *testing.T) {
	cat := testCatalog(t)
	// Comma join with WHERE equality: pushdown converts it to an inner join.
	res := optimize(t, cat, `SELECT t.title FROM Talk t, Room r WHERE r.rtitle = t.title AND r.capacity > 5`, Options{})
	out := plan.ExplainTree(res.Root)
	if !strings.Contains(out, "InnerJoin") {
		t.Errorf("cross join must become inner join:\n%s", out)
	}
	room := findScan(res.Root, "Room")
	if room.Filter == nil {
		t.Error("capacity predicate must push to Room scan")
	}
}

func TestStopAfterPushdown(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT title FROM Talk LIMIT 7`, Options{})
	scan := findScan(res.Root, "Talk")
	if scan.StopAfter != 7 {
		t.Errorf("stopafter: %d", scan.StopAfter)
	}
	// Through a crowd sort the bound still caps crowd acquisition: the
	// probe solicits at most that many tuples, and its scan reads them all.
	res = optimize(t, cat, `SELECT name FROM NotableAttendee ORDER BY CROWDORDER(name, 'better?') LIMIT 10`, Options{})
	probe := findProbe(res.Root, "NotableAttendee")
	if probe.Solicit != 10 {
		t.Errorf("acquisition bound through sort: %d", probe.Solicit)
	}
	if probe.Scan.StopAfter != -1 {
		t.Errorf("a CROWD table's scan reads every stored row: stopafter %d", probe.Scan.StopAfter)
	}
	if !res.Bounded {
		t.Error("limit must bound the crowd table")
	}
}

// TestStopAfterThroughProbe: a closed-world probe passes an exact bound to
// its scan when it has no filter left to apply, and no other bound: below
// a Sort every stored row must reach the sort, and a crowd conjunct may
// reject rows the bound would have counted.
func TestStopAfterThroughProbe(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		{`SELECT title, abstract FROM Talk LIMIT 3`, 3},
		{`SELECT title, abstract FROM Talk WHERE title > 'M' LIMIT 3`, 3},
		{`SELECT title, abstract FROM Talk ORDER BY title LIMIT 3`, -1},
		{`SELECT title FROM Talk WHERE nb_attendees > 10 LIMIT 3`, -1},
	} {
		res := optimize(t, cat, tc.sql, Options{})
		probe := findProbe(res.Root, "Talk")
		if probe.Scan.StopAfter != tc.want || probe.Solicit != -1 {
			t.Errorf("%s: scan stopafter %d, solicit %d, want %d and -1\n%s",
				tc.sql, probe.Scan.StopAfter, probe.Solicit, tc.want, plan.ExplainTree(res.Root))
		}
	}
}

func findSort(n plan.Node) *plan.Sort {
	if s, ok := n.(*plan.Sort); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findSort(c); s != nil {
			return s
		}
	}
	return nil
}

// TestStopAfterOnSort: a machine-keyed Sort directly under a Limit (a
// Project may sit between) is told how many rows of its output are read,
// LIMIT + OFFSET. A CROWDORDER sort never is — it needs every row to pick
// its pivots — nor a Sort under no LIMIT, nor any Sort with the rule
// disabled.
func TestStopAfterOnSort(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct {
		sql  string
		opts Options
		want int64
	}{
		{`SELECT rtitle FROM Room ORDER BY capacity DESC LIMIT 3`, Options{}, 3},
		{`SELECT rtitle, capacity FROM Room ORDER BY capacity, rtitle LIMIT 3 OFFSET 4`, Options{}, 7},
		{`SELECT capacity, COUNT(*) FROM Room GROUP BY capacity ORDER BY COUNT(*) DESC LIMIT 2`, Options{}, 2},
		{`SELECT rtitle FROM Room ORDER BY capacity LIMIT 0`, Options{}, 0},
		{`SELECT rtitle FROM Room ORDER BY capacity`, Options{}, -1},
		{`SELECT rtitle FROM Room ORDER BY capacity OFFSET 2`, Options{}, -1},
		{`SELECT DISTINCT capacity FROM Room ORDER BY capacity LIMIT 3`, Options{}, 3}, // the Sort is above the Distinct
		{`SELECT rtitle FROM Room ORDER BY capacity DESC LIMIT 3`, Options{DisableStopAfter: true}, -1},
		{`SELECT name FROM NotableAttendee ORDER BY CROWDORDER(name, 'better?') LIMIT 10`, Options{}, -1},
	} {
		res := optimize(t, cat, tc.sql, tc.opts)
		s := findSort(res.Root)
		if s == nil {
			t.Fatalf("%s: no Sort in\n%s", tc.sql, plan.ExplainTree(res.Root))
		}
		if s.StopAfter != tc.want {
			t.Errorf("%s: Sort.StopAfter = %d, want %d\n%s", tc.sql, s.StopAfter, tc.want, plan.ExplainTree(res.Root))
		}
		if has := strings.Contains(s.Explain(), "stopafter="); has != (tc.want >= 0) {
			t.Errorf("%s: Sort explains as %q", tc.sql, s.Explain())
		}
	}
}

// TestStopAfterMovesSortAndBoundsAggregate: a bounded machine-keyed Sort
// moves below a Project that copies its keys (aliases rewritten to the
// input column) and hands its keys and bound to an Aggregate under it. It
// stays put over a Project that computes a key or asks the crowd, over
// DISTINCT, without a bound, and with the rule off.
func TestStopAfterMovesSortAndBoundsAggregate(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct {
		sql  string
		opts Options
		want string
	}{
		{`SELECT rtitle, capacity AS c FROM Room ORDER BY c DESC LIMIT 3`, Options{},
			"Limit(3)\n  Project(rtitle, capacity AS c)\n    Sort(capacity DESC) stopafter=3\n      Scan(Room)\n"},
		{`SELECT rtitle, capacity * 2 AS c FROM Room ORDER BY rtitle LIMIT 3`, Options{},
			"Limit(3)\n  Project(rtitle, (capacity * 2) AS c)\n    Sort(rtitle) stopafter=3\n      Scan(Room)\n"},
		{`SELECT rtitle, capacity * 2 AS c FROM Room ORDER BY c LIMIT 3`, Options{},
			"Limit(3)\n  Sort(c) stopafter=3\n    Project(rtitle, (capacity * 2) AS c)\n      Scan(Room)\n"},
		{`SELECT rtitle, CROWDEQUAL(rtitle, 'x') FROM Room ORDER BY rtitle LIMIT 3`, Options{},
			"Limit(3)\n  Sort(rtitle) stopafter=3\n    Project(rtitle, CROWDEQUAL(rtitle, 'x'))\n      Scan(Room)\n"},
		{`SELECT DISTINCT rtitle FROM Room ORDER BY rtitle LIMIT 3`, Options{},
			"Limit(3)\n  Sort(rtitle) stopafter=3\n    Distinct\n      Project(rtitle)\n        Scan(Room)\n"},
		{`SELECT rtitle, capacity AS c FROM Room ORDER BY c DESC`, Options{},
			"Sort(c DESC)\n  Project(rtitle, capacity AS c)\n    Scan(Room)\n"},
		{`SELECT rtitle, capacity AS c FROM Room ORDER BY c DESC LIMIT 3`, Options{DisableStopAfter: true},
			"Limit(3)\n  Sort(c DESC)\n    Project(rtitle, capacity AS c)\n      Scan(Room)\n"},
		{`SELECT capacity, COUNT(*) FROM Room GROUP BY capacity ORDER BY COUNT(*) DESC LIMIT 2 OFFSET 1`, Options{},
			"Limit(2 offset 1)\n  Sort(COUNT(*) DESC) stopafter=3\n    Aggregate(group=[capacity]) topk=3\n      Scan(Room)\n"},
		{`SELECT capacity FROM Room GROUP BY capacity ORDER BY MAX(rtitle) LIMIT 0`, Options{},
			"Limit(0)\n  Project(Room.capacity)\n    Sort(MAX(rtitle)) stopafter=0\n      Aggregate(group=[capacity]) topk=0\n        Scan(Room)\n"},
		{`SELECT capacity, COUNT(*) FROM Room GROUP BY capacity ORDER BY COUNT(*) DESC LIMIT 2`, Options{DisableStopAfter: true},
			"Limit(2)\n  Sort(COUNT(*) DESC)\n    Aggregate(group=[capacity])\n      Scan(Room)\n"},
	} {
		if got := plan.ExplainTree(optimize(t, cat, tc.sql, tc.opts).Root); got != tc.want {
			t.Errorf("%s:\n%swant\n%s", tc.sql, got, tc.want)
		}
	}
}

func TestStopAfterNotPushedThroughFilterForStoredTables(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT rtitle FROM Room WHERE capacity > 3 LIMIT 2`, Options{})
	scan := findScan(res.Root, "Room")
	// The predicate pushed into the scan; the limit may then apply to the
	// filtered scan output, which is safe. What must NOT happen is losing
	// rows: the Limit node must still exist at the top.
	if _, ok := res.Root.(*plan.Limit); !ok {
		t.Errorf("limit node must remain at root: %T", res.Root)
	}
	_ = scan
}

func TestUnboundedCrowdScanRejected(t *testing.T) {
	cat := testCatalog(t)
	stmt, _ := parser.Parse(`SELECT name FROM NotableAttendee`)
	root, err := plan.Build(stmt.(*parser.Select), cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(root, cat, Options{}); err == nil {
		t.Fatal("unbounded crowd scan must be rejected")
	}
	res, err := Optimize(root, cat, Options{AllowUnbounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded || len(res.Warnings) == 0 {
		t.Errorf("AllowUnbounded must warn: %+v", res.Warnings)
	}
}

func TestBoundedByProbeKey(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT name FROM NotableAttendee WHERE title = 'CrowdDB'`, Options{})
	if !res.Bounded {
		t.Errorf("key predicate must bound the crowd scan: %v", res.Warnings)
	}
}

func TestCrowdJoinBoundsInner(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat,
		`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`, Options{})
	if !res.Bounded {
		t.Errorf("join binding must bound the crowd inner: %v", res.Warnings)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("no warnings expected: %v", res.Warnings)
	}
}

// TestBoundedMeansFinitePredictedCost: bounded is the cost model's finite
// price, and the CrowdJoin binding the price uses is the executor's. A LEFT
// JOIN is no CrowdJoin, so its crowd inner is unbounded; an inner join that
// equates the crowd column with an expression over the outer side is one.
func TestBoundedMeansFinitePredictedCost(t *testing.T) {
	cat := testCatalog(t)
	left := `SELECT t.title, n.name FROM Talk t LEFT JOIN NotableAttendee n ON n.title = t.title`
	stmt, _ := parser.Parse(left)
	root, err := plan.Build(stmt.(*parser.Select), cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(root, cat, Options{}); err == nil || !strings.Contains(err.Error(), "CROWD table n is unbounded") {
		t.Errorf("%s: want the unbounded error, got %v", left, err)
	}
	res := optimize(t, cat, left, Options{AllowUnbounded: true})
	if res.Bounded || !res.Predicted.IsUnbounded() || len(res.Warnings) != 1 {
		t.Errorf("%s: bounded %v, predicted %v, warnings %v", left, res.Bounded, res.Predicted, res.Warnings)
	}

	byColumn := optimize(t, cat, `SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`, Options{})
	byExpr := optimize(t, cat, `SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = LOWER(t.title)`, Options{})
	if !byExpr.Bounded || len(byExpr.Warnings) != 0 || byExpr.Predicted.Cents != byColumn.Predicted.Cents {
		t.Errorf("expression-keyed CrowdJoin: bounded %v, warnings %v, predicted %v (column-keyed %v)",
			byExpr.Bounded, byExpr.Warnings, byExpr.Predicted, byColumn.Predicted)
	}
	j := topJoin(byExpr.Root)
	probe, key, col, residual, ok := j.CrowdJoin()
	if !ok || probe.Scan.Alias != "n" || key.String() != "LOWER(t.title)" || col != "title" || residual != nil {
		t.Errorf("CrowdJoin binding: %v %v %q %v %v", probe, key, col, residual, ok)
	}
}

func TestJoinReorderPutsCrowdTableInner(t *testing.T) {
	cat := testCatalog(t)
	// Written with the crowd table first; the optimizer must reorder so the
	// bounded Talk side drives the probe.
	res := optimize(t, cat,
		`SELECT t.title, n.name FROM NotableAttendee n JOIN Talk t ON n.title = t.title`, Options{})
	j := topJoin(res.Root)
	if j == nil {
		t.Fatal("no join in plan")
	}
	if p, ok := j.Right.(*plan.CrowdProbe); !ok || !p.Scan.Table.Crowd {
		t.Errorf("crowd table must be the join inner:\n%s", plan.ExplainTree(res.Root))
	}
	if !res.Bounded {
		t.Errorf("reordered join must be bounded: %v", res.Warnings)
	}
}

func topJoin(n plan.Node) *plan.Join {
	if j, ok := n.(*plan.Join); ok {
		return j
	}
	for _, c := range n.Children() {
		if j := topJoin(c); j != nil {
			return j
		}
	}
	return nil
}

func TestJoinReorderThreeWay(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat,
		`SELECT t.title FROM NotableAttendee n, Talk t, Room r WHERE n.title = t.title AND r.rtitle = t.title`, Options{})
	// Greedy order: Room (10 rows) or Talk (100) first, crowd table last.
	j := res.Root
	for {
		ch := j.Children()
		if len(ch) == 0 {
			break
		}
		if jn, ok := j.(*plan.Join); ok {
			if p, ok := jn.Right.(*plan.CrowdProbe); ok && p.Scan.Table.Crowd {
				if !res.Bounded {
					t.Errorf("bounded expected: %v", res.Warnings)
				}
				return
			}
		}
		j = ch[0]
	}
	t.Errorf("crowd table must end up innermost:\n%s", plan.ExplainTree(res.Root))
}

func TestCrossProductWarning(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT t.title FROM Talk t, Room r`, Options{})
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "cross product") {
			found = true
		}
	}
	if !found {
		t.Errorf("cross product must warn: %v", res.Warnings)
	}
}

func TestAblationOptions(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT abstract FROM Talk WHERE title = 'CrowdDB'`,
		Options{DisablePushdown: true})
	scan := findScan(res.Root, "Talk")
	if scan.Filter != nil {
		t.Error("pushdown disabled but filter moved")
	}
	res = optimize(t, cat, `SELECT title FROM Talk LIMIT 7`, Options{DisableStopAfter: true})
	scan = findScan(res.Root, "Talk")
	if scan.StopAfter >= 0 {
		t.Error("stopafter disabled but bound pushed")
	}
	res = optimize(t, cat,
		`SELECT t.title FROM NotableAttendee n JOIN Talk t ON n.title = t.title`,
		Options{DisableJoinReorder: true, AllowUnbounded: true})
	j := topJoin(res.Root)
	if p, ok := j.Left.(*plan.CrowdProbe); !ok || !p.Scan.Table.Crowd {
		t.Error("reorder disabled but crowd table moved")
	}
}

func TestCardinalityAnnotations(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT title FROM Talk WHERE title = 'X'`, Options{})
	if len(res.Costs) == 0 {
		t.Fatal("no cardinality annotations")
	}
	scan := findScan(res.Root, "Talk")
	if res.Costs[scan].Rows > 2 {
		t.Errorf("PK equality should predict ~1 row, got %f", res.Costs[scan].Rows)
	}
}
