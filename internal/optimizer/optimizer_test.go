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
	if v, ok := scan.ProbeKeys["title"]; !ok || v.Str() != "CrowdDB" {
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
	scan := findScan(res.Root, "Talk")
	if scan.Filter == nil || !strings.Contains(scan.Filter.String(), "nb_attendees") {
		t.Errorf("plain predicate must still push: %v", scan.Filter)
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
	// Through a crowd sort the bound still caps crowd acquisition.
	res = optimize(t, cat, `SELECT name FROM NotableAttendee ORDER BY CROWDORDER(name, 'better?') LIMIT 10`, Options{})
	scan = findScan(res.Root, "NotableAttendee")
	if scan.StopAfter != 10 {
		t.Errorf("acquisition bound through sort: %d", scan.StopAfter)
	}
	if !res.Bounded {
		t.Error("limit must bound the crowd table")
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
	if s, ok := j.Right.(*plan.Scan); !ok || !s.Table.Crowd {
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
			if s, ok := jn.Right.(*plan.Scan); ok && s.Table.Crowd {
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
	if s, ok := j.Left.(*plan.Scan); !ok || !s.Table.Crowd {
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
