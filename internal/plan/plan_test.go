package plan

import (
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/parser"
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
	if tab, ok := cat.Table("Room"); ok {
		tab.SetRowCount(10)
	}
	return cat
}

func build(t *testing.T, cat *catalog.Catalog, sql string) Node {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(stmt.(*parser.Select), cat)
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	return n
}

func TestBuildSimpleSelect(t *testing.T) {
	cat := testCatalog(t)
	n := build(t, cat, "SELECT title FROM Talk WHERE nb_attendees > 10")
	proj, ok := n.(*Project)
	if !ok {
		t.Fatalf("root: %T", n)
	}
	if len(proj.Schema()) != 1 || proj.Schema()[0].Name != "title" {
		t.Errorf("schema: %v", proj.Schema())
	}
	if _, ok := proj.Input.(*Filter); !ok {
		t.Errorf("filter expected below project: %T", proj.Input)
	}
}

func TestBuildStarExpansion(t *testing.T) {
	cat := testCatalog(t)
	n := build(t, cat, "SELECT * FROM Talk")
	if got := len(n.Schema()); got != 3 {
		t.Errorf("star columns: %d", got)
	}
	n = build(t, cat, "SELECT t.* FROM Talk t JOIN Room r ON r.rtitle = t.title")
	if got := len(n.Schema()); got != 3 {
		t.Errorf("t.* columns: %d", got)
	}
}

func TestBuildAskColumnsMarking(t *testing.T) {
	cat := testCatalog(t)
	n := build(t, cat, "SELECT abstract FROM Talk WHERE title = 'CrowdDB'")
	probe := findProbe(n, "Talk")
	if probe == nil {
		t.Fatal("no Talk probe")
	}
	if len(probe.AskColumns) != 1 || probe.AskColumns[0] != "abstract" {
		t.Errorf("ask columns: %v (only referenced crowd columns)", probe.AskColumns)
	}
	// Star references everything.
	n = build(t, cat, "SELECT * FROM Talk")
	probe = findProbe(n, "Talk")
	if probe == nil || len(probe.AskColumns) != 2 {
		t.Errorf("star must ask all crowd columns: %v", probe)
	}
	// Predicate-only references count too.
	n = build(t, cat, "SELECT title FROM Talk WHERE nb_attendees > 50")
	probe = findProbe(n, "Talk")
	if probe == nil || len(probe.AskColumns) != 1 || probe.AskColumns[0] != "nb_attendees" {
		t.Errorf("predicate crowd column must be asked: %v", probe)
	}
	// IS CNULL asks about the crowdsourcing state; it must not probe, so a
	// closed-world table is read by a plain Scan.
	n = build(t, cat, "SELECT title FROM Talk WHERE abstract IS CNULL")
	if probe := findProbe(n, "Talk"); probe != nil || findScan(n, "Talk") == nil {
		t.Errorf("IS CNULL must not trigger probing: %v", probe)
	}
	// A CROWD table is always probed: its open world may hold more tuples.
	n = build(t, cat, "SELECT name FROM NotableAttendee")
	if probe := findProbe(n, "NotableAttendee"); probe == nil || len(probe.AskColumns) != 0 || probe.Solicit != -1 {
		t.Errorf("a CROWD table reads through an unbounded probe with nothing to ask: %v", probe)
	}
}

func findProbe(n Node, table string) *CrowdProbe {
	if p, ok := n.(*CrowdProbe); ok && strings.EqualFold(p.Scan.Table.Name, table) {
		return p
	}
	for _, c := range n.Children() {
		if p := findProbe(c, table); p != nil {
			return p
		}
	}
	return nil
}

func findScan(n Node, table string) *Scan {
	if s, ok := n.(*Scan); ok {
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

func TestBuildJoin(t *testing.T) {
	cat := testCatalog(t)
	n := build(t, cat, `SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`)
	proj := n.(*Project)
	j, ok := proj.Input.(*Join)
	if !ok {
		t.Fatalf("join expected: %T", proj.Input)
	}
	if len(j.Schema()) != 5 {
		t.Errorf("join schema: %v", j.Schema())
	}
}

func TestBuildAggregate(t *testing.T) {
	cat := testCatalog(t)
	n := build(t, cat, `SELECT title, COUNT(*) AS c FROM NotableAttendee GROUP BY title HAVING COUNT(*) > 2 ORDER BY c DESC LIMIT 3`)
	lim, ok := n.(*Limit)
	if !ok {
		t.Fatalf("limit at root: %T", n)
	}
	srt := lim.Input.(*Sort)
	agg, ok := srt.Input.(*Aggregate)
	if !ok {
		t.Fatalf("aggregate: %T", srt.Input)
	}
	if agg.Schema()[1].Name != "c" {
		t.Errorf("alias schema: %v", agg.Schema())
	}
	if agg.Schema()[1].Type != sqltypes.TypeInt {
		t.Errorf("COUNT type: %v", agg.Schema()[1].Type)
	}
}

func TestBuildErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT x FROM Nope",
		"SELECT zzz FROM Talk",
		"SELECT t.title FROM Talk",                                       // alias t not defined
		"SELECT title FROM Talk t, Talk t",                               // duplicate alias
		"SELECT title, COUNT(*) FROM Talk",                               // ungrouped column
		"SELECT title FROM Talk HAVING COUNT(*) > 1",                     // having without group
		"SELECT title FROM Talk, NotableAttendee",                        // ambiguous title
		"SELECT name FROM Talk t JOIN NotableAttendee n ON zz = t.title", // unknown on col
	}
	for _, sql := range bad {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Build(stmt.(*parser.Select), cat); err == nil {
			t.Errorf("Build(%q) should fail", sql)
		}
	}
}

func TestAmbiguousUnqualifiedNotAsked(t *testing.T) {
	cat := testCatalog(t)
	// title exists in both tables; the unqualified WHERE reference binds
	// against the join schema and must be rejected as ambiguous.
	stmt, _ := parser.Parse("SELECT t.title FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE title = 'x'")
	if _, err := Build(stmt.(*parser.Select), cat); err == nil {
		t.Error("ambiguous where column must fail")
	}
	// But ORDER BY binds against the projected schema, where it is unique.
	stmt, _ = parser.Parse("SELECT t.title FROM Talk t JOIN NotableAttendee n ON n.title = t.title ORDER BY title")
	if _, err := Build(stmt.(*parser.Select), cat); err != nil {
		t.Errorf("order key over projection must resolve: %v", err)
	}
}

func TestExplainTree(t *testing.T) {
	cat := testCatalog(t)
	n := build(t, cat, `SELECT title FROM Talk WHERE nb_attendees > 10 ORDER BY CROWDORDER(title, 'better?') LIMIT 5`)
	out := ExplainTree(n)
	for _, want := range []string{"Limit(5)", "CrowdSort", "Project(title)", "Filter",
		"CrowdProbe(Talk) ask=[nb_attendees]\n", "      Scan(Talk)\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestFindCol(t *testing.T) {
	schema := []Col{{Table: "t", Name: "a"}, {Table: "u", Name: "a"}, {Table: "t", Name: "b"}}
	if _, err := FindCol(schema, "", "a"); err == nil {
		t.Error("ambiguous must fail")
	}
	i, err := FindCol(schema, "u", "a")
	if err != nil || i != 1 {
		t.Errorf("qualified: %d %v", i, err)
	}
	i, err = FindCol(schema, "", "b")
	if err != nil || i != 2 {
		t.Errorf("unique unqualified: %d %v", i, err)
	}
	if _, err := FindCol(schema, "", "zzz"); err == nil {
		t.Error("missing must fail")
	}
}
