package parser

import (
	"strings"
	"testing"

	"crowddb/internal/sqltypes"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

// --- DDL, straight from the paper ---

func TestParsePaperExample1(t *testing.T) {
	s := mustParse(t, `CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER );`)
	ct, ok := s.(*CreateTable)
	if !ok {
		t.Fatalf("want CreateTable, got %T", s)
	}
	if ct.Crowd {
		t.Error("Talk is not a CROWD table")
	}
	if len(ct.Columns) != 3 {
		t.Fatalf("want 3 columns, got %d", len(ct.Columns))
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Crowd {
		t.Error("title: PK, not crowd")
	}
	if !ct.Columns[1].Crowd || ct.Columns[1].Type != sqltypes.TypeString {
		t.Error("abstract must be CROWD STRING")
	}
	if !ct.Columns[2].Crowd || ct.Columns[2].Type != sqltypes.TypeInt {
		t.Error("nb_attendees must be CROWD INTEGER")
	}
}

func TestParsePaperExample2(t *testing.T) {
	s := mustParse(t, `CREATE CROWD TABLE NotableAttendee (
		name STRING PRIMARY KEY,
		title STRING,
		FOREIGN KEY (title) REF Talk(title) );`)
	ct := s.(*CreateTable)
	if !ct.Crowd {
		t.Fatal("NotableAttendee must be a CROWD table")
	}
	if len(ct.ForeignKeys) != 1 {
		t.Fatalf("want 1 FK, got %d", len(ct.ForeignKeys))
	}
	fk := ct.ForeignKeys[0]
	if fk.RefTable != "Talk" || fk.Columns[0] != "title" || fk.RefColumns[0] != "title" {
		t.Errorf("FK parsed wrong: %+v", fk)
	}
}

func TestParsePaperExample3(t *testing.T) {
	s := mustParse(t, `SELECT title FROM Talk
		ORDER BY CROWDORDER(p, "Which talk did you like better")
		LIMIT 10;`)
	sel := s.(*Select)
	if sel.Limit != 10 {
		t.Errorf("limit: %d", sel.Limit)
	}
	if len(sel.OrderBy) != 1 {
		t.Fatal("one order key expected")
	}
	fc, ok := sel.OrderBy[0].Expr.(*FuncCall)
	if !ok || fc.Name != "CROWDORDER" {
		t.Fatalf("order key must be CROWDORDER call, got %v", sel.OrderBy[0].Expr)
	}
	if !fc.IsCrowdFunc() {
		t.Error("CROWDORDER must be a crowd func")
	}
	q := fc.Args[1].(*Literal)
	if q.Val.Str() != "Which talk did you like better" {
		t.Errorf("question: %q", q.Val.Str())
	}
}

func TestParseSelectAbstractWhereTitle(t *testing.T) {
	s := mustParse(t, `SELECT abstract FROM paper WHERE title = "CrowdDB"`)
	sel := s.(*Select)
	be := sel.Where.(*BinaryExpr)
	if be.Op != "=" {
		t.Errorf("op %q", be.Op)
	}
	if be.L.(*ColumnRef).Name != "title" {
		t.Error("lhs")
	}
	if be.R.(*Literal).Val.Str() != "CrowdDB" {
		t.Error("rhs")
	}
}

// --- CrowdSQL specifics ---

func TestParseCNullLiteral(t *testing.T) {
	s := mustParse(t, "INSERT INTO Talk (title, abstract) VALUES ('X', CNULL)")
	ins := s.(*Insert)
	lit := ins.Rows[0][1].(*Literal)
	if !lit.Val.IsCNull() {
		t.Error("CNULL literal lost")
	}
}

func TestParseIsCNull(t *testing.T) {
	s := mustParse(t, "SELECT title FROM Talk WHERE abstract IS CNULL")
	sel := s.(*Select)
	isn := sel.Where.(*IsNullExpr)
	if !isn.CNull || isn.Neg {
		t.Errorf("IS CNULL parsed wrong: %+v", isn)
	}
	s = mustParse(t, "SELECT title FROM Talk WHERE abstract IS NOT CNULL")
	if !s.(*Select).Where.(*IsNullExpr).Neg {
		t.Error("IS NOT CNULL")
	}
}

func TestParseCrowdEqualFunction(t *testing.T) {
	s := mustParse(t, `SELECT * FROM company WHERE CROWDEQUAL(name, 'UC Berkeley')`)
	sel := s.(*Select)
	fc := sel.Where.(*FuncCall)
	if fc.Name != "CROWDEQUAL" || len(fc.Args) != 2 {
		t.Fatalf("%+v", fc)
	}
	if !HasCrowdFunc(sel.Where) {
		t.Error("HasCrowdFunc")
	}
}

func TestParseCrowdEqualShorthand(t *testing.T) {
	s := mustParse(t, `SELECT * FROM company WHERE name ~= 'UC Berkeley'`)
	be := s.(*Select).Where.(*BinaryExpr)
	if be.Op != "~=" {
		t.Fatalf("op %q", be.Op)
	}
	if !HasCrowdFunc(s.(*Select).Where) {
		t.Error("~= must count as crowd func")
	}
}

// --- general SQL coverage ---

func TestParseJoin(t *testing.T) {
	s := mustParse(t, `SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE t.nb_attendees > 50`)
	sel := s.(*Select)
	if len(sel.From) != 2 {
		t.Fatalf("from: %d", len(sel.From))
	}
	if sel.From[1].Join != JoinInner || sel.From[1].On == nil {
		t.Error("join type/on")
	}
	if sel.From[0].Alias != "t" || sel.From[1].Alias != "n" {
		t.Error("aliases")
	}
}

func TestParseLeftJoin(t *testing.T) {
	s := mustParse(t, `SELECT * FROM a LEFT JOIN b ON a.x = b.x`)
	if s.(*Select).From[1].Join != JoinLeft {
		t.Error("left join")
	}
}

func TestParseCrossJoinComma(t *testing.T) {
	s := mustParse(t, `SELECT * FROM a, b WHERE a.x = b.x`)
	if s.(*Select).From[1].Join != JoinCross {
		t.Error("comma join must be cross")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	s := mustParse(t, `SELECT title, COUNT(*) AS c FROM NotableAttendee GROUP BY title HAVING COUNT(*) > 2 ORDER BY c DESC`)
	sel := s.(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("group/having")
	}
	if sel.Items[1].Alias != "c" {
		t.Error("alias")
	}
	if !sel.Items[1].Expr.(*FuncCall).Star {
		t.Error("COUNT(*)")
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustParse(t, `SELECT MIN(x), MAX(x), AVG(x), SUM(x), COUNT(x) FROM t`)
	for _, it := range s.(*Select).Items {
		if !it.Expr.(*FuncCall).IsAggregate() {
			t.Errorf("%v should be aggregate", it.Expr)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top must be OR: %v", e)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != "AND" {
		t.Errorf("AND binds tighter: %v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*BinaryExpr)
	if add.Op != "+" || add.R.(*BinaryExpr).Op != "*" {
		t.Errorf("precedence: %v", e)
	}
}

func TestParseInBetweenLike(t *testing.T) {
	mustParse(t, `SELECT * FROM t WHERE x IN (1, 2, 3)`)
	mustParse(t, `SELECT * FROM t WHERE x NOT IN (1, 2)`)
	mustParse(t, `SELECT * FROM t WHERE x BETWEEN 1 AND 10`)
	mustParse(t, `SELECT * FROM t WHERE name LIKE 'Crowd%'`)
	mustParse(t, `SELECT * FROM t WHERE name NOT LIKE '%DB'`)
}

func TestParseNegativeNumbers(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Literal).Val.Int() != -5 {
		t.Errorf("got %v", e)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s := mustParse(t, `UPDATE Talk SET nb_attendees = 100 WHERE title = 'CrowdDB'`)
	upd := s.(*Update)
	if upd.Set[0].Column != "nb_attendees" || upd.Where == nil {
		t.Error("update")
	}
	s = mustParse(t, `DELETE FROM Talk WHERE title = 'CrowdDB'`)
	if s.(*Delete).Where == nil {
		t.Error("delete where")
	}
}

func TestParseMultiRowInsert(t *testing.T) {
	s := mustParse(t, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	if len(s.(*Insert).Rows) != 3 {
		t.Error("rows")
	}
}

func TestParseExplainShow(t *testing.T) {
	s := mustParse(t, `EXPLAIN SELECT * FROM Talk`)
	if e, ok := s.(*Explain); !ok || e.Analyze {
		t.Error("explain")
	}
	s = mustParse(t, `EXPLAIN ANALYZE SELECT * FROM Talk`)
	e, ok := s.(*Explain)
	if !ok || !e.Analyze {
		t.Error("explain analyze")
	}
	// String() round-trips through the parser with the flag intact.
	s = mustParse(t, e.String())
	if e2, ok := s.(*Explain); !ok || !e2.Analyze {
		t.Errorf("EXPLAIN ANALYZE does not round-trip: %q", e.String())
	}
	s = mustParse(t, `SHOW TABLES`)
	if _, ok := s.(*ShowTables); !ok {
		t.Error("show tables")
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := mustParse(t, `CREATE UNIQUE INDEX idx_title ON Talk (title)`)
	ci := s.(*CreateIndex)
	if !ci.Unique || ci.Table != "Talk" || ci.Columns[0] != "title" {
		t.Errorf("%+v", ci)
	}
}

func TestParseDropIfExists(t *testing.T) {
	s := mustParse(t, `DROP TABLE IF EXISTS Talk`)
	if !s.(*DropTable).IfExists {
		t.Error("if exists")
	}
}

func TestParseAnnotation(t *testing.T) {
	s := mustParse(t, `CREATE TABLE t (x STRING ANNOTATION 'the x value') ANNOTATION 'demo table'`)
	ct := s.(*CreateTable)
	if ct.Columns[0].Annotation != "the x value" || ct.Annotation != "demo table" {
		t.Errorf("%+v", ct)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorSources {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseAll(t *testing.T) {
	stmts, err := ParseAll(`CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("want 3 statements, got %d", len(stmts))
	}
}

// Print→reparse fixpoint: String() of a parsed statement must parse to the
// same String(). This is the core structural property of the AST printers.
func TestPrintReparseFixpoint(t *testing.T) {
	for _, src := range fixpointSources {
		s1 := mustParse(t, src)
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q failed: %v", printed, err)
			continue
		}
		if s2.String() != printed {
			t.Errorf("fixpoint violated:\n  src:   %s\n  once:  %s\n  twice: %s", src, printed, s2.String())
		}
	}
}

func TestWalkExprs(t *testing.T) {
	e, err := ParseExpr("CROWDEQUAL(LOWER(a), 'x') AND b BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	var cols, funcs int
	WalkExprs(e, func(x Expr) {
		switch x.(type) {
		case *ColumnRef:
			cols++
		case *FuncCall:
			funcs++
		}
	})
	if cols != 2 || funcs != 2 {
		t.Errorf("cols=%d funcs=%d", cols, funcs)
	}
}

func TestSelectStarForms(t *testing.T) {
	s := mustParse(t, `SELECT *, t.* FROM t`)
	items := s.(*Select).Items
	if !items[0].Star || items[0].StarTable != "" {
		t.Error("bare star")
	}
	if !items[1].Star || items[1].StarTable != "t" {
		t.Error("t.*")
	}
}

func TestStringConcatOp(t *testing.T) {
	e, err := ParseExpr("a || b")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinaryExpr).Op != "||" {
		t.Error("concat")
	}
}

func TestKeywordLowerCaseQuery(t *testing.T) {
	if _, err := Parse(strings.ToLower(`SELECT title FROM Talk WHERE abstract IS CNULL LIMIT 5`)); err != nil {
		t.Errorf("lower-case SQL must parse: %v", err)
	}
}

// TestShape pins what a shape keeps verbatim — the statement printed with
// each slot literal as a stand-in of its kind: only the outermost WHERE's
// literals outside subqueries are slots.
func TestShape(t *testing.T) {
	for _, tc := range []struct{ src, shape string }{
		{`SELECT nb_attendees FROM Talk WHERE title = 'talk-00042'`,
			`SELECT nb_attendees FROM Talk WHERE (title = '?STRING')`},
		{`SELECT 'x', n + 1 FROM a JOIN b ON a.k = b.k + 1 WHERE n IN (1, -2.5, NULL) AND m ~= 'y' AND c IS NOT CNULL GROUP BY n HAVING COUNT(*) > 3 ORDER BY n DESC LIMIT 5 OFFSET 2`,
			`SELECT 'x', (n + 1) FROM a JOIN b ON (a.k = (b.k + 1)) WHERE (((n IN ('?INTEGER', '?FLOAT', '?NULL')) AND (m ~= '?STRING')) AND (c IS NOT CNULL)) GROUP BY n HAVING (COUNT(*) > 3) ORDER BY n DESC LIMIT 5 OFFSET 2`},
		{`SELECT who FROM vis WHERE tid IN (SELECT id FROM talk WHERE att > 80) AND who <> 'x'`,
			`SELECT who FROM vis WHERE ((tid IN (SELECT id FROM talk WHERE (att > 80))) AND (who <> '?STRING'))`},
		{`SELECT * FROM t WHERE CROWDEQUAL(name, 'UC Berkeley', 'Same school?') OR TRUE`,
			`SELECT * FROM t WHERE (CROWDEQUAL(name, '?STRING', '?STRING') OR '?BOOLEAN')`},
	} {
		sel := mustParse(t, tc.src).(*Select)
		if shape := shapeOf(sel); shape != tc.shape {
			t.Errorf("%s\n shape %s\n want  %s", tc.src, shape, tc.shape)
		}
		checkSlotOrder(t, tc.src, sel)
		if got := string(AppendWithSlots(nil, sel, AppendSlotValues(nil, sel), -1)); got != sel.String() {
			t.Errorf("printed with its own slot values, %s is %s", sel, got)
		}
	}
	// A DML statement's slots: its VALUES rows, SET values and WHERE.
	for _, tc := range []struct{ src, shape string }{
		{`INSERT INTO kv VALUES (7, 'v7.0', -7), (8, NULL, 1 + 2)`,
			`INSERT INTO kv VALUES ('?INTEGER', '?STRING', '?INTEGER'), ('?INTEGER', '?NULL', ('?INTEGER' + '?INTEGER'))`},
		{`UPDATE kv SET v = 'x', n = n + 1 WHERE id = 7 AND v IS NOT NULL`,
			`UPDATE kv SET v = '?STRING', n = (n + '?INTEGER') WHERE ((id = '?INTEGER') AND (v IS NOT NULL))`},
		{`DELETE FROM kv WHERE id IN (SELECT id FROM gone WHERE n > 3) OR id = 1.5`,
			`DELETE FROM kv WHERE ((id IN (SELECT id FROM gone WHERE (n > 3))) OR (id = '?FLOAT'))`},
	} {
		s := mustParse(t, tc.src)
		if shape := shapeOf(s); shape != tc.shape {
			t.Errorf("%s\n shape %s\n want  %s", tc.src, shape, tc.shape)
		}
		checkSlotOrder(t, tc.src, s)
		if got := string(AppendWithSlots(nil, s, AppendSlotValues(nil, s), -1)); got != s.String() {
			t.Errorf("printed with its own slot values, %s is %s", s, got)
		}
	}
}

// shapeOf prints s with each slot literal as a stand-in of its kind.
func shapeOf(s Statement) string {
	var masks []sqltypes.Value
	for _, v := range AppendSlotValues(nil, s) {
		masks = append(masks, sqltypes.NewString("?"+kindName(v.Kind())))
	}
	return string(AppendWithSlots(nil, s, masks, -1))
}

func kindName(k sqltypes.Kind) string {
	return [...]string{
		sqltypes.KindNull: "NULL", sqltypes.KindCNull: "CNULL", sqltypes.KindString: "STRING",
		sqltypes.KindInt: "INTEGER", sqltypes.KindFloat: "FLOAT", sqltypes.KindBool: "BOOLEAN",
	}[k]
}

// checkSlotOrder fails unless the slot literals of s number 1, 2, … in
// the order AppendSlotValues lists them.
func checkSlotOrder(t *testing.T, src string, s Statement) {
	t.Helper()
	n := 0
	walkSlotted(s, func(e Expr) {
		if l, ok := e.(*Literal); ok && l.Slot > 0 {
			if n++; l.Slot != n {
				t.Errorf("%q: slot %d listed at %d", src, l.Slot, n)
			}
		}
	})
}
