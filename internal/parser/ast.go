// Package parser implements the CrowdSQL parser: standard SQL plus the
// paper's extensions — the CROWD keyword on tables and columns (§2.1), the
// CNULL literal, and the CROWDEQUAL / CROWDORDER built-ins (§2.2).
//
// The AST in this file is deliberately close to the SQL surface syntax; the
// planner (internal/plan) lowers it to logical algebra. Every node has a
// String method that renders valid CrowdSQL, which the tests use for
// print→reparse fixpoint properties and EXPLAIN uses for display.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"crowddb/internal/sqltypes"
)

// Statement is any parsed CrowdSQL statement.
type Statement interface {
	fmt.Stringer
	stmt()
}

// ColumnDef is one column in a CREATE TABLE, with the paper's CROWD marker.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Type
	Crowd      bool   // `abstract CROWD STRING`
	PrimaryKey bool   // inline `PRIMARY KEY`
	Annotation string // optional ANNOTATION 'free text' used by UI generation
}

func (c ColumnDef) String() string {
	var sb strings.Builder
	sb.WriteString(c.Name)
	sb.WriteByte(' ')
	if c.Crowd {
		sb.WriteString("CROWD ")
	}
	sb.WriteString(c.Type.String())
	if c.PrimaryKey {
		sb.WriteString(" PRIMARY KEY")
	}
	if c.Annotation != "" {
		sb.WriteString(" ANNOTATION " + quote(c.Annotation))
	}
	return sb.String()
}

// ForeignKey is a FOREIGN KEY (cols) REF table(cols) table constraint. The
// paper's DDL (Example 2) spells REFERENCES as REF; we accept both.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

func (f ForeignKey) String() string {
	return fmt.Sprintf("FOREIGN KEY (%s) REF %s(%s)",
		strings.Join(f.Columns, ", "), f.RefTable, strings.Join(f.RefColumns, ", "))
}

// CreateTable is CREATE [CROWD] TABLE.
type CreateTable struct {
	Name        string
	Crowd       bool // CREATE CROWD TABLE (open-world table, §2.1 Example 2)
	Columns     []ColumnDef
	PrimaryKey  []string // table-level PRIMARY KEY(...) constraint
	ForeignKeys []ForeignKey
	Annotation  string
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.Crowd {
		sb.WriteString("CROWD ")
	}
	sb.WriteString("TABLE " + s.Name + " (")
	var parts []string
	for _, c := range s.Columns {
		parts = append(parts, c.String())
	}
	if len(s.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(s.PrimaryKey, ", ")+")")
	}
	for _, fk := range s.ForeignKeys {
		parts = append(parts, fk.String())
	}
	sb.WriteString(strings.Join(parts, ", "))
	sb.WriteString(")")
	if s.Annotation != "" {
		sb.WriteString(" ANNOTATION " + quote(s.Annotation))
	}
	return sb.String()
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

func (s *DropTable) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + s.Name
	}
	return "DROP TABLE " + s.Name
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

func (*CreateIndex) stmt() {}

func (s *CreateIndex) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", u, s.Name, s.Table,
		strings.Join(s.Columns, ", "))
}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*Insert) stmt() {}

func (s *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	sb.WriteString(" VALUES ")
	var rows []string
	for _, r := range s.Rows {
		var vals []string
		for _, e := range r {
			vals = append(vals, e.String())
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	sb.WriteString(strings.Join(rows, ", "))
	return sb.String()
}

// Assignment is one `col = expr` in UPDATE SET.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*Update) stmt() {}

func (s *Update) String() string {
	var sets []string
	for _, a := range s.Set {
		sets = append(sets, a.Column+" = "+a.Value.String())
	}
	out := "UPDATE " + s.Table + " SET " + strings.Join(sets, ", ")
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// JoinType distinguishes the join flavors the executor supports.
type JoinType int

// Join flavors. JoinNone marks the first FROM entry.
const (
	JoinNone JoinType = iota
	JoinInner
	JoinLeft
	JoinCross
)

// TableRef is one entry in the FROM clause. Entries after the first carry
// their join type and ON condition.
type TableRef struct {
	Table string
	Alias string
	Join  JoinType
	On    Expr
}

func (t TableRef) refString() string {
	s := t.Table
	if t.Alias != "" {
		s += " " + t.Alias
	}
	return s
}

// SelectItem is one projection item: `*`, `t.*`, or expr [AS alias].
type SelectItem struct {
	Star      bool
	StarTable string // for t.*
	Expr      Expr
	Alias     string
}

func (it SelectItem) String() string {
	if it.Star {
		if it.StarTable != "" {
			return it.StarTable + ".*"
		}
		return "*"
	}
	s := it.Expr.String()
	if it.Alias != "" {
		s += " AS " + it.Alias
	}
	return s
}

// OrderItem is one ORDER BY key. CROWDORDER appears here as a FuncCall
// expression (paper Example 3).
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64 // 0 when absent
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	var items []string
	for _, it := range s.Items {
		items = append(items, it.String())
	}
	sb.WriteString(strings.Join(items, ", "))
	if len(s.From) > 0 {
		sb.WriteString(" FROM " + s.From[0].refString())
		for _, tr := range s.From[1:] {
			switch tr.Join {
			case JoinCross:
				sb.WriteString(", " + tr.refString())
			case JoinLeft:
				sb.WriteString(" LEFT JOIN " + tr.refString())
			default:
				sb.WriteString(" JOIN " + tr.refString())
			}
			if tr.On != nil {
				sb.WriteString(" ON " + tr.On.String())
			}
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		var gs []string
		for _, g := range s.GroupBy {
			gs = append(gs, g.String())
		}
		sb.WriteString(" GROUP BY " + strings.Join(gs, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		var os []string
		for _, o := range s.OrderBy {
			item := o.Expr.String()
			if o.Desc {
				item += " DESC"
			}
			os = append(os, item)
		}
		sb.WriteString(" ORDER BY " + strings.Join(os, ", "))
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.FormatInt(s.Limit, 10))
	}
	if s.Offset > 0 {
		sb.WriteString(" OFFSET " + strconv.FormatInt(s.Offset, 10))
	}
	return sb.String()
}

// Explain wraps another statement for EXPLAIN output. Analyze requests
// EXPLAIN ANALYZE: execute the statement and annotate the plan with
// per-operator actuals next to the optimizer's predictions.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

func (s *Explain) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}

// ShowTables is the REPL convenience statement SHOW TABLES.
type ShowTables struct{}

func (*ShowTables) stmt() {}

func (*ShowTables) String() string { return "SHOW TABLES" }

// ---------------------------------------------------------------------------
// Expressions

// Expr is any scalar expression.
type Expr interface {
	fmt.Stringer
	expr()
}

// Literal is a constant, including NULL and CNULL.
type Literal struct{ Val sqltypes.Value }

func (*Literal) expr() {}

// String prints the literal as it parses back: a FLOAT with an integral
// value keeps a fraction, or "1.0" would come back an INTEGER and "-0.0"
// the INTEGER 0.
func (e *Literal) String() string {
	s := e.Val.SQLLiteral()
	if e.Val.Kind() == sqltypes.KindFloat && !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

// ColumnRef is a possibly table-qualified column reference.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) expr() {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// BinaryExpr covers comparisons, boolean connectives, arithmetic, LIKE, and
// the crowd-equality shorthand `~=` (sugar for CROWDEQUAL).
type BinaryExpr struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%", "LIKE", "~=", "||"
	L, R Expr
}

func (*BinaryExpr) expr() {}

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// UnaryExpr is NOT or numeric negation.
type UnaryExpr struct {
	Op string // "NOT", "-"
	E  Expr
}

func (*UnaryExpr) expr() {}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.E.String() + ")"
	}
	return "(" + e.Op + e.E.String() + ")"
}

// IsNullExpr is `x IS [NOT] NULL` and the CrowdSQL `x IS [NOT] CNULL`.
type IsNullExpr struct {
	E     Expr
	CNull bool
	Neg   bool
}

func (*IsNullExpr) expr() {}

func (e *IsNullExpr) String() string {
	s := e.E.String() + " IS "
	if e.Neg {
		s += "NOT "
	}
	if e.CNull {
		return "(" + s + "CNULL)"
	}
	return "(" + s + "NULL)"
}

// InExpr is `x [NOT] IN (v1, v2, ...)` or `x [NOT] IN (SELECT ...)` with
// an uncorrelated subquery.
type InExpr struct {
	E    Expr
	List []Expr
	Sub  *Select // non-nil for the subquery form; List is then empty
	Neg  bool
}

func (*InExpr) expr() {}

func (e *InExpr) String() string {
	op := " IN ("
	if e.Neg {
		op = " NOT IN ("
	}
	if e.Sub != nil {
		return "(" + e.E.String() + op + e.Sub.String() + "))"
	}
	var vals []string
	for _, v := range e.List {
		vals = append(vals, v.String())
	}
	return "(" + e.E.String() + op + strings.Join(vals, ", ") + "))"
}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Neg       bool
}

func (*BetweenExpr) expr() {}

func (e *BetweenExpr) String() string {
	op := " BETWEEN "
	if e.Neg {
		op = " NOT BETWEEN "
	}
	return "(" + e.E.String() + op + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// FuncCall is a function application. The crowd built-ins CROWDEQUAL and
// CROWDORDER (paper §2.2), the aggregates, and scalar helpers all land here;
// Name is always upper-case.
type FuncCall struct {
	Name string
	Args []Expr
	Star bool // COUNT(*)
}

func (*FuncCall) expr() {}

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	var args []string
	for _, a := range e.Args {
		args = append(args, a.String())
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// IsAggregate reports whether the call is one of the SQL aggregates.
func (e *FuncCall) IsAggregate() bool {
	switch e.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// IsCrowdFunc reports whether the call requires crowdsourcing to evaluate.
func (e *FuncCall) IsCrowdFunc() bool {
	return e.Name == "CROWDEQUAL" || e.Name == "CROWDORDER"
}

func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// WalkExprs visits e and every sub-expression, depth-first. A nil expression
// is ignored so callers can pass optional clauses directly.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExprs(x.L, fn)
		WalkExprs(x.R, fn)
	case *UnaryExpr:
		WalkExprs(x.E, fn)
	case *IsNullExpr:
		WalkExprs(x.E, fn)
	case *InExpr:
		WalkExprs(x.E, fn)
		for _, v := range x.List {
			WalkExprs(v, fn)
		}
	case *BetweenExpr:
		WalkExprs(x.E, fn)
		WalkExprs(x.Lo, fn)
		WalkExprs(x.Hi, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	}
}

// HasCrowdFunc reports whether the expression tree contains a CROWDEQUAL or
// CROWDORDER call (or the ~= shorthand). The optimizer uses this to place
// CrowdCompare operators.
func HasCrowdFunc(e Expr) bool {
	found := false
	WalkExprs(e, func(x Expr) {
		switch n := x.(type) {
		case *FuncCall:
			if n.IsCrowdFunc() {
				found = true
			}
		case *BinaryExpr:
			if n.Op == "~=" {
				found = true
			}
		}
	})
	return found
}

// HasAggregate reports whether the expression tree contains a SQL
// aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExprs(e, func(x Expr) {
		if fc, ok := x.(*FuncCall); ok && fc.IsAggregate() {
			found = true
		}
	})
	return found
}

// SplitConjuncts flattens a predicate's top-level ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(SplitConjuncts(be.L), SplitConjuncts(be.R)...)
	}
	return []Expr{e}
}

// And conjoins two optional predicates (nil = absent).
func And(a, b Expr) Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return &BinaryExpr{Op: "AND", L: a, R: b}
	}
}
