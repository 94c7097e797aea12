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
	"encoding"
	"fmt"
	"strings"

	"crowddb/internal/lexer"
	"crowddb/internal/sqltypes"
)

// Statement is any parsed CrowdSQL statement. AppendText appends the
// text String returns; AppendTextUpTo appends no more of it than a
// caller keeps (obs.Span.SetText).
type Statement interface {
	fmt.Stringer
	encoding.TextAppender
	AppendTextUpTo(b []byte, n int) []byte
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
	var p printer
	p.columnDef(c)
	return string(p.b)
}

// ForeignKey is a FOREIGN KEY (cols) REF table(cols) table constraint. The
// paper's DDL (Example 2) spells REFERENCES as REF; we accept both.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

func (f ForeignKey) String() string {
	var p printer
	p.foreignKey(f)
	return string(p.b)
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

func (s *CreateTable) String() string                        { return stmtString(s) }
func (s *CreateTable) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *CreateTable) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

func (s *DropTable) String() string                        { return stmtString(s) }
func (s *DropTable) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *DropTable) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

func (*CreateIndex) stmt() {}

func (s *CreateIndex) String() string                        { return stmtString(s) }
func (s *CreateIndex) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *CreateIndex) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr

	tokens
}

func (*Insert) stmt() {}

func (s *Insert) String() string                        { return stmtString(s) }
func (s *Insert) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *Insert) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

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

	tokens
}

func (*Update) stmt() {}

func (s *Update) String() string                        { return stmtString(s) }
func (s *Update) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *Update) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where Expr

	tokens
}

func (*Delete) stmt() {}

func (s *Delete) String() string                        { return stmtString(s) }
func (s *Delete) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *Delete) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

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

// SelectItem is one projection item: `*`, `t.*`, or expr [AS alias].
type SelectItem struct {
	Star      bool
	StarTable string // for t.*
	Expr      Expr
	Alias     string
}

func (it SelectItem) String() string {
	var p printer
	p.selectItem(it)
	return string(p.b)
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

	tokens
}

// tokens are the tokens a SELECT, INSERT, UPDATE or DELETE was parsed
// from, when it is a statement of its script (ParseTokens): what the
// engine's plan cache keys it on.
type tokens struct{ toks []lexer.Token }

// Tokens returns the tokens the statement was parsed from, nil unless it
// is a statement of a parsed script.
func (t *tokens) Tokens() []lexer.Token { return t.toks }

func (t *tokens) keep(toks []lexer.Token) { t.toks = toks }

// A SlotRef locates a slot literal of a statement in the tokens the
// statement was parsed from (Tokens).
type SlotRef struct {
	Tok int  // the index of the literal's token
	Neg bool // the value is the token's negated: a minus folded into it
}

// walkSlotted calls WalkExprs(e, fn) for each clause of s whose literals
// are slots, in text order: a SELECT's WHERE; an INSERT's VALUES rows; an
// UPDATE's SET values and WHERE; a DELETE's WHERE. Other statements have
// none.
func walkSlotted(s Statement, fn func(Expr)) {
	switch s := s.(type) {
	case *Select:
		WalkExprs(s.Where, fn)
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				WalkExprs(e, fn)
			}
		}
	case *Update:
		for _, a := range s.Set {
			WalkExprs(a.Value, fn)
		}
		WalkExprs(s.Where, fn)
	case *Delete:
		WalkExprs(s.Where, fn)
	}
}

// AppendSlotRefs appends the SlotRef of each of s's slot literals to dst,
// in slot order. They locate tokens only when s has Tokens.
func AppendSlotRefs(dst []SlotRef, s Statement) []SlotRef {
	walkSlotted(s, func(e Expr) {
		if l, ok := e.(*Literal); ok && l.Slot > 0 {
			dst = append(dst, SlotRef{Tok: int(l.tok), Neg: l.neg})
		}
	})
	return dst
}

// WithoutTokens returns a copy of s that keeps no tokens: s's tree, for a
// holder that outlives the script s was parsed from. An INSERT's table
// and column names are copied out of the script's text too, which a bulk
// INSERT's makes long. A statement that keeps no tokens is s.
func WithoutTokens(s Statement) Statement {
	switch s := s.(type) {
	case *Select:
		c := *s
		c.toks = nil
		return &c
	case *Insert:
		c := *s
		c.toks = nil
		c.Table = strings.Clone(s.Table)
		if s.Columns != nil {
			c.Columns = make([]string, len(s.Columns))
			for i, col := range s.Columns {
				c.Columns[i] = strings.Clone(col)
			}
		}
		return &c
	case *Update:
		c := *s
		c.toks = nil
		return &c
	case *Delete:
		c := *s
		c.toks = nil
		return &c
	}
	return s
}

func (*Select) stmt() {}

func (s *Select) String() string                        { return stmtString(s) }
func (s *Select) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *Select) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// Explain wraps another statement for EXPLAIN output. Analyze requests
// EXPLAIN ANALYZE: execute the statement and annotate the plan with
// per-operator actuals next to the optimizer's predictions.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

func (s *Explain) String() string                        { return stmtString(s) }
func (s *Explain) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *Explain) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// ShowTables is the REPL convenience statement SHOW TABLES.
type ShowTables struct{}

func (*ShowTables) stmt() {}

func (*ShowTables) String() string                          { return "SHOW TABLES" }
func (s *ShowTables) AppendText(b []byte) ([]byte, error)   { return appendSQL(b, s), nil }
func (s *ShowTables) AppendTextUpTo(b []byte, n int) []byte { return appendSQLUpTo(b, s, n) }

// ---------------------------------------------------------------------------
// Expressions

// Expr is any scalar expression.
type Expr interface {
	fmt.Stringer
	expr()
}

// Literal is a constant, including NULL and CNULL.
type Literal struct {
	Val sqltypes.Value
	// Slot numbers, from 1 in text order, the literals of a statement's
	// slotted clauses (subqueries excluded): a SELECT's outermost WHERE,
	// an INSERT's VALUES rows, an UPDATE's SET values and WHERE, and a
	// DELETE's WHERE; 0 is no slot. A plan the engine caches for
	// statements that differ only in these values reads a slot's value
	// from the statement it executes, never from the one it was compiled
	// for.
	Slot int

	// A slot literal knows the token it was made of (AppendSlotRefs):
	// tok is its index in the statement's tokens, and neg is set when an
	// odd number of unary minus signs were folded into its value (an
	// int32 keeps the node in its allocation size class).
	tok int32
	neg bool
}

func (*Literal) expr() {}

// String prints the literal as it parses back: a FLOAT with an integral
// value keeps a fraction, or "1.0" would come back an INTEGER and "-0.0"
// the INTEGER 0.
func (e *Literal) String() string { return exprString(e) }

// ColumnRef is a possibly table-qualified column reference.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) expr() {}

func (e *ColumnRef) String() string { return exprString(e) }

// BinaryExpr covers comparisons, boolean connectives, arithmetic, LIKE, and
// the crowd-equality shorthand `~=` (sugar for CROWDEQUAL).
type BinaryExpr struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%", "LIKE", "~=", "||"
	L, R Expr
}

func (*BinaryExpr) expr() {}

func (e *BinaryExpr) String() string { return exprString(e) }

// UnaryExpr is NOT or numeric negation.
type UnaryExpr struct {
	Op string // "NOT", "-"
	E  Expr
}

func (*UnaryExpr) expr() {}

func (e *UnaryExpr) String() string { return exprString(e) }

// IsNullExpr is `x IS [NOT] NULL` and the CrowdSQL `x IS [NOT] CNULL`.
type IsNullExpr struct {
	E     Expr
	CNull bool
	Neg   bool
}

func (*IsNullExpr) expr() {}

func (e *IsNullExpr) String() string { return exprString(e) }

// InExpr is `x [NOT] IN (v1, v2, ...)` or `x [NOT] IN (SELECT ...)` with
// an uncorrelated subquery.
type InExpr struct {
	E    Expr
	List []Expr
	Sub  *Select // non-nil for the subquery form; List is then empty
	Neg  bool
}

func (*InExpr) expr() {}

func (e *InExpr) String() string { return exprString(e) }

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Neg       bool
}

func (*BetweenExpr) expr() {}

func (e *BetweenExpr) String() string { return exprString(e) }

// FuncCall is a function application. The crowd built-ins CROWDEQUAL and
// CROWDORDER (paper §2.2), the aggregates, and scalar helpers all land here;
// Name is always upper-case.
type FuncCall struct {
	Name string
	Args []Expr
	Star bool // COUNT(*)
}

func (*FuncCall) expr() {}

func (e *FuncCall) String() string { return exprString(e) }

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
