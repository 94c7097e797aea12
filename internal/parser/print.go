package parser

// The printer: every node's String renders through it, and a statement's
// AppendText lets a caller that owns a buffer (a trace recording the
// statement's text) render it without allocating.

import (
	"bytes"
	"fmt"
	"strconv"

	"crowddb/internal/sqltypes"
)

// appendSQL appends the statement's CrowdSQL text to b: every
// statement's String and AppendText.
func appendSQL(b []byte, s Statement) []byte {
	p := printer{b: b}
	p.stmt(s)
	return p.b
}

// appendSQLUpTo is every statement's AppendTextUpTo: the text appendSQL
// appends, stopped at the first list item or INSERT row that begins past
// n bytes of it. The first n+1 bytes are appendSQL's whenever it would
// append that many.
func appendSQLUpTo(b []byte, s Statement, n int) []byte {
	p := printer{b: b, limit: len(b) + n}
	p.stmt(s)
	return p.b
}

// exprString is every expression's String.
func exprString(e Expr) string {
	var p printer
	p.expr(e)
	return string(p.b)
}

// stmtString is every statement's String.
func stmtString(s Statement) string { return string(appendSQL(nil, s)) }

// AppendWithSlots appends the text of s with each slot literal
// (Literal.Slot) printed as slots[Slot-1]: the text of the statement
// whose slot values they are, when it differs from s in nothing else.
// Past n bytes it stops as AppendTextUpTo does; n < 0 appends it all.
func AppendWithSlots(b []byte, s Statement, slots []sqltypes.Value, n int) []byte {
	p := printer{b: b, slots: slots}
	if n >= 0 {
		p.limit = len(b) + n
	}
	p.stmt(s)
	return p.b
}

// AppendSlotValues appends the values of s's slot literals to dst in slot
// order (walkSlotted visits them in text order, as the parser numbered
// them).
func AppendSlotValues(dst []sqltypes.Value, s Statement) []sqltypes.Value {
	walkSlotted(s, func(e Expr) {
		if l, ok := e.(*Literal); ok && l.Slot > 0 {
			dst = append(dst, l.Val)
		}
	})
	return dst
}

// printer appends CrowdSQL text to b as its methods recurse through the
// tree. It prints a slot literal as its value in slots when that holds
// one, and with limit set it stops starting list items and INSERT rows
// once b is longer than limit.
type printer struct {
	b     []byte
	slots []sqltypes.Value
	limit int
}

// full reports whether the printer has appended all it was asked for.
func (p *printer) full() bool { return p.limit > 0 && len(p.b) > p.limit }

func (p *printer) write(ss ...string) {
	for _, s := range ss {
		p.b = append(p.b, s...)
	}
}

func (p *printer) stmt(s Statement) {
	switch s := s.(type) {
	case *Select:
		p.selectStmt(s)
	case *Insert:
		p.write("INSERT INTO ", s.Table)
		if len(s.Columns) > 0 {
			p.write(" (")
			p.names(s.Columns)
			p.write(")")
		}
		p.write(" VALUES ")
		for i, r := range s.Rows {
			if p.full() {
				return
			}
			p.sep(i)
			p.write("(")
			p.exprs(r)
			p.write(")")
		}
	case *Update:
		p.write("UPDATE ", s.Table, " SET ")
		for i, a := range s.Set {
			p.sep(i)
			p.write(a.Column, " = ")
			p.expr(a.Value)
		}
		p.clause(" WHERE ", s.Where)
	case *Delete:
		p.write("DELETE FROM ", s.Table)
		p.clause(" WHERE ", s.Where)
	case *Explain:
		p.write("EXPLAIN ")
		if s.Analyze {
			p.write("ANALYZE ")
		}
		p.stmt(s.Stmt)
	case *ShowTables:
		p.write("SHOW TABLES")
	case *CreateTable:
		p.write("CREATE ")
		if s.Crowd {
			p.write("CROWD ")
		}
		p.write("TABLE ", s.Name, " (")
		n := 0
		for _, c := range s.Columns {
			p.sep(n)
			n++
			p.columnDef(c)
		}
		if len(s.PrimaryKey) > 0 {
			p.sep(n)
			n++
			p.write("PRIMARY KEY (")
			p.names(s.PrimaryKey)
			p.write(")")
		}
		for _, fk := range s.ForeignKeys {
			p.sep(n)
			n++
			p.foreignKey(fk)
		}
		p.write(")")
		p.annotation(s.Annotation)
	case *DropTable:
		p.write("DROP TABLE ")
		if s.IfExists {
			p.write("IF EXISTS ")
		}
		p.write(s.Name)
	case *CreateIndex:
		p.write("CREATE ")
		if s.Unique {
			p.write("UNIQUE ")
		}
		p.write("INDEX ", s.Name, " ON ", s.Table, " (")
		p.names(s.Columns)
		p.write(")")
	default:
		panic(fmt.Sprintf("parser: no printer for %T", s))
	}
}

func (p *printer) selectStmt(s *Select) {
	p.write("SELECT ")
	if s.Distinct {
		p.write("DISTINCT ")
	}
	for i, it := range s.Items {
		p.sep(i)
		p.selectItem(it)
	}
	for i, tr := range s.From {
		switch {
		case i == 0:
			p.write(" FROM ")
		case tr.Join == JoinCross:
			p.write(", ")
		case tr.Join == JoinLeft:
			p.write(" LEFT JOIN ")
		default:
			p.write(" JOIN ")
		}
		p.write(tr.Table)
		if tr.Alias != "" {
			p.write(" ", tr.Alias)
		}
		if i > 0 {
			p.clause(" ON ", tr.On)
		}
	}
	p.clause(" WHERE ", s.Where)
	if len(s.GroupBy) > 0 {
		p.write(" GROUP BY ")
		p.exprs(s.GroupBy)
	}
	p.clause(" HAVING ", s.Having)
	for i, o := range s.OrderBy {
		if i == 0 {
			p.write(" ORDER BY ")
		} else {
			p.write(", ")
		}
		p.expr(o.Expr)
		if o.Desc {
			p.write(" DESC")
		}
	}
	if s.Limit >= 0 {
		p.write(" LIMIT ")
		p.b = strconv.AppendInt(p.b, s.Limit, 10)
	}
	if s.Offset > 0 {
		p.write(" OFFSET ")
		p.b = strconv.AppendInt(p.b, s.Offset, 10)
	}
}

func (p *printer) selectItem(it SelectItem) {
	switch {
	case it.Star && it.StarTable != "":
		p.write(it.StarTable, ".*")
	case it.Star:
		p.write("*")
	default:
		p.expr(it.Expr)
		if it.Alias != "" {
			p.write(" AS ", it.Alias)
		}
	}
}

func (p *printer) columnDef(c ColumnDef) {
	p.write(c.Name, " ")
	if c.Crowd {
		p.write("CROWD ")
	}
	p.write(c.Type.String())
	if c.PrimaryKey {
		p.write(" PRIMARY KEY")
	}
	p.annotation(c.Annotation)
}

func (p *printer) foreignKey(f ForeignKey) {
	p.write("FOREIGN KEY (")
	p.names(f.Columns)
	p.write(") REF ", f.RefTable)
	if len(f.RefColumns) > 0 { // "REF t" names no columns; "REF t()" does not parse
		p.write("(")
		p.names(f.RefColumns)
		p.write(")")
	}
}

func (p *printer) annotation(a string) {
	if a != "" {
		p.write(" ANNOTATION ")
		p.quoted(a)
	}
}

// quoted appends s as a single-quoted SQL string literal.
func (p *printer) quoted(s string) {
	p.b = append(p.b, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			p.b = append(p.b, '\'')
		}
		p.b = append(p.b, s[i])
	}
	p.b = append(p.b, '\'')
}

// sep writes the ", " that precedes the i-th item of a list.
func (p *printer) sep(i int) {
	if i > 0 {
		p.write(", ")
	}
}

func (p *printer) names(names []string) {
	for i, n := range names {
		p.sep(i)
		p.write(n)
	}
}

func (p *printer) exprs(es []Expr) {
	for i, e := range es {
		if p.full() {
			return
		}
		p.sep(i)
		p.expr(e)
	}
}

// clause appends kw and e, or nothing when e is nil.
func (p *printer) clause(kw string, e Expr) {
	if e != nil {
		p.write(kw)
		p.expr(e)
	}
}

// expr appends the expression's text, as its String method renders it.
func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *Literal:
		if e.Slot > 0 && e.Slot <= len(p.slots) {
			p.literal(p.slots[e.Slot-1])
			return
		}
		p.literal(e.Val)
	case *ColumnRef:
		if e.Table != "" {
			p.write(e.Table, ".")
		}
		p.write(e.Name)
	case *BinaryExpr:
		p.write("(")
		p.expr(e.L)
		p.write(" ", e.Op, " ")
		p.expr(e.R)
		p.write(")")
	case *UnaryExpr:
		if e.Op == "NOT" {
			p.write("(NOT ")
		} else {
			p.write("(", e.Op)
		}
		p.expr(e.E)
		p.write(")")
	case *IsNullExpr:
		p.write("(")
		p.expr(e.E)
		p.write(" IS ")
		if e.Neg {
			p.write("NOT ")
		}
		if e.CNull {
			p.write("CNULL)")
		} else {
			p.write("NULL)")
		}
	case *InExpr:
		p.write("(")
		p.expr(e.E)
		if e.Neg {
			p.write(" NOT IN (")
		} else {
			p.write(" IN (")
		}
		if e.Sub != nil {
			p.selectStmt(e.Sub)
		} else {
			p.exprs(e.List)
		}
		p.write("))")
	case *BetweenExpr:
		p.write("(")
		p.expr(e.E)
		if e.Neg {
			p.write(" NOT BETWEEN ")
		} else {
			p.write(" BETWEEN ")
		}
		p.expr(e.Lo)
		p.write(" AND ")
		p.expr(e.Hi)
		p.write(")")
	case *FuncCall:
		p.write(e.Name)
		if e.Star {
			p.write("(*)")
		} else {
			p.write("(")
			p.exprs(e.Args)
			p.write(")")
		}
	default:
		panic(fmt.Sprintf("parser: no printer for %T", e))
	}
}

// literal appends the literal as it parses back: a FLOAT with an integral
// value keeps a fraction, or "1.0" would come back an INTEGER and "-0.0"
// the INTEGER 0.
func (p *printer) literal(v sqltypes.Value) {
	switch v.Kind() {
	case sqltypes.KindString:
		p.quoted(v.Str())
	case sqltypes.KindInt:
		p.b = strconv.AppendInt(p.b, v.Int(), 10)
	case sqltypes.KindFloat:
		start := len(p.b)
		p.b = strconv.AppendFloat(p.b, v.Float(), 'g', -1, 64)
		if !bytes.ContainsAny(p.b[start:], ".e") {
			p.write(".0")
		}
	default:
		p.write(v.String())
	}
}
