package exec

import (
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// EvalConst evaluates a row-independent expression (literals, arithmetic,
// scalar functions). Column references fail.
func EvalConst(e parser.Expr) (sqltypes.Value, error) {
	return BindRow(e, nil).Eval(nil)
}

// RowExpr is an expression bound to a schema, without crowd support
// (CROWDEQUAL evaluates to unknown): bind once, evaluate per row. A bare
// literal is kept as the value it reads: there is nothing to bind and
// nothing is allocated.
type RowExpr struct {
	val  *sqltypes.Value
	root *bound
}

// BindRow resolves e's column references against schema.
func BindRow(e parser.Expr, schema []plan.Col) RowExpr {
	return bindRow(e, schema, nil)
}

// BindRow is BindRow in c: a slot literal of e reads the value in its slot
// of c's slot storage (UseSlots), as a tree Build binds in c does.
func (c *Ctx) BindRow(e parser.Expr, schema []plan.Col) RowExpr {
	return bindRow(e, schema, c.slots)
}

func bindRow(e parser.Expr, schema []plan.Col, s slots) RowExpr {
	if lit, ok := e.(*parser.Literal); ok {
		return RowExpr{val: s.of(lit)}
	}
	b := binder{slots: s}
	return RowExpr{root: b.bind(e, schema)}
}

// Eval evaluates the expression over one row of the schema it was bound
// to.
func (x RowExpr) Eval(row Row) (sqltypes.Value, error) {
	if x.val != nil {
		return *x.val, nil
	}
	return x.root.eval(row, nil)
}
