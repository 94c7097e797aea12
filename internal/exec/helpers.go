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
// literal — every value of an INSERT's VALUES list — is kept as it is:
// there is nothing to bind and nothing is allocated.
type RowExpr struct {
	lit  *parser.Literal
	root *bound
}

// BindRow resolves e's column references against schema.
func BindRow(e parser.Expr, schema []plan.Col) RowExpr {
	if lit, ok := e.(*parser.Literal); ok {
		return RowExpr{lit: lit}
	}
	var b binder
	return RowExpr{root: b.bind(e, schema)}
}

// Eval evaluates the expression over one row of the schema it was bound
// to.
func (x RowExpr) Eval(row Row) (sqltypes.Value, error) {
	if x.lit != nil {
		return x.lit.Val, nil
	}
	return x.root.eval(row, nil)
}
