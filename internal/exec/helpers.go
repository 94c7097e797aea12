package exec

import (
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// EvalConst evaluates a row-independent expression (literals, arithmetic,
// scalar functions). Column references fail.
func EvalConst(e parser.Expr) (sqltypes.Value, error) {
	return eval(e, &evalCtx{})
}

// EvalRow evaluates an expression over one row with the given schema,
// without crowd support (CROWDEQUAL evaluates to unknown).
func EvalRow(e parser.Expr, row Row, schema []plan.Col) (sqltypes.Value, error) {
	return eval(e, &evalCtx{schema: schema, row: row})
}
