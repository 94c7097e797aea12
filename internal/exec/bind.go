package exec

import (
	"fmt"
	"strings"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// The binder compiles a parsed expression into the form the evaluator
// (eval.go) runs, once per operator, when Build makes the tree: each node
// becomes one closure over its children's.
//
// Resolved here: every column reference to its ordinal in the operator's
// input schema, every operator and function name to the code that applies
// it, and which nodes are predicates (answered as true/false/unknown
// without building a BOOLEAN Value). Left to each row: reading the
// ordinal, the comparison, the arithmetic.
//
// Binding never fails. What cannot be evaluated — a column the schema does
// not have or has twice, an aggregate out of place — becomes a node that
// returns its error when, and only if, a row reaches it: a statement over
// no rows does not fail on a name it never looked at, and CROWDORDER's
// label may be the paper's free variable `p`, which resolves nowhere and
// falls back per row.
//
// An aggregate call compiles to a read of its group's state anywhere;
// GROUP BY's output reads it off its group, so any expression there may
// wrap one. The same pass hands an aggregation its calls and a crowd
// filter its CROWDEQUAL calls: each is compiled once, for the rows and for
// the operator that gathers them.

// binder compiles expressions over the statement's slots: a literal in a
// slot reads its place in the context's slot storage (Ctx.UseSlots).
type binder struct {
	slots slots
	// aggs, when set, receives each aggregate call compiled, but one under
	// another's argument, which stays out of place: an aggregation's calls,
	// a call's index its slot in a group's states.
	aggs *[]aggCall
	// eqs, when set, receives each CROWDEQUAL call compiled, in the order
	// parser.WalkExprs visits them: a crowd filter's.
	eqs *[]crowdEqualCall
}

// binder starts an operator's binder over the statement's slots.
func (c *Ctx) binder() binder { return binder{slots: c.slots} }

// slots are the executing statement's slot values in slot order.
type slots []sqltypes.Value

// of is the value l binds to: the statement's own in l's slot, l's own
// when it holds none.
func (s slots) of(l *parser.Literal) *sqltypes.Value {
	if l.Slot > 0 && l.Slot <= len(s) {
		return &s[l.Slot-1]
	}
	return &l.Val
}

// UseSlots copies vals, the executing statement's slot values in slot
// order, into c's slot storage, which the first call makes and which never
// moves: a tree bound in c (Build) reads each later call's values.
func (c *Ctx) UseSlots(vals []sqltypes.Value) {
	if len(c.slots) != len(vals) {
		c.slots = append(c.slotBuf[:0], vals...)
	}
	copy(c.slots, vals)
}

// probeKeys adds the scan's probe keys, at the statement's values, to
// prefill — over any key already there — and returns it: what a tuple
// solicitation pre-fills.
func (c *Ctx) probeKeys(s *plan.Scan, prefill map[string]sqltypes.Value) map[string]sqltypes.Value {
	for col, lit := range s.ProbeKeys {
		prefill[col] = *c.slots.of(lit)
	}
	return prefill
}

// bindAll binds n expressions against one schema; out[i] is at(i)'s.
func (b *binder) bindAll(n int, at func(int) parser.Expr, schema []plan.Col) []expr {
	out := make([]expr, n)
	for i := range out {
		out[i] = b.bind(at(i), schema)
	}
	return out
}

// bind compiles e against schema; a nil expression is the zero expr.
func (b *binder) bind(e parser.Expr, schema []plan.Col) expr {
	switch x := e.(type) {
	case nil:
		return expr{}
	case *parser.Literal:
		return constant(b.slots.of(x))
	case *parser.ColumnRef:
		i, err := plan.FindCol(schema, x.Table, x.Name)
		if err != nil {
			return failed(err)
		}
		return column(i)
	case *parser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			return b.logic(x, schema)
		case "~=":
			return b.crowdEqual(x.L, x.R, nil, schema)
		case "LIKE":
			return b.like(x, schema)
		case "||", "+", "-", "*", "/", "%":
			return b.operate(x, schema)
		case "=", "<>", "<", "<=", ">", ">=":
			return b.comparison(x, schema)
		}
		return failed(fmt.Errorf("exec: unknown operator %q", x.Op))
	case *parser.UnaryExpr:
		switch x.Op {
		case "NOT":
			return b.not(x, schema)
		case "-":
			return b.negate(x, schema)
		}
		return failed(fmt.Errorf("exec: unknown unary op %q", x.Op))
	case *parser.IsNullExpr:
		return b.isNull(x, schema)
	case *parser.InExpr:
		return b.in(x, schema)
	case *parser.BetweenExpr:
		return b.between(x, schema)
	case *parser.FuncCall:
		switch {
		case x.IsAggregate():
			return b.aggregate(x, schema)
		case x.Name == "CROWDORDER":
			return failed(fmt.Errorf("exec: CROWDORDER is only valid in ORDER BY"))
		case len(x.Args) == 0:
			return failed(fmt.Errorf("exec: %s requires arguments", x.Name))
		case x.Name == "CROWDEQUAL":
			var question parser.Expr
			if len(x.Args) == 3 {
				question = x.Args[2]
			}
			return b.crowdEqual(x.Args[0], x.Args[1], question, schema)
		}
		return b.scalar(x, schema)
	}
	return failed(fmt.Errorf("exec: cannot evaluate %T", e))
}

// comparison compiles =, <>, <, <=, > and >=. An operator spells the
// orderings it accepts: `<=` is < or =, `<>` is < or >. `column <cmp>
// literal`, the shape of nearly every pushed filter, is one closure over
// the column's ordinal and the literal's value.
func (b *binder) comparison(x *parser.BinaryExpr, schema []plan.Col) expr {
	o := ordering{lt: strings.Contains(x.Op, "<"), eq: strings.Contains(x.Op, "="), gt: strings.Contains(x.Op, ">")}
	col, isCol := x.L.(*parser.ColumnRef)
	lit, isLit := x.R.(*parser.Literal)
	if isCol && isLit {
		ord, err := plan.FindCol(schema, col.Table, col.Name)
		if err != nil {
			return failed(err)
		}
		v := b.slots.of(lit)
		return expr{pred: func(row Row, _ *evalEnv) (tri, error) { return o.of(compare(row[ord], *v)), nil }}
	}
	l, r := b.bind(x.L, schema), b.bind(x.R, schema)
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		lv, rv, err := both(l, r, row, env)
		if err != nil {
			return triUnknown, err
		}
		return o.of(compare(lv, rv)), nil
	}}
}

// aggregate compiles an aggregate call to a read of its state in the
// group being emitted, and hands the call to the aggregation gathering
// them. COUNT(*), which the group counts itself, reads slot -1.
func (b *binder) aggregate(x *parser.FuncCall, schema []plan.Col) expr {
	fn, slot := aggFns[x.Name], int32(-1)
	if !x.Star && len(x.Args) > 0 {
		aggs := b.aggs
		b.aggs = nil
		arg := b.bind(x.Args[0], schema)
		if b.aggs = aggs; aggs != nil {
			slot = int32(len(*aggs))
			*aggs = append(*aggs, aggCall{fn: fn, arg: arg})
		}
	}
	return expr{val: func(_ Row, env *evalEnv) (sqltypes.Value, error) {
		if env == nil || env.agg == nil {
			return sqltypes.Value{}, fmt.Errorf("exec: aggregate %s outside aggregation context", x.Name)
		}
		return env.agg.value(env.group, slot, fn)
	}}
}

// crowdEqual compiles l ~= r, under question when it is not nil, and hands
// the call to the crowd filter gathering them: its place is taken before
// its operands', which may hold calls of their own.
func (b *binder) crowdEqual(l, r, question parser.Expr, schema []plan.Col) expr {
	at := -1
	if b.eqs != nil {
		at = len(*b.eqs)
		*b.eqs = append(*b.eqs, crowdEqualCall{})
	}
	c := crowdEqualCall{l: b.bind(l, schema), r: b.bind(r, schema), question: b.bind(question, schema)}
	if at >= 0 {
		(*b.eqs)[at] = c
	}
	return expr{val: c.eval}
}
