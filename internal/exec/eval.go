// Package exec implements CrowdDB's physical operators: the classic
// Volcano-style relational operators plus the paper's three crowd
// operators (§3.2.1) — CrowdProbe (sourcing missing values and new
// tuples), CrowdJoin (index nested-loop join that solicits matching
// tuples), and CrowdCompare (crowd-answered CROWDEQUAL predicates and
// CROWDORDER sorting). Crowd answers are always memorized in the store so
// a repeated query never re-asks the crowd.
//
// Expressions are compiled once: each operator binds the expressions it
// owns against its input schema when it is built (bind.go), each node to
// a closure over its children's. Per row no name is looked up, and a
// predicate's answer is one of three small integers, not a Value built to
// be taken apart again.
package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// tri is a predicate's answer under SQL's three-valued logic. NULL and
// CNULL both read as unknown; a CNULL that reaches the evaluator was
// either not instantiable (no quorum) or not a crowd column.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

func (t tri) value() sqltypes.Value {
	if t == triUnknown {
		return sqltypes.Null()
	}
	return sqltypes.NewBool(t == triTrue)
}

// evalEnv is what evaluation needs beyond the row. A nil *evalEnv is the
// common case: no subqueries, no crowd, no group.
type evalEnv struct {
	// ctx runs IN (SELECT …) and, when it carries a compare cache, answers
	// CROWDEQUAL from the memo and the crowd; without it the first is an
	// error and the second unknown.
	ctx *Ctx
	// agg and group are the aggregation and the group in it whose
	// accumulated aggregates an aggregate call reads.
	agg   *aggTable
	group int32
}

// compare orders two values for every comparison predicate (=, <, …, IN,
// BETWEEN): by sqltypes.Compare; failing that, with one side converted to
// the other's type — H2's implicit conversion, `id = '42'` on an INTEGER;
// failing that, or with an unknown side, ok is false.
func compare(l, r sqltypes.Value) (c int, ok bool) {
	c, ok = sqltypes.Compare(l, r)
	if ok || l.IsUnknown() || r.IsUnknown() {
		return c, ok
	}
	if lc, err := l.Coerce(r.TypeOf()); err == nil {
		return sqltypes.Compare(lc, r)
	}
	if rc, err := r.Coerce(l.TypeOf()); err == nil {
		return sqltypes.Compare(l, rc)
	}
	return 0, false
}

// expr is a compiled expression: one closure per node, over its
// children's (bind.go). A predicate node answers as a tri, any other as a
// value; each reading derives from the other. The zero expr is no
// expression.
type expr struct {
	val  func(Row, *evalEnv) (sqltypes.Value, error)
	pred func(Row, *evalEnv) (tri, error)
}

// none reports whether x is no expression.
func (x expr) none() bool { return x.val == nil && x.pred == nil }

// keeps is a filter's keep/drop decision: only true keeps, and no filter
// (the zero expr) keeps every row.
func (x expr) keeps(row Row, env *evalEnv) (bool, error) {
	t, err := triTrue, error(nil)
	switch {
	case x.pred != nil:
		t, err = x.pred(row, env)
	case x.val != nil:
		t, err = x.truth(row, env)
	}
	return t == triTrue, err
}

// test evaluates x as a condition.
func (x expr) test(row Row, env *evalEnv) (tri, error) {
	if x.pred != nil {
		return x.pred(row, env)
	}
	return x.truth(row, env)
}

// truth reads x's value as a condition: unknown when it is NULL/CNULL or
// has no BOOLEAN reading.
func (x expr) truth(row Row, env *evalEnv) (tri, error) {
	v, err := x.val(row, env)
	if err != nil || v.IsUnknown() {
		return triUnknown, err
	}
	b, err := v.Coerce(sqltypes.TypeBool)
	if err != nil {
		return triUnknown, nil
	}
	return triOf(b.Bool()), nil
}

// eval computes x over one row.
func (x expr) eval(row Row, env *evalEnv) (sqltypes.Value, error) {
	if x.val != nil {
		return x.val(row, env)
	}
	t, err := x.pred(row, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	return t.value(), nil
}

func constant(v *sqltypes.Value) expr {
	return expr{val: func(Row, *evalEnv) (sqltypes.Value, error) { return *v, nil }}
}

func column(ord int) expr {
	return expr{val: func(row Row, _ *evalEnv) (sqltypes.Value, error) { return row[ord], nil }}
}

func failed(err error) expr {
	return expr{val: func(Row, *evalEnv) (sqltypes.Value, error) { return sqltypes.Value{}, err }}
}

// The compilers of the nodes with children compile them first, then
// return the node's closure. Each is a method of its own, too large to be
// inlined into bind: a closure inlined with its maker is compiled without
// inlining the small calls in its body.

// logic compiles AND and OR. Both sides are tested, always: a side's
// error — and a CROWDEQUAL's crowd question — does not depend on what the
// other side said.
func (b *binder) logic(x *parser.BinaryExpr, schema []plan.Col) expr {
	l, r := b.bind(x.L, schema), b.bind(x.R, schema)
	// decided is the answer one side can force: TRUE for OR, FALSE for AND.
	decided, otherwise := triOf(x.Op == "OR"), triOf(x.Op == "AND")
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		lt, err := l.test(row, env)
		if err != nil {
			return triUnknown, err
		}
		rt, err := r.test(row, env)
		if err != nil {
			return triUnknown, err
		}
		switch {
		case lt == decided || rt == decided:
			return decided, nil
		case lt == triUnknown || rt == triUnknown:
			return triUnknown, nil
		}
		return otherwise, nil
	}}
}

func (b *binder) not(x *parser.UnaryExpr, schema []plan.Col) expr {
	e := b.bind(x.E, schema)
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		v, err := e.eval(row, env)
		if err != nil || v.IsUnknown() {
			return triUnknown, err
		}
		bv, err := v.Coerce(sqltypes.TypeBool)
		if err != nil {
			return triUnknown, err
		}
		return triOf(!bv.Bool()), nil
	}}
}

// ordering is the answers of compare a comparison operator accepts.
type ordering struct{ lt, eq, gt bool }

// of is the comparison's answer to compare's.
func (o ordering) of(c int, ok bool) tri {
	if !ok {
		return triUnknown
	}
	return triOf(c < 0 && o.lt || c == 0 && o.eq || c > 0 && o.gt)
}

// both evaluates l, then r.
func both(l, r expr, row Row, env *evalEnv) (lv, rv sqltypes.Value, err error) {
	if lv, err = l.eval(row, env); err == nil {
		rv, err = r.eval(row, env)
	}
	return lv, rv, err
}

// isNull compiles IS [NOT] NULL and IS [NOT] CNULL: CNULL is a NULL flavor
// for IS NULL.
func (b *binder) isNull(x *parser.IsNullExpr, schema []plan.Col) expr {
	e, cnull, neg := b.bind(x.E, schema), x.CNull, x.Neg
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		v, err := e.eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		match := v.IsCNull() || (!cnull && v.IsNull())
		return triOf(match != neg), nil
	}}
}

// in compiles x [NOT] IN (list | subquery): a match decides it, otherwise
// an item it could not be compared with leaves it unknown.
func (b *binder) in(x *parser.InExpr, schema []plan.Col) expr {
	e := b.bind(x.E, schema)
	list := b.bindAll(len(x.List), func(i int) parser.Expr { return x.List[i] }, schema)
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		v, err := e.eval(row, env)
		if err != nil || v.IsUnknown() {
			return triUnknown, err
		}
		found, open := false, false
		see := func(iv sqltypes.Value) {
			if c, ok := compare(v, iv); !ok {
				open = true
			} else if c == 0 {
				found = true
			}
		}
		if x.Sub != nil {
			if env == nil || env.ctx == nil {
				return triUnknown, fmt.Errorf("exec: IN (SELECT ...) is not supported in this context")
			}
			sub, err := env.ctx.subqueryValues(x)
			if err != nil {
				return triUnknown, err
			}
			for _, iv := range sub {
				see(iv)
			}
		}
		// Every item is evaluated, match or not: a later item's error is
		// the statement's.
		for _, item := range list {
			iv, err := item.eval(row, env)
			if err != nil {
				return triUnknown, err
			}
			see(iv)
		}
		switch {
		case found:
			return triOf(!x.Neg), nil
		case open:
			return triUnknown, nil
		}
		return triOf(x.Neg), nil
	}}
}

func (b *binder) between(x *parser.BetweenExpr, schema []plan.Col) expr {
	e, lo, hi, neg := b.bind(x.E, schema), b.bind(x.Lo, schema), b.bind(x.Hi, schema), x.Neg
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		v, err := e.eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		lv, hv, err := both(lo, hi, row, env)
		if err != nil {
			return triUnknown, err
		}
		c1, ok1 := compare(v, lv)
		c2, ok2 := compare(v, hv)
		if !ok1 || !ok2 {
			return triUnknown, nil
		}
		return triOf((c1 >= 0 && c2 <= 0) != neg), nil
	}}
}

func (b *binder) like(x *parser.BinaryExpr, schema []plan.Col) expr {
	l, r := b.bind(x.L, schema), b.bind(x.R, schema)
	return expr{pred: func(row Row, env *evalEnv) (tri, error) {
		lv, rv, err := both(l, r, row, env)
		if err != nil || lv.IsUnknown() || rv.IsUnknown() {
			return triUnknown, err
		}
		return triOf(likeMatch(lv.String(), rv.String())), nil
	}}
}

func (b *binder) negate(x *parser.UnaryExpr, schema []plan.Col) expr {
	e := b.bind(x.E, schema)
	return expr{val: func(row Row, env *evalEnv) (sqltypes.Value, error) {
		v, err := e.eval(row, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		switch v.Kind() {
		case sqltypes.KindInt:
			if v.Int() == math.MinInt64 {
				return sqltypes.Value{}, errIntOverflow
			}
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.Float()), nil
		case sqltypes.KindNull, sqltypes.KindCNull:
			return v, nil
		}
		return sqltypes.Value{}, fmt.Errorf("exec: cannot negate %v", v)
	}}
}

// operate compiles || and the arithmetic operators: NULL when a side is
// unknown.
func (b *binder) operate(x *parser.BinaryExpr, schema []plan.Col) expr {
	op, l, r := x.Op, b.bind(x.L, schema), b.bind(x.R, schema)
	return expr{val: func(row Row, env *evalEnv) (sqltypes.Value, error) {
		lv, rv, err := both(l, r, row, env)
		switch {
		case err != nil:
			return sqltypes.Value{}, err
		case lv.IsUnknown() || rv.IsUnknown():
			return sqltypes.Null(), nil
		case op == "||":
			return sqltypes.NewString(lv.String() + rv.String()), nil
		}
		return arith(op, lv, rv)
	}}
}

// errIntOverflow is the error of an INTEGER result outside int64, as
// PostgreSQL's "bigint out of range": the result does not switch to FLOAT,
// since a column's type must not depend on the row.
var errIntOverflow = errors.New("exec: INTEGER overflow")

// arith is l op r over two known values: integers stay integers except
// under /, and overflow is an error; everything else goes through FLOAT;
// division and modulo by zero are NULL.
func arith(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt && op != "/" {
		a, b := l.Int(), r.Int()
		var c int64
		ok := true
		switch op {
		case "+":
			c = a + b
			ok = (c > a) == (b > 0)
		case "-":
			c = a - b
			ok = (c < a) == (b > 0)
		case "*":
			c = a * b
			ok = a == 0 || (c/a == b && !(a == -1 && b == math.MinInt64))
		case "%":
			if b == 0 {
				return sqltypes.Null(), nil
			}
			c = a % b
		}
		if !ok {
			return sqltypes.Value{}, errIntOverflow
		}
		return sqltypes.NewInt(c), nil
	}
	lf, err := l.Coerce(sqltypes.TypeFloat)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("exec: %v %s %v: %w", l, op, r, err)
	}
	rf, err := r.Coerce(sqltypes.TypeFloat)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("exec: %v %s %v: %w", l, op, r, err)
	}
	a, b := lf.Float(), rf.Float()
	switch op {
	case "+":
		return sqltypes.NewFloat(a + b), nil
	case "-":
		return sqltypes.NewFloat(a - b), nil
	case "*":
		return sqltypes.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(a / b), nil
	}
	if int64(b) == 0 { // %: the remainder is taken over the integer parts
		return sqltypes.Null(), nil
	}
	return sqltypes.NewFloat(float64(int64(a) % int64(b))), nil
}

// scalar compiles a call of a scalar function. Every argument is
// evaluated first; a NULL first argument is NULL, except to COALESCE.
func (b *binder) scalar(x *parser.FuncCall, schema []plan.Col) expr {
	name, args := x.Name, b.bindAll(len(x.Args), func(i int) parser.Expr { return x.Args[i] }, schema)
	var unknown error
	switch name {
	case "LOWER", "UPPER", "TRIM", "LENGTH", "ABS", "ROUND", "COALESCE", "SUBSTR":
	default:
		unknown = fmt.Errorf("exec: unknown function %s", name)
	}
	return expr{val: func(row Row, env *evalEnv) (sqltypes.Value, error) {
		var few [3]sqltypes.Value
		vals := few[:0]
		if len(args) > len(few) {
			vals = make([]sqltypes.Value, 0, len(args))
		}
		for _, a := range args {
			v, err := a.eval(row, env)
			if err != nil {
				return sqltypes.Value{}, err
			}
			vals = append(vals, v)
		}
		switch {
		case unknown != nil:
			return sqltypes.Value{}, unknown
		case name == "COALESCE":
			for _, v := range vals {
				if !v.IsUnknown() {
					return v, nil
				}
			}
			return sqltypes.Null(), nil
		case vals[0].IsUnknown():
			return sqltypes.Null(), nil
		}
		return apply(name, vals), nil
	}}
}

// apply is the scalar function name, not COALESCE, over its arguments'
// known values.
func apply(name string, args []sqltypes.Value) sqltypes.Value {
	switch name {
	case "LOWER":
		return sqltypes.NewString(strings.ToLower(args[0].String()))
	case "UPPER":
		return sqltypes.NewString(strings.ToUpper(args[0].String()))
	case "TRIM":
		return sqltypes.NewString(strings.TrimSpace(args[0].String()))
	case "LENGTH":
		return sqltypes.NewInt(int64(len(args[0].String())))
	case "ABS":
		if args[0].Kind() == sqltypes.KindInt {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v)
		}
		f := args[0].Float()
		if f < 0 { // not math.Abs: ABS(-0.0) stays -0.0
			f = -f
		}
		return sqltypes.NewFloat(f)
	case "ROUND":
		f := args[0].Float()
		if f < 0 {
			return sqltypes.NewInt(int64(f - 0.5))
		}
		return sqltypes.NewInt(int64(f + 0.5))
	}
	// SUBSTR(s [, start [, length]]), 1-based.
	s := args[0].String()
	start := 1
	if len(args) > 1 && !args[1].IsUnknown() {
		start = int(args[1].Int())
	}
	if start < 1 {
		start = 1
	}
	if start > len(s) {
		return sqltypes.NewString("")
	}
	out := s[start-1:]
	if len(args) > 2 && !args[2].IsUnknown() {
		if n := max(int(args[2].Int()), 0); n < len(out) {
			out = out[:n]
		}
	}
	return sqltypes.NewString(out)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-insensitively (matching H2's default collation behaviour for the
// paper's examples).
func likeMatch(s, pattern string) bool {
	return likeRunes([]rune(strings.ToLower(s)), []rune(strings.ToLower(pattern)))
}

// likeRunes is the iterative wildcard match, O(len(s)·len(p)): on a
// mismatch it retries the last % one rune further into s, never an
// earlier one.
func likeRunes(s, p []rune) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // the last % seen in p, and the s position it was tried at
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
