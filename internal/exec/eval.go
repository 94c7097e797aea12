// Package exec implements CrowdDB's physical operators: the classic
// Volcano-style relational operators plus the paper's three crowd
// operators (§3.2.1) — CrowdProbe (sourcing missing values and new
// tuples), CrowdJoin (index nested-loop join that solicits matching
// tuples), and CrowdCompare (crowd-answered CROWDEQUAL predicates and
// CROWDORDER sorting). Crowd answers are always memorized in the store so
// a repeated query never re-asks the crowd.
//
// Expressions are evaluated in two steps. Each operator binds the
// expressions it owns against its input schema when it is built (bind.go);
// per row, this file walks the bound nodes: no name is compared, no
// operator string is switched on and a predicate's answer is one of three
// small integers, not a Value built to be taken apart again.
package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"crowddb/internal/parser"
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

func (t tri) not() tri {
	switch t {
	case triFalse:
		return triTrue
	case triTrue:
		return triFalse
	}
	return triUnknown
}

func (t tri) value() sqltypes.Value {
	if t == triUnknown {
		return sqltypes.Null()
	}
	return sqltypes.NewBool(t == triTrue)
}

// truth reads a value as a condition: unknown when it is NULL/CNULL or
// has no BOOLEAN reading.
func truth(v sqltypes.Value) tri {
	if v.IsUnknown() {
		return triUnknown
	}
	b, err := v.Coerce(sqltypes.TypeBool)
	if err != nil {
		return triUnknown
	}
	return triOf(b.Bool())
}

// evalEnv is what evaluation needs beyond the row. A nil *evalEnv is the
// common case: no subqueries, no crowd, no group.
type evalEnv struct {
	// ctx runs IN (SELECT …) and, when it carries a compare cache, answers
	// CROWDEQUAL from the memo and the crowd; without it the first is an
	// error and the second unknown.
	ctx *Ctx
	// agg and group are the aggregation and the group in it whose
	// accumulated aggregates bAgg nodes read.
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

// keeps is a filter's keep/drop decision: only true keeps, and no filter
// (nil) keeps every row.
func (n *bound) keeps(row Row, env *evalEnv) (bool, error) {
	if n == nil {
		return true, nil
	}
	t, err := n.test(row, env)
	return t == triTrue, err
}

// test evaluates n as a condition. AND and OR evaluate both sides, always:
// a side's error — and a CROWDEQUAL's crowd question — does not depend on
// what the other side said.
func (n *bound) test(row Row, env *evalEnv) (tri, error) {
	switch n.kind {
	case bAnd, bOr:
		l, err := n.kids[0].test(row, env)
		if err != nil {
			return triUnknown, err
		}
		r, err := n.kids[1].test(row, env)
		if err != nil {
			return triUnknown, err
		}
		decided := triOf(n.kind == bOr) // the answer one side can force
		switch {
		case l == decided || r == decided:
			return decided, nil
		case l == triUnknown || r == triUnknown:
			return triUnknown, nil
		}
		return decided.not(), nil
	case bNot:
		v, err := n.kids[0].eval(row, env)
		if err != nil || v.IsUnknown() {
			return triUnknown, err
		}
		b, err := v.Coerce(sqltypes.TypeBool)
		if err != nil {
			return triUnknown, err
		}
		return triOf(!b.Bool()), nil
	case bCmp:
		var l, r sqltypes.Value
		if n.kids == nil {
			l, r = row[n.ord], *n.src.(*sqltypes.Value)
		} else {
			var err error
			if l, err = n.kids[0].eval(row, env); err != nil {
				return triUnknown, err
			}
			if r, err = n.kids[1].eval(row, env); err != nil {
				return triUnknown, err
			}
		}
		c, ok := compare(l, r)
		if !ok {
			return triUnknown, nil
		}
		switch n.op {
		case cmpEq:
			return triOf(c == 0), nil
		case cmpNe:
			return triOf(c != 0), nil
		case cmpLt:
			return triOf(c < 0), nil
		case cmpLe:
			return triOf(c <= 0), nil
		case cmpGt:
			return triOf(c > 0), nil
		}
		return triOf(c >= 0), nil
	case bIsNull:
		v, err := n.kids[0].eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		match := v.IsCNull() || (n.op == 0 && v.IsNull()) // CNULL is a NULL flavor for IS NULL
		return triOf(match != n.neg), nil
	case bIn:
		return n.testIn(row, env)
	case bBetween:
		v, err := n.kids[0].eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		lo, err := n.kids[1].eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		hi, err := n.kids[2].eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		c1, ok1 := compare(v, lo)
		c2, ok2 := compare(v, hi)
		if !ok1 || !ok2 {
			return triUnknown, nil
		}
		return triOf((c1 >= 0 && c2 <= 0) != n.neg), nil
	case bLike:
		l, err := n.kids[0].eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		r, err := n.kids[1].eval(row, env)
		if err != nil || l.IsUnknown() || r.IsUnknown() {
			return triUnknown, err
		}
		return triOf(likeMatch(l.String(), r.String())), nil
	}
	v, err := n.eval(row, env)
	if err != nil {
		return triUnknown, err
	}
	return truth(v), nil
}

// testIn is x [NOT] IN (list | subquery): a match decides it, otherwise an
// item it could not be compared with leaves it unknown.
func (n *bound) testIn(row Row, env *evalEnv) (tri, error) {
	v, err := n.kids[0].eval(row, env)
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
	if n.src != nil {
		if env == nil || env.ctx == nil {
			return triUnknown, fmt.Errorf("exec: IN (SELECT ...) is not supported in this context")
		}
		list, err := env.ctx.subqueryValues(n.src.(*parser.InExpr))
		if err != nil {
			return triUnknown, err
		}
		for _, iv := range list {
			see(iv)
		}
	}
	// Every item is evaluated, match or not: a later item's error is the
	// statement's.
	for i := range n.kids[1:] {
		iv, err := n.kids[1+i].eval(row, env)
		if err != nil {
			return triUnknown, err
		}
		see(iv)
	}
	switch {
	case found:
		return triOf(!n.neg), nil
	case open:
		return triUnknown, nil
	}
	return triOf(n.neg), nil
}

// eval computes n over one row.
func (n *bound) eval(row Row, env *evalEnv) (sqltypes.Value, error) {
	switch n.kind {
	case bLit:
		return *n.src.(*sqltypes.Value), nil
	case bCol:
		return row[n.ord], nil
	case bFail:
		return sqltypes.Value{}, n.src.(error)
	case bNeg:
		v, err := n.kids[0].eval(row, env)
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
	case bConcat, bArith:
		l, err := n.kids[0].eval(row, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		r, err := n.kids[1].eval(row, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if l.IsUnknown() || r.IsUnknown() {
			return sqltypes.Null(), nil
		}
		if n.kind == bConcat {
			return sqltypes.NewString(l.String() + r.String()), nil
		}
		return n.arith(l, r)
	case bFunc:
		return n.call(row, env)
	case bCrowdEq:
		return n.crowdEqual(row, env)
	case bAgg:
		if env == nil || env.agg == nil {
			return sqltypes.Value{}, fmt.Errorf("exec: aggregate %s outside aggregation context", n.src.(*parser.FuncCall).Name)
		}
		return env.agg.value(env.group, n.ord, n.op)
	}
	t, err := n.test(row, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	return t.value(), nil
}

// errIntOverflow is the error of an INTEGER result outside int64, as
// PostgreSQL's "bigint out of range": the result does not switch to FLOAT,
// since a column's type must not depend on the row.
var errIntOverflow = errors.New("exec: INTEGER overflow")

// arith is l <op> r over two known values: integers stay integers except
// under /, and overflow is an error; everything else goes through FLOAT;
// division and modulo by zero are NULL.
func (n *bound) arith(l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt && n.op != arithDiv {
		a, b := l.Int(), r.Int()
		var c int64
		ok := true
		switch n.op {
		case arithAdd:
			c = a + b
			ok = (c > a) == (b > 0)
		case arithSub:
			c = a - b
			ok = (c < a) == (b > 0)
		case arithMul:
			c = a * b
			ok = a == 0 || (c/a == b && !(a == -1 && b == math.MinInt64))
		case arithMod:
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
	sym := n.src.(*parser.BinaryExpr).Op
	lf, err := l.Coerce(sqltypes.TypeFloat)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("exec: %v %s %v: %w", l, sym, r, err)
	}
	rf, err := r.Coerce(sqltypes.TypeFloat)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("exec: %v %s %v: %w", l, sym, r, err)
	}
	a, b := lf.Float(), rf.Float()
	switch n.op {
	case arithAdd:
		return sqltypes.NewFloat(a + b), nil
	case arithSub:
		return sqltypes.NewFloat(a - b), nil
	case arithMul:
		return sqltypes.NewFloat(a * b), nil
	case arithDiv:
		if b == 0 {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(a / b), nil
	case arithMod:
		if int64(b) == 0 { // the remainder is taken over the integer parts
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(float64(int64(a) % int64(b))), nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown arithmetic op %q", sym)
}

// call applies a scalar function. Every argument is evaluated first.
func (n *bound) call(row Row, env *evalEnv) (sqltypes.Value, error) {
	var few [3]sqltypes.Value
	args := few[:0]
	if len(n.kids) > len(few) {
		args = make([]sqltypes.Value, 0, len(n.kids))
	}
	for i := range n.kids {
		v, err := n.kids[i].eval(row, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		args = append(args, v)
	}
	if n.op == 0 {
		return sqltypes.Value{}, fmt.Errorf("exec: unknown function %s", n.src.(*parser.FuncCall).Name)
	}
	if n.op == fnCoalesce {
		for _, a := range args {
			if !a.IsUnknown() {
				return a, nil
			}
		}
		return sqltypes.Null(), nil
	}
	if args[0].IsUnknown() {
		return sqltypes.Null(), nil
	}
	switch n.op {
	case fnLower:
		return sqltypes.NewString(strings.ToLower(args[0].String())), nil
	case fnUpper:
		return sqltypes.NewString(strings.ToUpper(args[0].String())), nil
	case fnTrim:
		return sqltypes.NewString(strings.TrimSpace(args[0].String())), nil
	case fnLength:
		return sqltypes.NewInt(int64(len(args[0].String()))), nil
	case fnAbs:
		if args[0].Kind() == sqltypes.KindInt {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v), nil
		}
		f := args[0].Float()
		if f < 0 {
			f = -f
		}
		return sqltypes.NewFloat(f), nil
	case fnRound:
		f := args[0].Float()
		if f < 0 {
			return sqltypes.NewInt(int64(f - 0.5)), nil
		}
		return sqltypes.NewInt(int64(f + 0.5)), nil
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
		return sqltypes.NewString(""), nil
	}
	out := s[start-1:]
	if len(args) > 2 && !args[2].IsUnknown() {
		if n := max(int(args[2].Int()), 0); n < len(out) {
			out = out[:n]
		}
	}
	return sqltypes.NewString(out), nil
}

// crowdEqual renders both sides and asks the memo, then the crowd. The
// question is evaluated first, trivially equal values need no crowd, and
// with no crowd attached the answer is unknown.
func (n *bound) crowdEqual(row Row, env *evalEnv) (sqltypes.Value, error) {
	question := ""
	if len(n.kids) == 3 {
		qv, err := n.kids[2].eval(row, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		question = qv.String()
	}
	l, err := n.kids[0].eval(row, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	r, err := n.kids[1].eval(row, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if l.IsUnknown() || r.IsUnknown() {
		return sqltypes.Null(), nil
	}
	if sqltypes.Equal(l, r) {
		return sqltypes.NewBool(true), nil
	}
	if env == nil || env.ctx == nil || env.ctx.Cache == nil {
		return sqltypes.Null(), nil
	}
	return resolveEqual(env.ctx, question, l.String(), r.String())
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
