package exec

// The reference evaluator: the name-resolving, Value-building eval the
// bound evaluator (bind.go, eval.go) replaced, kept as the oracle of
// TestBoundEvalMatchesReference, FuzzBoundEval and the buffered aggregate
// reference. It is the old code verbatim except for refCtx.coerce: set, IN
// and BETWEEN compare with the conversion = already applied (refCompare);
// unset, they compare as they used to, which is the wrong answer the bound
// evaluator fixed — and for two guards where the old code panicked, which
// leaves nothing to compare: a float modulus whose integer part is 0
// (`5 % 0.5`) is NULL like any other division by zero, and a negative
// SUBSTR length is an empty string. INTEGER +, -, * and unary - follow
// SQL's rule rather than the old code, which wrapped around: the exact
// result (math/big) is the answer if it fits in 64 bits and an error if
// it does not.

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// refCrowdEqualFn resolves one CROWDEQUAL question; the executor wires it to
// the CrowdCompare machinery (cache + Task Manager).
type refCrowdEqualFn func(question, left, right string) (sqltypes.Value, error)

// refCtx carries what expression evaluation needs.
type refCtx struct {
	schema []plan.Col
	row    []sqltypes.Value
	// crowdEqual is nil when no crowd is attached; CROWDEQUAL then
	// evaluates to unknown (NULL).
	crowdEqual refCrowdEqualFn
	// exec gives access to subquery execution; nil in contexts where
	// IN (SELECT ...) is not supported.
	exec *Ctx
	// coerce makes IN and BETWEEN compare the way = does.
	coerce bool
}

// refCompare is the comparison of =, <>, <, …: sqltypes.Compare, then H2's
// implicit conversion either way.
func refCompare(l, r sqltypes.Value) (int, bool) {
	c, ok := sqltypes.Compare(l, r)
	if !ok && !l.IsUnknown() && !r.IsUnknown() {
		if lc, err := l.Coerce(r.TypeOf()); err == nil {
			c, ok = sqltypes.Compare(lc, r)
		} else if rc, err := r.Coerce(l.TypeOf()); err == nil {
			c, ok = sqltypes.Compare(l, rc)
		}
	}
	return c, ok
}

// refEval computes an expression over one row with SQL three-valued logic.
// NULL and CNULL both behave as "unknown"; a CNULL that reaches the
// evaluator was either not instantiable (no quorum) or not a crowd column.
func refEval(e parser.Expr, ctx *refCtx) (sqltypes.Value, error) {
	switch x := e.(type) {
	case *parser.Literal:
		return x.Val, nil
	case *parser.ColumnRef:
		i, err := plan.FindCol(ctx.schema, x.Table, x.Name)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return ctx.row[i], nil
	case *parser.BinaryExpr:
		return refEvalBinary(x, ctx)
	case *parser.UnaryExpr:
		v, err := refEval(x.E, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsUnknown() {
				return sqltypes.Null(), nil
			}
			b, err := v.Coerce(sqltypes.TypeBool)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool(!b.Bool()), nil
		case "-":
			switch v.Kind() {
			case sqltypes.KindInt:
				return refInt(new(big.Int).Neg(big.NewInt(v.Int())))
			case sqltypes.KindFloat:
				return sqltypes.NewFloat(-v.Float()), nil
			case sqltypes.KindNull, sqltypes.KindCNull:
				return v, nil
			}
			return sqltypes.Value{}, fmt.Errorf("exec: cannot negate %v", v)
		}
		return sqltypes.Value{}, fmt.Errorf("exec: unknown unary op %q", x.Op)
	case *parser.IsNullExpr:
		v, err := refEval(x.E, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		var match bool
		if x.CNull {
			match = v.IsCNull()
		} else {
			match = v.IsNull() || v.IsCNull() // CNULL is a NULL flavor for IS NULL
		}
		if x.Neg {
			match = !match
		}
		return sqltypes.NewBool(match), nil
	case *parser.InExpr:
		v, err := refEval(x.E, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if v.IsUnknown() {
			return sqltypes.Null(), nil
		}
		var list []sqltypes.Value
		if x.Sub != nil {
			if ctx.exec == nil {
				return sqltypes.Value{}, fmt.Errorf("exec: IN (SELECT ...) is not supported in this context")
			}
			list, err = ctx.exec.subqueryValues(x)
			if err != nil {
				return sqltypes.Value{}, err
			}
		} else {
			list = make([]sqltypes.Value, len(x.List))
			for i, item := range x.List {
				iv, err := refEval(item, ctx)
				if err != nil {
					return sqltypes.Value{}, err
				}
				list[i] = iv
			}
		}
		sawUnknown := false
		for _, iv := range list {
			if iv.IsUnknown() {
				sawUnknown = true
				continue
			}
			if ctx.coerce {
				if c, ok := refCompare(v, iv); !ok {
					sawUnknown = true
				} else if c == 0 {
					return sqltypes.NewBool(!x.Neg), nil
				}
				continue
			}
			if sqltypes.Equal(v, iv) {
				return sqltypes.NewBool(!x.Neg), nil
			}
		}
		if sawUnknown {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewBool(x.Neg), nil
	case *parser.BetweenExpr:
		v, err := refEval(x.E, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		lo, err := refEval(x.Lo, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		hi, err := refEval(x.Hi, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		c1, ok1 := sqltypes.Compare(v, lo)
		c2, ok2 := sqltypes.Compare(v, hi)
		if ctx.coerce {
			c1, ok1 = refCompare(v, lo)
			c2, ok2 = refCompare(v, hi)
		}
		if !ok1 || !ok2 {
			return sqltypes.Null(), nil
		}
		in := c1 >= 0 && c2 <= 0
		if x.Neg {
			in = !in
		}
		return sqltypes.NewBool(in), nil
	case *parser.FuncCall:
		return refEvalFunc(x, ctx)
	}
	return sqltypes.Value{}, fmt.Errorf("exec: cannot evaluate %T", e)
}

func refEvalBinary(x *parser.BinaryExpr, ctx *refCtx) (sqltypes.Value, error) {
	switch x.Op {
	case "AND", "OR":
		l, err := refEval(x.L, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		r, err := refEval(x.R, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return refEvalLogic(x.Op, l, r)
	case "~=":
		return refEvalCrowdEqual(ctx, "", x.L, x.R)
	}
	l, err := refEval(x.L, ctx)
	if err != nil {
		return sqltypes.Value{}, err
	}
	r, err := refEval(x.R, ctx)
	if err != nil {
		return sqltypes.Value{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := refCompare(l, r)
		if !ok {
			return sqltypes.Null(), nil
		}
		var b bool
		switch x.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return sqltypes.NewBool(b), nil
	case "LIKE":
		if l.IsUnknown() || r.IsUnknown() {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewBool(likeMatchRef(l.String(), r.String())), nil
	case "||":
		if l.IsUnknown() || r.IsUnknown() {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewString(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return refEvalArith(x.Op, l, r)
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown operator %q", x.Op)
}

// refEvalLogic implements SQL three-valued AND/OR.
func refEvalLogic(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	lb, lu := refBoolOf(l)
	rb, ru := refBoolOf(r)
	if op == "AND" {
		switch {
		case !lu && !lb, !ru && !rb:
			return sqltypes.NewBool(false), nil
		case lu || ru:
			return sqltypes.Null(), nil
		default:
			return sqltypes.NewBool(true), nil
		}
	}
	switch {
	case !lu && lb, !ru && rb:
		return sqltypes.NewBool(true), nil
	case lu || ru:
		return sqltypes.Null(), nil
	default:
		return sqltypes.NewBool(false), nil
	}
}

// refBoolOf returns (value, unknown).
func refBoolOf(v sqltypes.Value) (bool, bool) {
	if v.IsUnknown() {
		return false, true
	}
	b, err := v.Coerce(sqltypes.TypeBool)
	if err != nil {
		return false, true
	}
	return b.Bool(), false
}

func refEvalArith(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.IsUnknown() || r.IsUnknown() {
		return sqltypes.Null(), nil
	}
	lk, rk := l.Kind(), r.Kind()
	if lk == sqltypes.KindInt && rk == sqltypes.KindInt && op != "/" {
		a, b := l.Int(), r.Int()
		x, y := big.NewInt(a), big.NewInt(b)
		switch op {
		case "+":
			return refInt(x.Add(x, y))
		case "-":
			return refInt(x.Sub(x, y))
		case "*":
			return refInt(x.Mul(x, y))
		case "%":
			if b == 0 {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewInt(a % b), nil
		}
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
	case "%":
		if int64(b) == 0 { // was b == 0: `5 % 0.5` divided by int64(0.5) and panicked
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(float64(int64(a) % int64(b))), nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown arithmetic op %q", op)
}

// refInt is an exact INTEGER result: the value if it fits in int64, the
// overflow error if it does not.
func refInt(z *big.Int) (sqltypes.Value, error) {
	if !z.IsInt64() {
		return sqltypes.Value{}, errors.New("exec: INTEGER overflow")
	}
	return sqltypes.NewInt(z.Int64()), nil
}

func refEvalFunc(x *parser.FuncCall, ctx *refCtx) (sqltypes.Value, error) {
	if x.IsAggregate() {
		return sqltypes.Value{}, fmt.Errorf("exec: aggregate %s outside aggregation context", x.Name)
	}
	switch x.Name {
	case "CROWDEQUAL":
		question := ""
		if len(x.Args) == 3 {
			qv, err := refEval(x.Args[2], ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			question = qv.String()
		}
		return refEvalCrowdEqual(ctx, question, x.Args[0], x.Args[1])
	case "CROWDORDER":
		return sqltypes.Value{}, fmt.Errorf("exec: CROWDORDER is only valid in ORDER BY")
	}
	args := make([]sqltypes.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := refEval(a, ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "LOWER", "UPPER", "TRIM", "LENGTH":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
		s := args[0].String()
		switch x.Name {
		case "LOWER":
			return sqltypes.NewString(strings.ToLower(s)), nil
		case "UPPER":
			return sqltypes.NewString(strings.ToUpper(s)), nil
		case "TRIM":
			return sqltypes.NewString(strings.TrimSpace(s)), nil
		default:
			return sqltypes.NewInt(int64(len(s))), nil
		}
	case "ABS":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
		switch args[0].Kind() {
		case sqltypes.KindInt:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v), nil
		default:
			f := args[0].Float()
			if f < 0 {
				f = -f
			}
			return sqltypes.NewFloat(f), nil
		}
	case "ROUND":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
		f := args[0].Float()
		if f < 0 {
			return sqltypes.NewInt(int64(f - 0.5)), nil
		}
		return sqltypes.NewInt(int64(f + 0.5)), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsUnknown() {
				return a, nil
			}
		}
		return sqltypes.Null(), nil
	case "SUBSTR":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
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
			n := max(int(args[2].Int()), 0) // was unclamped: SUBSTR(s, 1, -3) sliced out[:-3] and panicked
			if n < len(out) {
				out = out[:n]
			}
		}
		return sqltypes.NewString(out), nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown function %s", x.Name)
}

// refEvalCrowdEqual renders both sides and delegates to the crowd resolver.
func refEvalCrowdEqual(ctx *refCtx, question string, le, re parser.Expr) (sqltypes.Value, error) {
	l, err := refEval(le, ctx)
	if err != nil {
		return sqltypes.Value{}, err
	}
	r, err := refEval(re, ctx)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if l.IsUnknown() || r.IsUnknown() {
		return sqltypes.Null(), nil
	}
	// Trivially equal values need no crowd.
	if sqltypes.Equal(l, r) {
		return sqltypes.NewBool(true), nil
	}
	if ctx.crowdEqual == nil {
		return sqltypes.Null(), nil
	}
	return ctx.crowdEqual(question, l.String(), r.String())
}
