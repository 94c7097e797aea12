package exec

import (
	"fmt"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// The binder turns a parsed expression into the form the evaluator
// (eval.go) runs, once per operator per statement.
//
// Resolved here: every column reference to its ordinal in the operator's
// input schema, every operator and function name to a small code, and
// which nodes are predicates (answered as true/false/unknown without
// building a BOOLEAN Value). Left to each row: reading the ordinal, the
// comparison, the arithmetic.
//
// Binding never fails. What cannot be evaluated — a column the schema does
// not have or has twice, an aggregate out of place — becomes a node that
// returns its error when, and only if, a row reaches it: a statement over
// no rows does not fail on a name it never looked at, and CROWDORDER's
// label may be the paper's free variable `p`, which resolves nowhere and
// falls back per row.
//
// An aggregate call binds to a bAgg node anywhere; GROUP BY's output reads
// it off its group, so any expression there may wrap one.
//
// Nodes are 48 bytes, hold no strings of their own (a literal node points
// at the AST's literal) and come from one slab per operator, sized by
// nodeCount before the first is taken; a bare literal handed to BindRow or
// EvalConst is not bound at all.

// boundKind says how a bound node evaluates.
type boundKind uint8

const (
	bLit     boundKind = iota // src: the *sqltypes.Value, the literal's or its slot's
	bCol                      // ord: the column's ordinal in the row
	bFail                     // src: the error evaluating it returns
	bAnd                      // kids: l, r
	bOr                       // kids: l, r
	bNot                      // kids: e
	bNeg                      // kids: e
	bCmp                      // op: cmpEq…; kids: l, r — or none: column ord against the *sqltypes.Value src
	bIsNull                   // op: 1 for IS CNULL; neg; kids: e
	bIn                       // neg; kids: e, then the list; src: the *parser.InExpr of the subquery form
	bBetween                  // neg; kids: e, lo, hi
	bLike                     // kids: l, r
	bConcat                   // kids: l, r
	bArith                    // op: arithAdd… (0: not an arithmetic operator); kids: l, r; src: the *parser.BinaryExpr
	bFunc                     // op: fnLower… (0: unknown); kids: the arguments; src: the *parser.FuncCall
	bCrowdEq                  // kids: l, r and, for CROWDEQUAL's third argument, the question
	bAgg                      // op: aggCount…; kids: the argument, none for COUNT(*); ord: the call's slot in its group's states (aggregateOp.Open numbers them), -1 for COUNT(*); src: the *parser.FuncCall
)

const (
	cmpEq uint8 = iota + 1
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

const (
	arithAdd uint8 = iota + 1
	arithSub
	arithMul
	arithDiv
	arithMod
)

const (
	fnLower uint8 = iota + 1
	fnUpper
	fnTrim
	fnLength
	fnAbs
	fnRound
	fnCoalesce
	fnSubstr
)

var (
	cmpOps   = map[string]uint8{"=": cmpEq, "<>": cmpNe, "<": cmpLt, "<=": cmpLe, ">": cmpGt, ">=": cmpGe}
	arithOps = map[string]uint8{"+": arithAdd, "-": arithSub, "*": arithMul, "/": arithDiv, "%": arithMod}
	funcs    = map[string]uint8{"LOWER": fnLower, "UPPER": fnUpper, "TRIM": fnTrim, "LENGTH": fnLength,
		"ABS": fnAbs, "ROUND": fnRound, "COALESCE": fnCoalesce, "SUBSTR": fnSubstr}
)

// bound is one node of a bound expression; its children are contiguous in
// the slab it came from.
type bound struct {
	kind boundKind
	op   uint8
	neg  bool
	ord  int32
	kids []bound
	src  any
}

// slab hands out runs of T. grow sizes it exactly; a take that finds it
// short starts a new chunk, doubling up to slabMax runs. A chunk is never
// moved, so what was handed out stays where it is.
type slab[T any] struct {
	free []T
	size int
}

const slabMax = 256

func (s *slab[T]) grow(n int) {
	if len(s.free) < n {
		s.free, s.size = make([]T, n), n
	}
}

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.grow(max(n, min(2*s.size, slabMax*n)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// binder hands out bound nodes from one slab per operator. bind grows it
// by what its expression needs; an operator with several expressions grows
// it first by their sum (bindAll does), for one allocation. A literal in a
// slot binds to the statement's own (Ctx.slots).
type binder struct {
	slab[bound]
	slots slots
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

// UseSlots binds vals, the executing statement's slot values in slot
// order: a plan compiled for any statement of the same shape then reads
// this one's values.
func (c *Ctx) UseSlots(vals []sqltypes.Value) { c.slots = append(c.slotBuf[:0], vals...) }

// probeKeys adds the scan's probe keys, at the statement's values, to
// prefill — over any key already there — and returns it: what a tuple
// solicitation pre-fills.
func (c *Ctx) probeKeys(s *plan.Scan, prefill map[string]sqltypes.Value) map[string]sqltypes.Value {
	for col, lit := range s.ProbeKeys {
		prefill[col] = *c.slots.of(lit)
	}
	return prefill
}

// nodeCount is the number of nodes bind makes of e.
func nodeCount(e parser.Expr) int {
	n := 0
	parser.WalkExprs(e, func(x parser.Expr) {
		n++
		if be, ok := x.(*parser.BinaryExpr); ok && columnVsLiteral(be) {
			n -= 2 // its operands, which the walk is about to count
		}
	})
	return n
}

// columnVsLiteral picks out `column <cmp> literal`, the shape of nearly
// every pushed filter. It binds to one node: both operands sit in the
// comparison.
func columnVsLiteral(x *parser.BinaryExpr) bool {
	_, isCol := x.L.(*parser.ColumnRef)
	_, isLit := x.R.(*parser.Literal)
	return isCol && isLit && cmpOps[x.Op] != 0
}

// bind resolves e against schema; a nil expression binds to nil.
func (b *binder) bind(e parser.Expr, schema []plan.Col) *bound {
	if e == nil {
		return nil
	}
	b.grow(nodeCount(e))
	dst := &b.take(1)[0]
	b.bindInto(dst, e, schema)
	return dst
}

// bindAll binds n expressions against one schema; out[i] is the root of
// expr(i).
func (b *binder) bindAll(n int, expr func(int) parser.Expr, schema []plan.Col) []bound {
	nodes := 0
	for i := 0; i < n; i++ {
		nodes += nodeCount(expr(i))
	}
	b.grow(nodes)
	out := b.take(n)
	for i := range out {
		b.bindInto(&out[i], expr(i), schema)
	}
	return out
}

// bindKids binds es as the contiguous children of dst.
func (b *binder) bindKids(dst *bound, schema []plan.Col, es ...parser.Expr) {
	dst.kids = b.take(len(es))
	for i, e := range es {
		b.bindInto(&dst.kids[i], e, schema)
	}
}

func fail(dst *bound, err error) { dst.kind, dst.src = bFail, err }

func (b *binder) bindInto(dst *bound, e parser.Expr, schema []plan.Col) {
	switch x := e.(type) {
	case *parser.Literal:
		dst.kind, dst.src = bLit, b.slots.of(x)
	case *parser.ColumnRef:
		i, err := plan.FindCol(schema, x.Table, x.Name)
		if err != nil {
			fail(dst, err)
			return
		}
		dst.kind, dst.ord = bCol, int32(i)
	case *parser.BinaryExpr:
		switch x.Op {
		case "AND":
			dst.kind = bAnd
		case "OR":
			dst.kind = bOr
		case "~=":
			dst.kind = bCrowdEq
		case "LIKE":
			dst.kind = bLike
		case "||":
			dst.kind = bConcat
		default:
			if op, ok := cmpOps[x.Op]; ok {
				dst.kind, dst.op = bCmp, op
				if columnVsLiteral(x) {
					b.bindInto(dst, x.L, schema) // the ordinal, or the failure
					if dst.kind == bCol {
						dst.kind, dst.src = bCmp, b.slots.of(x.R.(*parser.Literal))
					}
					return
				}
			} else if op, ok := arithOps[x.Op]; ok {
				dst.kind, dst.op, dst.src = bArith, op, x
			} else {
				fail(dst, fmt.Errorf("exec: unknown operator %q", x.Op))
				return
			}
		}
		b.bindKids(dst, schema, x.L, x.R)
	case *parser.UnaryExpr:
		switch x.Op {
		case "NOT":
			dst.kind = bNot
		case "-":
			dst.kind = bNeg
		default:
			fail(dst, fmt.Errorf("exec: unknown unary op %q", x.Op))
			return
		}
		b.bindKids(dst, schema, x.E)
	case *parser.IsNullExpr:
		dst.kind, dst.neg = bIsNull, x.Neg
		if x.CNull {
			dst.op = 1
		}
		b.bindKids(dst, schema, x.E)
	case *parser.InExpr:
		dst.kind, dst.neg = bIn, x.Neg
		if x.Sub != nil {
			dst.src = x
		}
		dst.kids = b.take(1 + len(x.List))
		b.bindInto(&dst.kids[0], x.E, schema)
		for i, item := range x.List {
			b.bindInto(&dst.kids[1+i], item, schema)
		}
	case *parser.BetweenExpr:
		dst.kind, dst.neg = bBetween, x.Neg
		b.bindKids(dst, schema, x.E, x.Lo, x.Hi)
	case *parser.FuncCall:
		switch {
		case x.IsAggregate():
			dst.kind, dst.op, dst.ord, dst.src = bAgg, aggFns[x.Name], -1, x
			if !x.Star {
				b.bindKids(dst, schema, x.Args...)
			}
		case x.Name == "CROWDORDER":
			fail(dst, fmt.Errorf("exec: CROWDORDER is only valid in ORDER BY"))
		case len(x.Args) == 0:
			fail(dst, fmt.Errorf("exec: %s requires arguments", x.Name))
		case x.Name == "CROWDEQUAL":
			dst.kind = bCrowdEq
			b.bindKids(dst, schema, x.Args...)
		default:
			dst.kind, dst.op, dst.src = bFunc, funcs[x.Name], x
			b.bindKids(dst, schema, x.Args...)
		}
	default:
		fail(dst, fmt.Errorf("exec: cannot evaluate %T", e))
	}
}
