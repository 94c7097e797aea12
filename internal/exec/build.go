package exec

import (
	"fmt"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// Build instantiates the physical operator tree for a logical plan
// (paper §3.2.2 step 3: "the logical plan is translated into a physical
// plan... Crowd operators and traditional operators of the relational
// algebra are instantiated"), its expressions bound to ctx's slot storage
// (UseSlots): it runs again for each statement of its plan's shape. With a
// trace, EXPLAIN ANALYZE stats or a metrics sink in the context, every
// operator (Build recurses) is wrapped in an instrumented shell.
func Build(n plan.Node, ctx *Ctx) (Operator, error) {
	op, err := build(n, ctx)
	if err != nil {
		return nil, err
	}
	return instrument(op, n, ctx), nil
}

func build(n plan.Node, ctx *Ctx) (Operator, error) {
	b := ctx.binder()
	switch x := n.(type) {
	case *plan.Scan:
		return &seqScan{rd: newReader(ctx, x)}, nil

	case *plan.CrowdProbe:
		if ctx.Tasks == nil && x.Filter == nil {
			// No crowd to ask and nothing left to decide: the stored rows
			// are the answer, streamed.
			return Build(x.Scan, ctx)
		}
		return &crowdProbe{node: x, rd: newReader(ctx, x.Scan), filter: b.bind(x.Filter, x.Schema())}, nil

	case *plan.Filter:
		in, err := Build(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return newFilter(ctx, x, in, &b), nil

	case *plan.Join:
		return buildJoin(x, ctx)

	case *plan.Project:
		in, err := Build(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		items := b.bindAll(len(x.Items), func(i int) parser.Expr { return x.Items[i].Expr }, in.Schema())
		return &projectOp{node: x, input: in, items: items}, nil

	case *plan.Aggregate:
		in, err := Build(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return newAggregate(x, in, &b), nil

	case *plan.Sort:
		in, err := Build(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return newSort(x, in, &b), nil

	case *plan.Limit:
		in, err := Build(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &limitOp{node: x, input: in}, nil

	case *plan.Distinct:
		in, err := Build(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &distinctOp{input: in}, nil
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", n)
}

// newReader is a table reader of node's rows with node's filter bound: it
// is opened, read and closed for each statement, and holds no row closed.
func newReader(ctx *Ctx, node *plan.Scan) tableReader {
	b := ctx.binder()
	return tableReader{node: node, filter: b.bind(node.Filter, node.Schema()), quota: node.StopAfter}
}

func buildJoin(j *plan.Join, ctx *Ctx) (Operator, error) {
	left, err := Build(j.Left, ctx)
	if err != nil {
		return nil, err
	}
	b := ctx.binder()

	if ctx.Tasks != nil {
		if probe, leftKey, rightCol, residual, ok := j.CrowdJoin(); ok {
			inner := probe.Scan
			b.grow(nodeCount(leftKey) + nodeCount(residual) + nodeCount(probe.Filter))
			return &crowdJoin{
				node: j, left: left, probe: probe, rd: newReader(ctx, inner), rightCol: rightCol,
				leftKey: b.bind(leftKey, left.Schema()), residual: b.bind(residual, j.Schema()),
				crowdFilter: b.bind(probe.Filter, inner.Schema()),
			}, nil
		}
	}

	right, err := Build(j.Right, ctx)
	if err != nil {
		return nil, err
	}

	if j.Type == parser.JoinInner && j.On != nil {
		if lk, rk, residual, ok := equiJoinKeys(j); ok {
			b.grow(nodeCount(lk) + nodeCount(rk) + nodeCount(residual))
			return &hashJoin{node: j, left: rowCursor{in: left}, right: right,
				lk: b.bind(lk, left.Schema()), rk: b.bind(rk, right.Schema()), res: b.bind(residual, j.Schema())}, nil
		}
	}
	return &nlJoin{node: j, left: rowCursor{in: left}, right: right, on: b.bind(j.On, j.Schema())}, nil
}

// equiJoinKeys extracts one equi-key pair usable for a hash join: an `=`
// whose sides' static types are in one key family. Equal keys are what
// compare calls equal only within a family; across families compare
// converts one side (an INTEGER 42 equals the STRING '42'), so such a pair
// stays in the residual, where it is evaluated as written.
func equiJoinKeys(j *plan.Join) (lk, rk parser.Expr, residual parser.Expr, ok bool) {
	leftSchema := j.Left.Schema()
	rightSchema := j.Right.Schema()
	for _, conj := range parser.SplitConjuncts(j.On) {
		be, isBin := conj.(*parser.BinaryExpr)
		if !isBin || be.Op != "=" || ok {
			residual = parser.And(residual, conj)
			continue
		}
		switch {
		case plan.CoveredBy(be.L, leftSchema) && plan.CoveredBy(be.R, rightSchema) &&
			oneKeyFamily(plan.InferType(be.L, leftSchema), plan.InferType(be.R, rightSchema)):
			lk, rk, ok = be.L, be.R, true
		case plan.CoveredBy(be.R, leftSchema) && plan.CoveredBy(be.L, rightSchema) &&
			oneKeyFamily(plan.InferType(be.R, leftSchema), plan.InferType(be.L, rightSchema)):
			lk, rk, ok = be.R, be.L, true
		default:
			residual = parser.And(residual, conj)
		}
	}
	return lk, rk, residual, ok
}

// oneKeyFamily reports whether two static types are both numbers, both
// strings or both booleans.
func oneKeyFamily(l, r sqltypes.Type) bool {
	family := func(t sqltypes.Type) sqltypes.Type {
		if t == sqltypes.TypeFloat {
			return sqltypes.TypeInt
		}
		return t
	}
	return l != sqltypes.TypeAny && family(l) == family(r)
}

// RowSink consumes streamed result rows; returning an error stops the
// statement (the row that errored is not retried).
type RowSink interface {
	Row(Row) error
}

// RunSink executes an operator tree, handing each row to sink the moment
// the root operator's batch carrying it lands — the streaming seam the
// jobs API consumes. With the vectorized crowd operators, that is
// first-quorum time: a CROWDORDER's settled prefix
// and a CROWDEQUAL's ready rows reach the sink while later groups are
// still open on the platform. Cancellation (Ctx.Context) is checked
// between batches, so a cancelled statement stops without draining its
// input.
func RunSink(op Operator, ctx *Ctx, sink RowSink) error {
	_, err := run(op, ctx, sink)
	return err
}

// Run executes an operator tree to completion and returns all rows
// (RunSink materialized). Safe without copying: batch headers are
// producer-owned but the Row values are consumer-owned (see the package
// contract), so accumulating them outlives the pipeline.
func Run(op Operator, ctx *Ctx) ([]Row, error) {
	return run(op, ctx, nil)
}

// run drives op to its end, handing each row to sink or, with a nil
// sink, collecting the rows. The tree is closed on every way out, a
// failed Open included, and may then be run again: the IN-subquery
// results the run memoized are let go as it ends.
func run(op Operator, ctx *Ctx, sink RowSink) ([]Row, error) {
	defer func() { clear(ctx.subqMemo) }()
	var rows []Row
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return nil, err
	}
	for {
		if err := ctx.Canceled(); err != nil {
			op.Close(ctx)
			return nil, err
		}
		b, err := op.NextBatch(ctx)
		if err != nil {
			op.Close(ctx)
			return nil, err
		}
		if b.Len() == 0 {
			break
		}
		if sink == nil {
			rows = append(rows, b.Rows...)
			continue
		}
		for _, r := range b.Rows {
			if err := sink.Row(r); err != nil {
				op.Close(ctx)
				return nil, err
			}
		}
	}
	if err := op.Close(ctx); err != nil {
		return nil, err
	}
	return rows, nil
}
