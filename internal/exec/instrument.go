package exec

// Per-operator instrumentation: when a statement runs with a trace or an
// EXPLAIN ANALYZE stats map, Build wraps every operator in an
// instrumented shell that times open/next/close, counts rows out, and
// attributes crowd work (comparisons, probes, solicited tuples) to the
// operator that caused it by diffing the shared Stats before and after.
// When neither is requested the raw operator is returned, so traced and
// untraced executions follow byte-identical code on the row hot path.

import (
	"fmt"
	"time"

	"crowddb/internal/obs"
	"crowddb/internal/plan"
	"crowddb/internal/taskmgr"
)

// OpStats is one operator's measured actuals, inclusive of its children
// (a child's rows and crowd work happen inside the parent's NextBatch
// calls).
type OpStats struct {
	RowsOut          int64
	WallNanos        int64
	Comparisons      int
	ProbeRequests    int
	NewTupleRequests int
	CacheHits        int
	// PeakBufferedRows is the operator's own peak materialization (rows
	// held at once: a sort's input, a hash join's build table, a scan's
	// snapshot) — the vectorized pipeline's per-operator memory figure. 0
	// for fully streaming operators.
	PeakBufferedRows int64
	// Batches counts NextBatch calls that returned rows; with RowsOut it
	// gives the realized batch fill.
	Batches int64
}

// Cents prices the operator's crowd work under a task configuration.
func (st *OpStats) Cents(cfg taskmgr.Config) float64 {
	return float64(st.Comparisons+st.ProbeRequests)*float64(cfg.Reward)*float64(cfg.Assignments) +
		float64(st.NewTupleRequests)*float64(cfg.Reward)*float64(cfg.NewTupleAssignments)
}

// OpMetricsSink receives each instrumented operator's final accounting
// at Close; the engine funnels it into the /metrics registry keyed by
// operator name.
type OpMetricsSink interface {
	ObserveOp(op string, st OpStats)
}

// bufferedReporter is implemented by operators that materialize rows;
// the instrumented shell reads it at Close for PeakBufferedRows.
type bufferedReporter interface {
	bufferedRows() int64
}

// instrument wraps op when the context asks for tracing, per-operator
// stats, or operator metrics; otherwise it returns op untouched.
func instrument(op Operator, n plan.Node, ctx *Ctx) Operator {
	if ctx.Trace == nil && ctx.OpStats == nil && ctx.OpMetrics == nil {
		return op
	}
	return &instrumentedOp{op: op, node: n, label: opLabel(n)}
}

type instrumentedOp struct {
	op   Operator
	node plan.Node
	span *obs.Span
	// label is the span name, "op:" + the operator's name: built once, and
	// only a scan's needs building.
	label string
	st    OpStats // the crowd counters hold ctx.Stats' at Open until Close
}

func (o *instrumentedOp) Schema() []plan.Col { return o.op.Schema() }

func (o *instrumentedOp) Open(ctx *Ctx) error {
	if ctx.Trace != nil {
		o.span = ctx.Trace.Span(ctx.Span, o.label)
	}
	o.st.Comparisons, o.st.ProbeRequests = ctx.Stats.Comparisons, ctx.Stats.ProbeRequests
	o.st.NewTupleRequests, o.st.CacheHits = ctx.Stats.NewTupleRequests, ctx.Stats.CacheHits
	parent := ctx.Span
	ctx.Span = o.span
	t0 := time.Now()
	err := o.op.Open(ctx)
	o.st.WallNanos += time.Since(t0).Nanoseconds()
	ctx.Span = parent
	return err
}

func (o *instrumentedOp) NextBatch(ctx *Ctx) (*Batch, error) {
	parent := ctx.Span
	ctx.Span = o.span
	t0 := time.Now()
	b, err := o.op.NextBatch(ctx)
	o.st.WallNanos += time.Since(t0).Nanoseconds()
	ctx.Span = parent
	if err == nil && b.Len() > 0 {
		o.st.RowsOut += int64(b.Len())
		o.st.Batches++
	}
	return b, err
}

func (o *instrumentedOp) Close(ctx *Ctx) error {
	parent := ctx.Span
	ctx.Span = o.span
	t0 := time.Now()
	err := o.op.Close(ctx)
	o.st.WallNanos += time.Since(t0).Nanoseconds()
	ctx.Span = parent
	o.st.Comparisons = ctx.Stats.Comparisons - o.st.Comparisons
	o.st.ProbeRequests = ctx.Stats.ProbeRequests - o.st.ProbeRequests
	o.st.NewTupleRequests = ctx.Stats.NewTupleRequests - o.st.NewTupleRequests
	o.st.CacheHits = ctx.Stats.CacheHits - o.st.CacheHits
	if br, ok := o.op.(bufferedReporter); ok {
		o.st.PeakBufferedRows = br.bufferedRows()
	}
	if ctx.OpStats != nil {
		snap := o.st
		ctx.OpStats[o.node] = &snap
	}
	if ctx.OpMetrics != nil {
		ctx.OpMetrics.ObserveOp(o.label[len("op:"):], o.st)
	}
	if o.span != nil {
		o.span.SetInt("rows_out", o.st.RowsOut)
		o.span.SetAttr("wall", time.Duration(o.st.WallNanos).Round(time.Microsecond).String())
		if o.st.Comparisons > 0 {
			o.span.SetInt("comparisons", int64(o.st.Comparisons))
		}
		if o.st.ProbeRequests > 0 {
			o.span.SetInt("probe_requests", int64(o.st.ProbeRequests))
		}
		if o.st.NewTupleRequests > 0 {
			o.span.SetInt("new_tuple_requests", int64(o.st.NewTupleRequests))
		}
		if o.st.CacheHits > 0 {
			o.span.SetInt("cache_hits", int64(o.st.CacheHits))
		}
		if o.st.PeakBufferedRows > 0 {
			o.span.SetInt("peak_buffered_rows", o.st.PeakBufferedRows)
		}
		if o.st.Batches > 0 {
			o.span.SetInt("batches", o.st.Batches)
		}
		o.span.End()
	}
	return err
}

// opLabel names a plan node's operator span; without the "op:" it is the
// operator's name in /metrics.
func opLabel(n plan.Node) string {
	switch x := n.(type) {
	case *plan.Scan:
		return "op:scan:" + x.Table.Name
	case *plan.CrowdProbe:
		return "op:probe:" + x.Scan.Table.Name
	case *plan.Filter:
		return "op:filter"
	case *plan.Join:
		return "op:join"
	case *plan.Project:
		return "op:project"
	case *plan.Aggregate:
		return "op:aggregate"
	case *plan.Sort:
		return "op:sort"
	case *plan.Limit:
		return "op:limit"
	case *plan.Distinct:
		return "op:distinct"
	default:
		return fmt.Sprintf("op:%T", n)
	}
}

// startCrowdSpan opens a span for one crowd interaction under the
// currently executing operator. Nil-safe when tracing is off.
func (c *Ctx) startCrowdSpan(name string) *obs.Span {
	if c.Trace == nil {
		return nil
	}
	return c.Trace.Span(c.Span, name)
}

// finishGroupSpan stamps a resolved HIT group's scheduler lifecycle —
// queued behind the in-flight window, virtual post/resolve instants, and
// the quorum outcome — onto its span and ends it.
func finishGroupSpan(sp *obs.Span, tel taskmgr.GroupTelemetry, answers, quorum int) {
	sp.SetAttr("queued", fmt.Sprintf("%v", tel.Queued))
	if tel.Posted {
		sp.SetAttr("posted_at", tel.PostedAt.String())
		sp.SetAttr("resolved_at", tel.ResolvedAt.String())
		sp.SetAttr("roundtrip", (tel.ResolvedAt - tel.PostedAt).String())
	}
	if tel.Tier != "" {
		sp.SetAttr("tier", tel.Tier)
		sp.SetAttr("escalated", fmt.Sprintf("%v", tel.Escalated))
	}
	sp.SetInt("answers", int64(answers))
	sp.SetInt("quorum", int64(quorum))
	sp.End()
}
