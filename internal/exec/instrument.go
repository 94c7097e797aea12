package exec

// Per-operator instrumentation: when a statement runs with a trace or an
// EXPLAIN ANALYZE stats map, Build wraps every operator in an
// instrumented shell that times open/next/close, counts rows out, and
// attributes crowd work (comparisons, probes, solicited tuples) to the
// operator that caused it by adding up the change in the shared Stats
// across each of its own calls. When neither is requested the raw
// operator is returned, so traced and untraced executions follow
// byte-identical code on the row hot path.

import (
	"fmt"
	"sync"
	"time"

	"crowddb/internal/obs"
	"crowddb/internal/plan"
	"crowddb/internal/taskmgr"
)

// OpStats is one operator's measured actuals, inclusive of its children
// (a child's rows and crowd work happen inside the parent's calls).
type OpStats struct {
	RowsOut   int64
	WallNanos int64
	// Crowd is the work done inside the operator's own Open, NextBatch
	// and Close calls, children included: a Scan that a crowd operator
	// drains asked the crowd nothing. Price it with Stats.Cents.
	Crowd Stats
	// PeakBufferedRows is the operator's own peak materialization (rows
	// held at once: a sort's input, a hash join's build table, a scan's
	// snapshot) — the vectorized pipeline's per-operator memory figure. 0
	// for fully streaming operators.
	PeakBufferedRows int64
	// Batches counts NextBatch calls that returned rows; with RowsOut it
	// gives the realized batch fill.
	Batches int64
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
// stats, or operator metrics; otherwise it returns op untouched. The
// shells of one context come from a slab that starts at two (a point
// SELECT's Project over Scan) and doubles.
func instrument(op Operator, n plan.Node, ctx *Ctx) Operator {
	if !ctx.Instrumented() {
		return op
	}
	if len(ctx.shells) == cap(ctx.shells) {
		ctx.shells = make([]instrumentedOp, 0, max(2, 2*cap(ctx.shells)))
	}
	ctx.shells = ctx.shells[:len(ctx.shells)+1]
	o := &ctx.shells[len(ctx.shells)-1]
	*o = instrumentedOp{op: op, node: n, label: opLabel(n)}
	return o
}

// Instrumented reports whether Build wraps the operators it makes in c in
// instrumented shells: when c asks for tracing, per-operator stats or
// operator metrics.
func (c *Ctx) Instrumented() bool {
	return c.Trace != nil || c.OpStats != nil || c.OpMetrics != nil
}

type instrumentedOp struct {
	op   Operator
	node plan.Node
	span *obs.Span
	// label is the span name, "op:" + the operator's name.
	label string
	st    OpStats
}

func (o *instrumentedOp) Schema() []plan.Col { return o.op.Schema() }

func (o *instrumentedOp) Open(ctx *Ctx) error {
	o.st, o.span = OpStats{}, nil
	if ctx.Trace != nil {
		o.span = ctx.Trace.Span(ctx.Span, o.label)
	}
	parent, before := ctx.Span, ctx.Stats
	ctx.Span = o.span
	t0 := time.Now()
	err := o.op.Open(ctx)
	o.st.WallNanos += time.Since(t0).Nanoseconds()
	o.st.Crowd = o.st.Crowd.Add(ctx.Stats.Sub(before))
	ctx.Span = parent
	return err
}

func (o *instrumentedOp) NextBatch(ctx *Ctx) (*Batch, error) {
	parent, before := ctx.Span, ctx.Stats
	ctx.Span = o.span
	t0 := time.Now()
	b, err := o.op.NextBatch(ctx)
	o.st.WallNanos += time.Since(t0).Nanoseconds()
	o.st.Crowd = o.st.Crowd.Add(ctx.Stats.Sub(before))
	ctx.Span = parent
	if err == nil && b.Len() > 0 {
		o.st.RowsOut += int64(b.Len())
		o.st.Batches++
	}
	return b, err
}

func (o *instrumentedOp) Close(ctx *Ctx) error {
	if br, ok := o.op.(bufferedReporter); ok {
		o.st.PeakBufferedRows = br.bufferedRows() // before Close lets go of the rows
	}
	parent, before := ctx.Span, ctx.Stats
	ctx.Span = o.span
	t0 := time.Now()
	err := o.op.Close(ctx)
	o.st.WallNanos += time.Since(t0).Nanoseconds()
	o.st.Crowd = o.st.Crowd.Add(ctx.Stats.Sub(before))
	ctx.Span = parent
	if ctx.OpStats != nil {
		snap := o.st
		ctx.OpStats[o.node] = &snap
	}
	if ctx.OpMetrics != nil {
		ctx.OpMetrics.ObserveOp(o.label[len("op:"):], o.st)
	}
	if o.span != nil {
		c := o.st.Crowd
		o.span.SetInt("rows_out", o.st.RowsOut)
		o.span.SetDuration("wall", time.Duration(o.st.WallNanos).Round(time.Microsecond))
		if c.Comparisons > 0 {
			o.span.SetInt("comparisons", int64(c.Comparisons))
		}
		if c.ProbeRequests > 0 {
			o.span.SetInt("probe_requests", int64(c.ProbeRequests))
		}
		if c.NewTupleRequests > 0 {
			o.span.SetInt("new_tuple_requests", int64(c.NewTupleRequests))
		}
		if c.CacheHits > 0 {
			o.span.SetInt("cache_hits", int64(c.CacheHits))
		}
		if o.st.PeakBufferedRows > 0 {
			o.span.SetInt("peak_buffered_rows", o.st.PeakBufferedRows)
		}
		if o.st.Batches > 0 {
			o.span.SetInt("batches", o.st.Batches)
		}
		o.span.End()
		o.span = nil
	}
	return err
}

// opLabel names a plan node's operator span; without the "op:" it is the
// operator's name in /metrics.
func opLabel(n plan.Node) string {
	switch x := n.(type) {
	case *plan.Scan:
		return tableLabel("op:scan:", x.Table.Name)
	case *plan.CrowdProbe:
		return tableLabel("op:probe:", x.Scan.Table.Name)
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

// maxTableLabels bounds the interned per-table labels; past it, a label
// is built per statement.
const maxTableLabels = 1024

type labelKey struct{ prefix, table string }

// tableLabels interns per-table operator labels ("op:scan:Talk") so that
// building a plan concatenates none. A label is a function of its key
// alone, so engines sharing the table cannot disagree.
var tableLabels struct {
	sync.Mutex
	m map[labelKey]string
}

func tableLabel(prefix, table string) string {
	k := labelKey{prefix, table}
	tableLabels.Lock()
	defer tableLabels.Unlock()
	if l, ok := tableLabels.m[k]; ok {
		return l
	}
	l := prefix + table
	if tableLabels.m == nil {
		tableLabels.m = make(map[labelKey]string)
	}
	if len(tableLabels.m) < maxTableLabels {
		tableLabels.m[k] = l
	}
	return l
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
	sp.SetBool("queued", tel.Queued)
	if tel.Posted {
		sp.SetDuration("posted_at", tel.PostedAt)
		sp.SetDuration("resolved_at", tel.ResolvedAt)
		sp.SetDuration("roundtrip", tel.ResolvedAt-tel.PostedAt)
	}
	if tel.Tier != "" {
		sp.SetAttr("tier", tel.Tier)
		sp.SetBool("escalated", tel.Escalated)
	}
	sp.SetInt("answers", int64(answers))
	sp.SetInt("quorum", int64(quorum))
	sp.End()
}
