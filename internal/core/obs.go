package core

// Engine-level observability: the metrics registry every subsystem
// exports into, the per-statement trace recorder, and the slow-query
// log. Everything is hand-rolled (internal/obs) — no external metrics or
// tracing dependency — and scraped in Prometheus text form by the
// server's GET /metrics.

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"crowddb/internal/exec"
	"crowddb/internal/obs"
	"crowddb/internal/parser"
)

// engineMetrics is the engine's hot-path instrument set. Counters are
// updated with per-statement deltas after each statement finishes;
// everything cheap to read on demand (cache, cost model, storage, task
// manager) is exported as func-backed series instead, evaluated at
// scrape time.
type engineMetrics struct {
	statements   map[string]*obs.Counter
	comparisons  *obs.Counter
	probeReqs    *obs.Counter
	tupleReqs    *obs.Counter
	budgetDenied *obs.Counter
	spendCents   *obs.Counter
	planHits     *obs.Counter
	planReprices *obs.Counter
	planMisses   *obs.Counter
}

// initObservability builds the registry and tracer at Open. The registry
// always exists (metrics are cheap and scrape-driven); the tracer is
// omitted under Config.DisableObservability so statements record no
// spans at all — the overhead benchmark's control arm.
func (e *Engine) initObservability() {
	e.reg = obs.NewRegistry()
	if !e.cfg.DisableObservability {
		e.tracer = obs.NewTracer(0)
		if e.cfg.SlowQueryThreshold > 0 {
			e.tracer.SetSlowQueryLog(e.cfg.SlowQueryThreshold, os.Stderr)
		}
	}

	e.obsm.statements = make(map[string]*obs.Counter)
	for _, kind := range []string{"select", "explain", "dml", "ddl", "show", "other"} {
		e.obsm.statements[kind] = e.reg.Counter("crowddb_statements_total",
			"statements executed by kind", "kind", kind)
	}
	e.obsm.comparisons = e.reg.Counter("crowddb_crowd_comparisons_total",
		"crowd comparisons paid for (cache misses led by a statement)")
	e.obsm.probeReqs = e.reg.Counter("crowddb_crowd_probe_requests_total",
		"tuples whose CNULL columns were sent to the crowd")
	e.obsm.tupleReqs = e.reg.Counter("crowddb_crowd_new_tuples_total",
		"candidate tuples solicited from the crowd")
	e.obsm.budgetDenied = e.reg.Counter("crowddb_crowd_budget_denied_total",
		"comparisons skipped because the per-statement budget ran out")
	e.obsm.spendCents = e.reg.Counter("crowddb_crowd_spend_cents_total",
		"crowd spend in cost-model cents (reward x replication per paid request)")
	e.obsm.planHits = e.reg.Counter("crowddb_plan_cache_hits_total",
		"SELECT and DML compiles served by a current plan-cache entry for the statement's shape")
	e.obsm.planReprices = e.reg.Counter("crowddb_plan_cache_reprices_total",
		"SELECT compiles served by a plan-cache entry whose statistics or cost inputs moved, priced again on its kept tree")
	e.obsm.planMisses = e.reg.Counter("crowddb_plan_cache_misses_total",
		"SELECT and DML compiles that found no current plan-cache entry it could serve or re-price, and compiled afresh")

	e.reg.CounterFunc("crowddb_cache_hits_total",
		"comparison claims answered from a resident cache entry",
		func() float64 { return float64(e.cache.Stats().Hits) })
	e.reg.CounterFunc("crowddb_cache_misses_total",
		"comparison claims that led a new crowd question",
		func() float64 { return float64(e.cache.Stats().Misses) })
	e.reg.CounterFunc("crowddb_cache_shared_total",
		"comparison claims that adopted another session's in-flight question",
		func() float64 { return float64(e.cache.Stats().Shared) })
	e.reg.GaugeFunc("crowddb_cache_resident_entries",
		"comparison-cache entries currently resident",
		func() float64 { return float64(e.cache.Stats().Size) })

	e.reg.CounterFunc("crowddb_costmodel_statements_total",
		"crowd-active SELECTs scored by the cost model",
		func() float64 { return float64(e.CostModel().Statements) })
	e.reg.CounterFunc("crowddb_costmodel_predicted_cents_total",
		"running total of cost-model cents forecasts",
		func() float64 { return e.CostModel().PredictedCents })
	e.reg.CounterFunc("crowddb_costmodel_actual_cents_total",
		"running total of measured crowd cents on scored statements",
		func() float64 { return e.CostModel().ActualCents })

	obs.RegisterRuntime(e.reg)
	e.store.RegisterMetrics(e.reg)
	if e.tasks != nil {
		e.tasks.RegisterMetrics(e.reg)
	}
	if !e.cfg.DisableObservability {
		e.opm = newOpMetrics(e.reg)
	}
}

// opMetrics funnels each instrumented operator's final accounting into
// the registry, keyed by operator name — the engine's exec.OpMetricsSink.
// Series are created lazily the first time an operator label is seen, so
// /metrics only carries families for operators that actually ran. The
// series map is copied on write and read without a lock. Nil when
// observability is disabled: the executor then skips the instrumented
// shells entirely and the row hot path stays unwrapped.
type opMetrics struct {
	reg    *obs.Registry
	mu     sync.Mutex // serializes adding a series
	series atomic.Pointer[map[string]*opSeries]
}

type opSeries struct {
	rows    *obs.Counter
	batches *obs.Counter
	wall    *obs.Counter
	peak    *obs.Gauge
}

func newOpMetrics(reg *obs.Registry) *opMetrics {
	m := &opMetrics{reg: reg}
	m.series.Store(&map[string]*opSeries{})
	return m
}

// ObserveOp implements exec.OpMetricsSink; the instrumented shell calls
// it once per operator at Close. The peak gauge is a high watermark
// across statements, not a sum: it answers "how large does this
// operator's materialization get", the vectorized pipeline's
// per-operator memory figure.
func (m *opMetrics) ObserveOp(op string, st exec.OpStats) {
	s := (*m.series.Load())[op]
	if s == nil {
		s = m.addSeries(op)
	}
	s.rows.Add(float64(st.RowsOut))
	s.batches.Add(float64(st.Batches))
	s.wall.Add(float64(st.WallNanos) / float64(time.Second))
	s.peak.SetMax(float64(st.PeakBufferedRows))
}

func (m *opMetrics) addSeries(op string) *opSeries {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.series.Load()
	if s := old[op]; s != nil {
		return s
	}
	s := &opSeries{
		rows: m.reg.Counter("crowddb_exec_op_rows_total",
			"rows produced by each physical operator", "op", op),
		batches: m.reg.Counter("crowddb_exec_op_batches_total",
			"non-empty batches produced by each physical operator", "op", op),
		wall: m.reg.Counter("crowddb_exec_op_wall_seconds_total",
			"inclusive wall time inside each physical operator and its children", "op", op),
		peak: m.reg.Gauge("crowddb_exec_op_peak_buffered_rows",
			"high watermark of rows an operator materialized at once", "op", op),
	}
	next := make(map[string]*opSeries, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[op] = s
	m.series.Store(&next)
	return s
}

// Metrics exposes the engine's registry (the server mounts it at
// GET /metrics; experiments scrape it directly).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Tracer exposes the trace recorder (nil when observability is
// disabled). The server starts a trace per job and serves the retained
// ring at GET /v1/queries/{id}/trace.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// NumShards reports the storage engine's per-table hash-shard fan-out
// (the server's healthz surfaces it).
func (e *Engine) NumShards() int { return e.store.NumShards() }

// noteCrowdStats folds one finished statement's crowd activity into the
// hot-path counters. Safe on a partially-initialized engine: nil
// counters no-op.
func (e *Engine) noteCrowdStats(st exec.Stats) {
	e.obsm.comparisons.Add(float64(st.Comparisons))
	e.obsm.probeReqs.Add(float64(st.ProbeRequests))
	e.obsm.tupleReqs.Add(float64(st.NewTupleRequests))
	e.obsm.budgetDenied.Add(float64(st.BudgetDenied))
	e.obsm.spendCents.Add(st.Cents(e.Prices()))
}

// stmtKind buckets a statement for the crowddb_statements_total label.
func stmtKind(stmt parser.Statement) string {
	switch stmt.(type) {
	case *parser.Select:
		return "select"
	case *parser.Explain:
		return "explain"
	case *parser.ShowTables:
		return "show"
	case *parser.Insert, *parser.Update, *parser.Delete:
		return "dml"
	case *parser.CreateTable, *parser.CreateIndex, *parser.DropTable:
		return "ddl"
	default:
		return "other"
	}
}
