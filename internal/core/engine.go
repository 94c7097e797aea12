// Package core is the CrowdDB engine: it wires the paper's architecture
// (Fig. 1) together — parser, rule-based optimizer and executor on the
// left; UI generation, Task Manager and Worker Relationship Manager on the
// right — and owns durability: DDL is persisted to a schema script and
// data to the WAL, crowd comparison answers included (the executor stores
// them in a system table), so every crowd answer is paid for exactly once.
package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/exec"
	"crowddb/internal/lexer"
	"crowddb/internal/obs"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/ui"
	"crowddb/internal/wrm"
)

// Config assembles an engine.
type Config struct {
	// DataDir enables durability when non-empty.
	DataDir string
	// Shards is the storage engine's hash-partition fan-out per table
	// (0 = automatic: one per CPU, capped; a durable store adopts its
	// on-disk count). Scans, probes, and the WAL parallelize per shard.
	Shards int
	// WALSync is the WAL durability mode: storage.SyncAlways,
	// SyncGroup (default — group commit), or SyncOff.
	WALSync storage.SyncMode
	// Platform is the crowdsourcing platform; nil disables crowdsourcing
	// (queries then run on stored data only).
	Platform crowd.Platform
	// Oracle supplies simulated ground truth (see taskmgr.Oracle).
	Oracle taskmgr.Oracle
	// Tasks tunes task posting (reward, replication, deadlines).
	Tasks taskmgr.Config
	// Payment is the WRM policy.
	Payment wrm.PaymentPolicy
	// Optimizer exposes the rule switches (ablation benchmarks) and
	// AllowUnbounded, which turns the unbounded-crowd-request compile
	// error into a warning.
	Optimizer optimizer.Options
	// SlowQueryThreshold, when positive, dumps the full span tree of any
	// statement or job whose wall time reaches it to stderr.
	SlowQueryThreshold time.Duration
	// DisableObservability turns per-statement tracing off (the metrics
	// registry stays registered but statements record no spans). The
	// overhead benchmark's control arm.
	DisableObservability bool
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds the result tuples of a SELECT.
	Rows []storage.Row
	// Affected is the row count of a DML statement.
	Affected int
	// Plan is the EXPLAIN rendering (EXPLAIN only).
	Plan string
	// Warnings carries compile-time diagnostics (boundedness etc.).
	Warnings []string
	// Stats reports the executor's crowd activity for the statement.
	Stats exec.Stats
	// Predicted is the cost model's forecast for the statement (crowd
	// cents, crowd-latency seconds, output rows).
	Predicted plan.Cost
	// ActualCents is the crowd spend the statement actually incurred, in
	// the cost model's units (rewards × replication for every paid probe,
	// solicitation, and comparison).
	ActualCents float64
	// SnapshotTS is the MVCC snapshot the statement read at (SELECT and
	// EXPLAIN): every stored row it saw was committed at or before this
	// timestamp, regardless of what committed while it ran.
	SnapshotTS int64
}

// Engine is a CrowdDB instance. It is safe for concurrent use: SELECT,
// EXPLAIN, and SHOW statements take no engine-level lock at all — each
// SELECT pins an MVCC snapshot and reads a stable cut of the data for its
// whole (possibly minutes-long, crowd-waiting) lifetime, while DML
// commits freely around it. Writers never wait on readers and readers
// never wait on writers; DDL and DML serialize only against each other
// (one writer at a time, preserving statement-granular write semantics).
type Engine struct {
	cfg     Config
	cat     *catalog.Catalog
	store   *storage.Store
	uim     *ui.Manager
	tracker *quality.Tracker
	payer   *wrm.Manager
	tasks   *taskmgr.Manager
	cache   *exec.CompareCache
	plans   planCache

	// writeMu serializes DDL and DML statements (plus Close/Checkpoint)
	// against each other. Queries never touch it: snapshot isolation —
	// not a statement lock — is what keeps their reads consistent.
	writeMu sync.Mutex

	// costMu guards the predicted-vs-actual cost-model accounting.
	costMu    sync.Mutex
	costModel CostModelStats

	// Observability: the metrics registry every subsystem exports into,
	// the trace recorder (nil when Config.DisableObservability), and the
	// hot-path counters.
	reg    *obs.Registry
	tracer *obs.Tracer
	obsm   engineMetrics
	opm    *opMetrics
}

// CostModelStats aggregates the cost model's predicted-vs-actual error
// across executed statements (crowd-active SELECTs only). The relative
// error of each statement's cents forecast is averaged; /stats and the
// REPL surface it so drift is visible in production.
type CostModelStats struct {
	// Statements counts crowd-active SELECTs scored.
	Statements int64 `json:"statements"`
	// PredictedCents / ActualCents are running totals.
	PredictedCents float64 `json:"predicted_cents"`
	ActualCents    float64 `json:"actual_cents"`
	// MeanAbsPctErr is the mean |predicted−actual| / max(actual, 1¢)
	// over scored statements, in percent.
	MeanAbsPctErr float64 `json:"mean_abs_pct_err"`
}

// CostModel snapshots the predicted-vs-actual accounting.
func (e *Engine) CostModel() CostModelStats {
	e.costMu.Lock()
	defer e.costMu.Unlock()
	return e.costModel
}

// observeCostError scores one executed statement's forecast.
func (e *Engine) observeCostError(predicted, actual float64) {
	denom := actual
	if denom < 1 {
		denom = 1
	}
	errPct := 100 * math.Abs(predicted-actual) / denom
	e.costMu.Lock()
	defer e.costMu.Unlock()
	n := float64(e.costModel.Statements)
	e.costModel.MeanAbsPctErr = (e.costModel.MeanAbsPctErr*n + errPct) / (n + 1)
	e.costModel.Statements++
	e.costModel.PredictedCents += predicted
	e.costModel.ActualCents += actual
}

// Open builds an engine, replaying any persisted schema and data.
func Open(cfg Config) (*Engine, error) {
	e := &Engine{
		cfg:     cfg,
		cat:     catalog.New(),
		tracker: quality.NewTracker(),
		cache:   exec.NewCompareCache(),
	}
	store, err := storage.NewStoreOptions(cfg.DataDir, storage.Options{
		Shards: cfg.Shards,
		Sync:   cfg.WALSync,
	})
	if err != nil {
		return nil, err
	}
	e.store = store
	e.uim = ui.NewManager(e.cat)
	e.payer = wrm.New(cfg.Payment, e.tracker)
	if cfg.Platform != nil {
		e.tasks = taskmgr.New(cfg.Platform, e.uim, e.tracker, e.payer, cfg.Oracle, cfg.Tasks)
	}
	if err := exec.CreateMemoTable(e.store); err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		if err := e.replaySchema(); err != nil {
			return nil, err
		}
		if err := e.store.Recover(); err != nil {
			return nil, err
		}
		if err := e.cache.Load(e.store); err != nil {
			return nil, err
		}
		e.refreshStats()
	}
	e.uim.GenerateAll()
	e.initObservability()
	return e, nil
}

// Close releases resources (the WAL handles) after in-flight write
// statements finish. Queries hold no engine lock, so the caller is
// responsible for draining them first (the server's job registry does);
// an in-flight read-only statement keeps working against memory.
func (e *Engine) Close() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.store.Close()
}

// Checkpoint snapshots the store and truncates the WAL.
func (e *Engine) Checkpoint() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.store.Checkpoint()
}

// Tasks exposes the task manager (nil without a platform).
func (e *Engine) Tasks() *taskmgr.Manager { return e.tasks }

// Cache exposes the shared comparison cache (server stats, experiments).
func (e *Engine) Cache() *exec.CompareCache { return e.cache }

// CacheStats snapshots the shared comparison cache's counters.
func (e *Engine) CacheStats() exec.CacheStats { return e.cache.Stats() }

// schemaPath is the DDL replay script inside the data dir.
func (e *Engine) schemaPath() string { return filepath.Join(e.cfg.DataDir, "schema.sql") }

func (e *Engine) replaySchema() error {
	data, err := os.ReadFile(e.schemaPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	stmts, err := parser.ParseAll(string(data))
	if err != nil {
		return fmt.Errorf("core: corrupt schema script: %w", err)
	}
	for _, s := range stmts {
		if err := e.applyDDL(s, false); err != nil {
			return fmt.Errorf("core: schema replay: %w", err)
		}
	}
	return nil
}

// appendSchema adds one statement to the replay script by replacing the
// file whole: a crash leaves the old script or the new one, never a torn
// statement that would fail every later Open. Durable before the DDL
// returns: rows of this table are fsynced to the WAL, and recovery fails
// on a record for a table the script lost.
func (e *Engine) appendSchema(ddl string) error {
	if e.cfg.DataDir == "" {
		return nil
	}
	old, err := os.ReadFile(e.schemaPath())
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return storage.WriteFileAtomic(e.schemaPath(), append(old, ddl+";\n"...))
}

// refreshStats recomputes per-table row counts and CNULL counts after
// recovery (one bulk snapshot per table, not a Get per row).
func (e *Engine) refreshStats() {
	for _, t := range e.cat.Tables() {
		t.SetRowCount(0)
		t.ResetCNullCounts()
		_, rows, err := e.store.ScanRowsAt(t.Name, e.store.VisibleTS())
		if err != nil {
			continue
		}
		for _, row := range rows {
			t.RowWritten(nil, row)
		}
	}
}

// Exec parses and runs a CrowdSQL script (one or more statements) and
// returns the last statement's result.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.Execute(context.Background(), sql, DefaultExecOpts())
}

// Query is Exec restricted to a single SELECT.
func (e *Engine) Query(sql string) (*Result, error) {
	sc, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if n := sc.Len(); n != 1 {
		return nil, fmt.Errorf("parser: expected one statement, got %d", n)
	}
	if sc.Kind(0) != "select" {
		return nil, fmt.Errorf("core: Query requires a SELECT, got %T", sc.stmts[0].tree)
	}
	return e.ExecAt(context.Background(), &sc, 0, DefaultExecOpts())
}

// Observer follows one SELECT as it runs — the jobs API's streaming seam.
// The engine calls it on the statement's goroutine: Snapshot with the
// MVCC snapshot timestamp the statement pinned, before its first read;
// Schema with the result column names, before the first row; Row with
// each result row as operators produce it (an error stops the statement);
// Progress with a stats snapshot whenever a crowd operator commits to
// paid work; and Final with the statement's crowd stats, last — also when
// it fails or is cancelled midway and the Result carries none, because
// budget settlement for work already paid depends on it. EXPLAIN ANALYZE
// reports its snapshot, progress and final stats, but no schema or row.
type Observer interface {
	Snapshot(ts int64)
	Schema(cols []string)
	exec.RowSink
	exec.ProgressSink
	Final(exec.Stats)
}

// ExecOpts tunes one statement execution. The multi-session server uses
// it to apply per-session crowd budgets on a shared engine and to stream
// job results.
type ExecOpts struct {
	// CompareBudget caps crowd comparisons for this statement when
	// positive; zero or negative is unlimited.
	CompareBudget int
	// Observer, when set, follows each SELECT as it runs; its rows stream
	// to the observer and the returned Result's Rows stay nil. Other
	// statements do not call it.
	Observer Observer
	// Trace, when set, records the statement's span tree into the given
	// trace instead of an engine-owned one (the jobs API threads one
	// trace through every statement of a job). Nil with tracing enabled
	// means the engine starts and finishes its own trace per statement.
	Trace *obs.Trace
}

// DefaultExecOpts runs a statement with no per-statement limits.
func DefaultExecOpts() ExecOpts { return ExecOpts{CompareBudget: -1} }

// Execute takes in and runs a CrowdSQL script under ctx, returning the
// last statement's result. Cancelling ctx stops the running statement:
// crowd operators stop posting new HIT groups within one scheduler tick,
// queued submissions are withdrawn, singleflight claims are released, and
// the observer's Final still reports the work already paid for. This is
// the context-aware entry point the jobs API and the client SDK build on.
func (e *Engine) Execute(ctx context.Context, sql string, opts ExecOpts) (*Result, error) {
	sc, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	sc.TraceParse(opts.Trace)
	var last *Result
	for i := range sc.Len() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := e.ExecAt(ctx, &sc, i, opts)
		if err != nil {
			return nil, err
		}
		last = r
	}
	return last, nil
}

// A Script is a CrowdSQL script the engine has taken in (Prepare): its
// statements in order.
type Script struct {
	stmts []statement
	// start and end bound the intake.
	start, end time.Time
}

// A statement is one statement of a script as the intake took it in: its
// plan-cache key ("" when the cache keys none), its slot values, and the
// cached entry its key found or none. tree is its parsed tree, or its
// entry's when it was not parsed. served is set once it has reached a
// plan (Engine.entry), and text is its text in its script, which
// checkPlanHit reads.
type statement struct {
	tree   parser.Statement
	en     planEntry
	served bool
	key    string
	slots  []sqltypes.Value // in inline when they fit
	inline [4]sqltypes.Value
	text   string
}

// AppendText appends the statement's text: its tree printed with its slot
// values.
func (st *statement) AppendText(b []byte) ([]byte, error) {
	return parser.AppendWithSlots(b, st.tree, st.slots, -1), nil
}

// AppendTextUpTo is AppendText stopped past n bytes
// (obs.TextPrefixAppender).
func (st *statement) AppendTextUpTo(b []byte, n int) []byte {
	return parser.AppendWithSlots(b, st.tree, st.slots, n)
}

// Prepare is the engine's intake: it lexes sql, splits it into statements
// at its semicolons, which no statement holds, and keys each SELECT,
// INSERT, UPDATE and DELETE once. A statement whose key the plan cache
// holds is served by that entry unparsed; the script is parsed only when
// one of its statements is not. An error is the lexer's or the parser's.
func (e *Engine) Prepare(sql string) (Script, error) {
	sc := Script{start: time.Now()}
	kb := keyBufs.Get().(*keyBuf)
	toks := kb.toks[:0]
	if n := len(sql)/4 + 1; cap(toks) < n {
		toks = make([]lexer.Token, 0, n) // the lexer's own estimate
	}
	toks, err := lexer.AppendTokens(toks, sql)
	if err != nil {
		kb.release()
		return Script{}, err
	}
	n := 0
	for i, t := range toks {
		if !isSemicolon(t) && (i == 0 || isSemicolon(toks[i-1])) {
			n++
		}
	}
	sc.stmts = make([]statement, n)
	parse := n == 0 // the parser reports an empty script
	for i, rest := 0, toks; i < n; i++ {
		for isSemicolon(rest[0]) {
			rest = rest[1:]
		}
		one, end := rest, len(sql)
		if j := slices.IndexFunc(rest, isSemicolon); j >= 0 {
			one, end = rest[:j], rest[j].Pos
		}
		rest = rest[len(one):]
		st := &sc.stmts[i]
		st.text = sql[one[0].Pos:end]
		if keyed(one) {
			e.key(kb, st, one)
		}
		parse = parse || !st.en.compiled()
	}
	if !parse {
		clear(toks)
		kb.toks = toks
		kb.release()
	} else {
		kb.toks = nil // the parsed statements keep the tokens
		kb.release()
		stmts, err := parseTokens(toks, len(sql))
		if err != nil {
			return Script{}, err
		}
		for i := range sc.stmts {
			if st := &sc.stmts[i]; !st.en.compiled() {
				st.tree = stmts[i]
				st.slots = parser.AppendSlotValues(st.inline[:0], st.tree)
			}
		}
	}
	sc.end = time.Now()
	return sc, nil
}

// parseTokens is the intake's parser (the package's tests count its
// calls).
var parseTokens = parser.ParseTokens

// Len is the number of statements in the script.
func (sc *Script) Len() int { return len(sc.stmts) }

// Kind is the kind of statement i — the crowddb_statements_total label:
// "select", "explain", "show", "dml", "ddl" or "other" — known for a
// statement the plan cache serves unparsed too.
func (sc *Script) Kind(i int) string { return stmtKind(sc.stmts[i].tree) }

// HasQuery reports whether the script runs a SELECT or EXPLAIN: a trace
// of it is sized for a query's operator spans.
func (sc *Script) HasQuery() bool {
	for i := range sc.Len() {
		if k := sc.Kind(i); k == "select" || k == "explain" {
			return true
		}
	}
	return false
}

// TraceParse records the intake into tr as its "parse" span, with its
// statement count; a nil tr records nothing.
func (sc *Script) TraceParse(tr *obs.Trace) {
	if tr == nil {
		return
	}
	psp := tr.SpanAt(nil, "parse", sc.start, sc.end)
	psp.SetInt("statements", int64(sc.Len()))
}

// ExecAt runs statement i of sc under ctx, as ExecStmtCtx runs a parsed
// one.
func (e *Engine) ExecAt(ctx context.Context, sc *Script, i int, opts ExecOpts) (*Result, error) {
	return e.exec(ctx, &sc.stmts[i], opts)
}

// ForecastAt is Forecast of statement i of sc. ExecAt then re-checks the
// entry it served, and the statement's plan-cache outcome counts once.
func (e *Engine) ForecastAt(sc *Script, i int) (plan.Cost, bool) {
	return e.forecast(&sc.stmts[i])
}

// ExecStmtCtx runs one parsed statement under ctx. Read-only statements
// (SELECT, EXPLAIN, SHOW) take no lock and run concurrently with
// everything — each SELECT pins an MVCC snapshot instead; DDL and DML
// serialize against each other only, each committing as one transaction.
//
// Every statement records a span tree: into opts.Trace when the caller
// threads one (the jobs API), otherwise into an engine-owned trace that
// is finished — and slow-query-logged past the threshold — when the
// statement returns.
func (e *Engine) ExecStmtCtx(ctx context.Context, stmt parser.Statement, opts ExecOpts) (*Result, error) {
	var st statement
	e.intake(&st, stmt)
	return e.exec(ctx, &st, opts)
}

// exec runs st.
func (e *Engine) exec(ctx context.Context, st *statement, opts ExecOpts) (*Result, error) {
	kind := stmtKind(st.tree)
	e.obsm.statements[kind].Inc()
	tr := opts.Trace
	owned := false
	if tr == nil && e.tracer != nil {
		tr = e.tracer.StartSized("", kind == "select" || kind == "explain")
		owned = true
	}
	sp := tr.Span(nil, "statement")
	sp.SetAttr("kind", kind)
	sp.SetText("stmt", st)
	res, err := e.execStmt(ctx, st, opts, tr, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if owned {
		e.tracer.Finish(tr)
	}
	return res, err
}

// execStmt dispatches one statement with its trace context threaded.
func (e *Engine) execStmt(ctx context.Context, st *statement, opts ExecOpts, tr *obs.Trace, sp *obs.Span) (*Result, error) {
	switch s := st.tree.(type) {
	case *parser.Select:
		osp := tr.Span(sp, "optimize")
		en, err := e.entry(st)
		if err != nil {
			return nil, optimized(osp, nil, err)
		}
		optimized(osp, en.opt, nil)
		return e.runSelect(ctx, en.opt, en.cols, st.slots, en.kept, opts, tr, sp, nil)
	case *parser.Explain:
		return e.execExplain(ctx, s, opts, tr, sp)
	case *parser.ShowTables:
		return e.execShowTables()
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	switch s := st.tree.(type) {
	case *parser.CreateTable, *parser.CreateIndex, *parser.DropTable:
		if err := e.applyDDL(s, true); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *parser.Insert, *parser.Update, *parser.Delete:
		en, err := e.entry(st)
		if err != nil {
			return nil, err
		}
		return e.execWrite(en, st.slots, tr, sp)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", st.tree)
}

func (e *Engine) execShowTables() (*Result, error) {
	res := &Result{Columns: []string{"table", "kind", "rows"}}
	for _, t := range e.cat.Tables() {
		kind := "table"
		if t.Crowd {
			kind = "crowd table"
		} else if t.HasCrowdColumns() {
			kind = "table (crowd columns)"
		}
		res.Rows = append(res.Rows, storage.Row{
			sqltypes.NewString(t.Name), sqltypes.NewString(kind), sqltypes.NewInt(t.RowCount()),
		})
	}
	return res, nil
}

// applyDDL executes a DDL statement; persist controls schema-script append
// (false during replay).
func (e *Engine) applyDDL(stmt parser.Statement, persist bool) error {
	switch s := stmt.(type) {
	case *parser.CreateTable:
		t := &catalog.Table{Name: s.Name, Crowd: s.Crowd, Annotation: s.Annotation, PrimaryKey: s.PrimaryKey}
		for _, c := range s.Columns {
			t.Columns = append(t.Columns, catalog.Column{
				Name: c.Name, Type: c.Type, Crowd: c.Crowd, PrimaryKey: c.PrimaryKey, Annotation: c.Annotation,
			})
		}
		for _, fk := range s.ForeignKeys {
			t.ForeignKeys = append(t.ForeignKeys, catalog.ForeignKey{
				Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns,
			})
		}
		if err := e.cat.CreateTable(t); err != nil {
			return err
		}
		if err := e.store.CreateTable(t.Name, t.PrimaryKeyIndexes()); err != nil {
			e.cat.DropTable(t.Name)
			return err
		}
		e.uim.GenerateAll()
		if persist {
			return e.appendSchema(s.String())
		}
		return nil
	case *parser.CreateIndex:
		t, ok := e.cat.Table(s.Table)
		if !ok {
			return fmt.Errorf("core: table %s not found", s.Table)
		}
		cols := make([]int, len(s.Columns))
		for i, c := range s.Columns {
			ci := t.ColumnIndex(c)
			if ci < 0 {
				return fmt.Errorf("core: column %s.%s not found", s.Table, c)
			}
			cols[i] = ci
		}
		if err := e.cat.CreateIndex(&catalog.Index{Name: s.Name, Table: t.Name, Columns: s.Columns, Unique: s.Unique}); err != nil {
			return err
		}
		if err := e.store.CreateIndex(t.Name, s.Name, cols, s.Unique); err != nil {
			return err
		}
		if persist {
			return e.appendSchema(s.String())
		}
		return nil
	case *parser.DropTable:
		if _, ok := e.cat.Table(s.Name); !ok {
			if s.IfExists {
				return nil
			}
			return fmt.Errorf("core: table %s not found", s.Name)
		}
		if err := e.cat.DropTable(s.Name); err != nil {
			return err
		}
		if err := e.store.DropTable(s.Name); err != nil {
			return err
		}
		if persist {
			return e.appendSchema(s.String())
		}
		return nil
	}
	return fmt.Errorf("core: not a DDL statement: %T", stmt)
}

// commitTraced commits a DML statement's transaction under a "commit"
// span — the WAL sync of every shard the statement wrote, then watermark
// advancement — and folds a failed sync into the statement's outcome: a
// statement whose writes are not durable reports the I/O error, not its
// affected count.
func (e *Engine) commitTraced(tx *storage.Txn, tr *obs.Trace, sp *obs.Span, res *Result, err error) (*Result, error) {
	csp := tr.Span(sp, "commit")
	cerr := tx.Commit()
	csp.End()
	if err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// writePlan is a DML statement compiled for the plan cache: what every
// statement of its key shares. It reads the schema alone — no statistic,
// no option — so only DDL makes it stale.
type writePlan struct {
	stmt  parser.Statement // the *parser.Insert, *parser.Update or *parser.Delete
	table *catalog.Table
	// cols are the columns an INSERT's values fill, in VALUES order; blank
	// is the row its unlisted columns start from: CNULL in a crowd column
	// ("source on first use"), NULL elsewhere.
	cols  []int
	blank storage.Row
	// set are the columns an UPDATE assigns, in SET order.
	set []int
	// scan is an UPDATE's or DELETE's WHERE over table, with its probe keys
	// (optimizer.MatchScan).
	scan *plan.Scan
}

// compileWrite compiles s, an INSERT, UPDATE or DELETE, against the
// catalog.
func (e *Engine) compileWrite(s parser.Statement) (*writePlan, error) {
	w := &writePlan{stmt: s}
	var table string
	switch s := s.(type) {
	case *parser.Insert:
		table = s.Table
	case *parser.Update:
		table = s.Table
	case *parser.Delete:
		table = s.Table
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", s)
	}
	t, ok := e.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: table %s not found", table)
	}
	w.table = t
	switch s := s.(type) {
	case *parser.Insert:
		// Without a column list the values fill the table's columns in order.
		for _, c := range s.Columns {
			ci := t.ColumnIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("core: column %s.%s not found", s.Table, c)
			}
			w.cols = append(w.cols, ci)
		}
		if len(s.Columns) == 0 {
			for ci := range t.Columns {
				w.cols = append(w.cols, ci)
			}
		}
		w.blank = make(storage.Row, len(t.Columns))
		for ci, c := range t.Columns {
			if c.Crowd {
				w.blank[ci] = sqltypes.CNull()
			} else {
				w.blank[ci] = sqltypes.Null()
			}
		}
	case *parser.Update:
		for _, a := range s.Set {
			ci := t.ColumnIndex(a.Column)
			if ci < 0 {
				return nil, fmt.Errorf("core: column %s.%s not found", s.Table, a.Column)
			}
			w.set = append(w.set, ci)
		}
		w.scan = optimizer.MatchScan(t, s.Where)
	case *parser.Delete:
		w.scan = optimizer.MatchScan(t, s.Where)
	}
	return w, nil
}

// writer returns an executor of w with slots in its slot storage: the one
// kept takes when it was bound for w, else one bound afresh. Its context
// pins no snapshot: the matching read sees the current watermark, and the
// write applies to each row's live version. An INSERT's bare literals
// are read from the statement's own slot values as it runs (execInsert),
// so a bulk INSERT's executor binds nothing and keeps no slot storage.
func (e *Engine) writer(kept *keptExecutor, w *writePlan, slots []sqltypes.Value) *executor {
	if x := kept.take(); x != nil && x.write == w {
		if x.slotted {
			x.ctx.UseSlots(slots)
		}
		return x
	}
	x := &executor{write: w, ctx: exec.Ctx{Store: e.store, Cat: e.cat}}
	var exprs []parser.Expr // what x binds, in text order
	var schema []plan.Col
	switch s := w.stmt.(type) {
	case *parser.Insert:
		for _, row := range s.Rows {
			for _, ex := range row {
				if _, ok := ex.(*parser.Literal); !ok {
					exprs = append(exprs, ex)
				}
			}
		}
	case *parser.Update:
		for _, a := range s.Set {
			exprs = append(exprs, a.Value)
		}
		schema = w.scan.Schema()
	}
	if x.slotted = w.scan != nil || len(exprs) > 0; x.slotted {
		x.ctx.UseSlots(slots)
	}
	if w.scan != nil {
		x.match = exec.NewMatcher(&x.ctx, w.scan)
	}
	for _, ex := range exprs {
		x.values = append(x.values, x.ctx.BindRow(ex, schema))
	}
	return x
}

// maxKeptIDs bounds the matched-id buffer an executor is kept with.
const maxKeptIDs = 1 << 12

// execWrite runs the DML statement en serves, with slots its slot values,
// on the executor kept for its key. The caller holds writeMu.
func (e *Engine) execWrite(en planEntry, slots []sqltypes.Value, tr *obs.Trace, sp *obs.Span) (*Result, error) {
	x := e.writer(en.kept, en.write, slots)
	defer func() {
		if cap(x.ids) > maxKeptIDs {
			x.ids = nil
		}
		en.kept.put(x)
	}()
	switch s := en.write.stmt.(type) {
	case *parser.Insert:
		return e.execInsert(s, x, slots, tr, sp)
	case *parser.Update:
		return e.execUpdate(s, x, tr, sp)
	}
	return e.execDelete(x, tr, sp)
}

// execInsert inserts the rows of s, its slot values slots: a bare
// literal's value is its slot's, any other value's its bound form's in
// x.values.
func (e *Engine) execInsert(s *parser.Insert, x *executor, slots []sqltypes.Value, tr *obs.Trace, sp *obs.Span) (res *Result, err error) {
	w := x.write
	t := w.table
	// One transaction per statement: every row of a multi-row INSERT
	// becomes visible to new snapshots together. Commit always runs —
	// rows applied before a mid-statement error stay applied (the
	// engine's established partial-application semantics).
	tx := e.store.Begin()
	defer func() { res, err = e.commitTraced(tx, tr, sp, res, err) }()
	bound := x.values
	inserted := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(w.cols) {
			return nil, fmt.Errorf("core: INSERT value count %d does not match column count %d", len(exprRow), len(w.cols))
		}
		row := slices.Clone(w.blank) // the store's once inserted
		for i, ex := range exprRow {
			var v sqltypes.Value
			if lit, ok := ex.(*parser.Literal); !ok {
				if v, err = bound[0].Eval(nil); err != nil {
					return nil, err
				}
				bound = bound[1:]
			} else if v = lit.Val; lit.Slot > 0 {
				v = slots[lit.Slot-1]
			}
			ci := w.cols[i]
			cv, err := v.Coerce(t.Columns[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("core: column %s: %w", t.Columns[ci].Name, err)
			}
			row[ci] = cv
		}
		if _, err := tx.Insert(t.Name, row); err != nil {
			return nil, err
		}
		t.RowWritten(nil, row)
		inserted++
	}
	return &Result{Affected: inserted}, nil
}

// matchRows reads the ids of the rows x's UPDATE or DELETE applies to into
// x.ids, through the executor's table reader (exec.Matcher): by the
// primary key or an index when the WHERE pins one to a literal (the access
// path a SELECT would take), over the whole table otherwise. The write
// itself applies to each row's live version.
func matchRows(x *executor) error {
	var err error
	x.ctx.Stats = exec.Stats{}
	x.ids, err = x.match.AppendIDs(&x.ctx, x.ids[:0])
	return err
}

func (e *Engine) execUpdate(s *parser.Update, x *executor, tr *obs.Trace, sp *obs.Span) (res *Result, err error) {
	if err := matchRows(x); err != nil {
		return nil, err
	}
	w := x.write
	t := w.table
	// The SET list applied to a row's live version: each assignment reads
	// the row as the earlier ones left it. The WHERE is not evaluated
	// again there.
	set := func(live storage.Row) (storage.Row, error) {
		updated := live.Clone()
		for ai, ci := range w.set {
			v, err := x.values[ai].Eval(updated)
			if err != nil {
				return nil, err
			}
			cv, err := v.Coerce(t.Columns[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("core: column %s: %w", s.Set[ai].Column, err)
			}
			updated[ci] = cv
		}
		return updated, nil
	}
	// One transaction per statement: all matched rows flip to the new
	// version together from any new snapshot's point of view.
	tx := e.store.Begin()
	defer func() { res, err = e.commitTraced(tx, tr, sp, res, err) }()
	for _, id := range x.ids {
		live, updated, err := tx.Update(t.Name, id, set)
		if err != nil {
			return nil, err
		}
		t.RowWritten(live, updated)
	}
	return &Result{Affected: len(x.ids)}, nil
}

func (e *Engine) execDelete(x *executor, tr *obs.Trace, sp *obs.Span) (res *Result, err error) {
	if err := matchRows(x); err != nil {
		return nil, err
	}
	t := x.write.table
	// One transaction per statement: all matched rows disappear together
	// from any new snapshot's point of view.
	tx := e.store.Begin()
	defer func() { res, err = e.commitTraced(tx, tr, sp, res, err) }()
	for _, id := range x.ids {
		live, err := tx.Delete(t.Name, id)
		if err != nil {
			return nil, err
		}
		t.RowWritten(live, nil)
	}
	return &Result{Affected: len(x.ids)}, nil
}

// optimizerOptions are the engine's optimizer options with the live cost
// inputs.
func (e *Engine) optimizerOptions() optimizer.Options {
	opts := e.cfg.Optimizer
	opts.Cost = e.costInputs()
	return opts
}

// costInputs assembles the live numbers the cost model prices plans with:
// the task manager's price list and observed round-trip latency plus the
// shared comparison cache's hit rate — the runtime feedback loop.
func (e *Engine) costInputs() optimizer.CostInputs {
	ci := optimizer.DefaultCostInputs()
	if e.tasks != nil {
		ci.Prices = e.tasks.Prices()
		ci.Window = float64(e.tasks.Config().MaxInFlight)
		if p50, _, n := e.tasks.LatencyStats(); n > 0 && p50 > 0 {
			ci.RoundTripSeconds = p50.Seconds()
		}
	}
	cs := e.cache.Stats()
	if resolved := cs.Hits + cs.Misses + cs.Shared; resolved > 0 {
		ci.CacheHitRate = float64(cs.Hits+cs.Shared) / float64(resolved)
	}
	return ci
}

// Prices is the task manager's price list for a unit of crowd work, zero
// without a crowd platform. Every actual — a statement's spend, a job's
// running total, EXPLAIN ANALYZE's per-operator cents — is
// exec.Stats.Cents at these prices.
func (e *Engine) Prices() taskmgr.Prices {
	if e.tasks == nil {
		return taskmgr.Prices{}
	}
	return e.tasks.Prices()
}

// Forecast compiles a statement and returns the optimizer's cost
// forecast without executing anything — the submit-time admission
// check's input. ok is false for statements the cost model does not
// price (DDL/DML and plain EXPLAIN cost the crowd nothing; compile
// errors surface at execution, not admission).
func (e *Engine) Forecast(stmt parser.Statement) (plan.Cost, bool) {
	var st statement
	e.intake(&st, stmt)
	return e.forecast(&st)
}

// forecast is Forecast of st.
func (e *Engine) forecast(st *statement) (plan.Cost, bool) {
	switch s := st.tree.(type) {
	case *parser.Select:
		en, err := e.entry(st)
		if err != nil {
			return plan.Cost{}, false
		}
		return en.opt.Predicted, true
	case *parser.Explain:
		if s.Analyze {
			// EXPLAIN ANALYZE executes for real: forecast the inner query.
			return e.Forecast(s.Stmt)
		}
	}
	return plan.Cost{}, false
}

// optimized ends osp, a SELECT's "optimize" span, with the chosen plan's
// cost snapshot or the compile's error, and returns the error.
func optimized(osp *obs.Span, opt *optimizer.Result, err error) error {
	if err != nil {
		osp.SetAttr("error", err.Error())
		osp.End()
		return err
	}
	osp.SetText("predicted", &opt.Predicted) // rendered now: the trace keeps no reference into opt
	osp.SetBool("bounded", opt.Bounded)
	osp.End()
	return nil
}

// runSelect executes a compiled plan with cols its result's column names,
// binding slots, the executing statement's slot values, on an executor
// kept for the plan's key or, when kept holds none, a fresh one, which
// kept then keeps (a nil kept keeps nothing). opStats, when non-nil,
// collects per-plan-node actuals (EXPLAIN ANALYZE); passing it also forces
// the instrumented operator shells on even when tracing is off.
func (e *Engine) runSelect(ctx context.Context, opt *optimizer.Result, cols []string, slots []sqltypes.Value, kept *keptExecutor, opts ExecOpts, tr *obs.Trace, sp *obs.Span, opStats map[plan.Node]*exec.OpStats) (*Result, error) {
	// Pin the statement's snapshot: every stored-data read — across
	// crowd waits that may last minutes — sees exactly the rows
	// committed at this timestamp. Released when the statement finishes
	// so version GC can reclaim what only this snapshot could see.
	snap := e.store.AcquireSnapshot()
	snapSpan := tr.Span(sp, "snapshot")
	snapSpan.SetInt("ts", snap.TS())
	defer func() {
		snap.Release()
		snapSpan.End()
	}()
	observer := opts.Observer
	if observer != nil {
		observer.Snapshot(snap.TS())
	}
	// Crowd counters fold in even when the statement errors or is
	// cancelled midway — like the observer's Final below, they account
	// for work already paid.
	var st exec.Stats
	defer func() { e.noteCrowdStats(st) }()
	// Final fires even when the statement errors or is cancelled midway:
	// the crowd work already committed must reach the caller's budget
	// settlement, and the Result cannot carry it then.
	if observer != nil {
		defer func() { observer.Final(st) }()
	}
	// EXPLAIN ANALYZE (opStats set) counts its rows instead of streaming
	// them or their schema.
	stream := observer != nil && opStats == nil
	if stream {
		observer.Schema(cols)
	}
	execSpan := tr.Span(sp, "execute")
	defer execSpan.End()
	x, err := e.executor(kept, opt, slots, tr, opStats)
	if err != nil {
		return nil, err
	}
	ectx := &x.ctx
	ectx.CompareBudget = max(opts.CompareBudget, 0) // the executor reads a negative budget as exhausted
	ectx.SnapshotTS, ectx.Context, ectx.Trace, ectx.Span, ectx.Stats = snap.TS(), ctx, tr, execSpan, exec.Stats{}
	if observer != nil {
		ectx.Progress = observer
	}
	var rows []storage.Row
	if stream {
		err = exec.RunSink(x.root, ectx, observer)
	} else {
		rows, err = exec.Run(x.root, ectx)
	}
	st = ectx.Stats
	// The tree is closed: the executor keeps nothing of the statement.
	ectx.Context, ectx.Progress, ectx.Trace, ectx.Span = nil, nil, nil, nil
	kept.put(x)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: rows, Warnings: slices.Clip(opt.Warnings), Stats: st, SnapshotTS: snap.TS()}
	res.Predicted = opt.Predicted
	res.ActualCents = st.Cents(e.Prices())
	if e.tasks != nil && !opt.Predicted.IsUnbounded() &&
		(opt.Predicted.Cents > 0 || res.ActualCents > 0) {
		e.observeCostError(opt.Predicted.Cents, res.ActualCents)
	}
	res.Columns = cols
	return res, nil
}

// executor returns an executor of opt with slots in its slot storage: the
// one kept takes, else one built afresh. A kept executor built from
// another plan, or with other shells than tr and opStats ask for, is
// dropped.
func (e *Engine) executor(kept *keptExecutor, opt *optimizer.Result, slots []sqltypes.Value, tr *obs.Trace, opStats map[plan.Node]*exec.OpStats) (*executor, error) {
	if x := kept.take(); x != nil && x.plan == opt.Root {
		x.ctx.Trace, x.ctx.OpStats = tr, opStats
		if x.ctx.Instrumented() == x.shelled {
			x.ctx.UseSlots(slots)
			return x, nil
		}
	}
	x := &executor{plan: opt.Root, ctx: exec.Ctx{
		Store:      e.store,
		Cat:        e.cat,
		Tasks:      e.tasks,
		Cache:      e.cache,
		Subqueries: (*subqueryRunner)(e),
		Trace:      tr,
		OpStats:    opStats,
	}}
	if e.opm != nil {
		x.ctx.OpMetrics = e.opm
	}
	x.shelled = x.ctx.Instrumented()
	x.ctx.UseSlots(slots)
	var err error
	x.root, err = exec.Build(opt.Root, &x.ctx)
	return x, err
}

// subqueryRunner runs a statement's uncorrelated IN-subqueries: each
// compiles and runs like a top-level SELECT (sharing store, crowd, and
// cache) under the context the executor prepared for it; its single
// output column becomes the IN list.
type subqueryRunner Engine

func (r *subqueryRunner) RunSubquery(sub *exec.Ctx, sel *parser.Select) ([]sqltypes.Value, error) {
	e := (*Engine)(r)
	opt, err := e.compileFresh(sel, e.optimizerOptions())
	if err != nil {
		return nil, fmt.Errorf("core: subquery: %w", err)
	}
	if len(opt.Root.Schema()) != 1 {
		return nil, fmt.Errorf("core: IN subquery must return exactly one column, got %d", len(opt.Root.Schema()))
	}
	op, err := exec.Build(opt.Root, sub)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Run(op, sub)
	if err != nil {
		return nil, err
	}
	vals := make([]sqltypes.Value, len(rows))
	for i, r := range rows {
		vals[i] = r[0]
	}
	return vals, nil
}

func (e *Engine) execExplain(ctx context.Context, s *parser.Explain, opts ExecOpts, tr *obs.Trace, sp *obs.Span) (*Result, error) {
	sel, ok := s.Stmt.(*parser.Select)
	if !ok {
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT only")
	}
	osp := tr.Span(sp, "optimize")
	opt, err := e.compileFresh(sel, e.optimizerOptions())
	if err = optimized(osp, opt, err); err != nil {
		return nil, err
	}
	// EXPLAIN ANALYZE runs the statement for real — crowd work, spend,
	// budget, and all — discarding the rows; the per-operator actuals it
	// measures annotate the plan next to the optimizer's predictions.
	var opStats map[plan.Node]*exec.OpStats
	var analyzed *Result
	if s.Analyze {
		opStats = make(map[plan.Node]*exec.OpStats)
		analyzed, err = e.runSelect(ctx, opt, colNames(opt), nil, nil, opts, tr, sp, opStats)
		if err != nil {
			return nil, err
		}
	}
	prices := e.Prices()
	var sb strings.Builder
	sb.WriteString(plan.ExplainTreeAnnotated(opt.Root, func(n plan.Node) string {
		var parts []string
		if cost, ok := opt.Costs[n]; ok {
			// The row estimate that priced the plan, next to its price.
			rows := "~∞ rows"
			if !math.IsInf(cost.Rows, 1) {
				rows = fmt.Sprintf("~%.0f rows", cost.Rows)
			}
			parts = append(parts, rows, cost.String())
		}
		if st, ok := opStats[n]; ok {
			actual := fmt.Sprintf("(actual: %d rows, %s, ¢%.1f",
				st.RowsOut, time.Duration(st.WallNanos).Round(time.Microsecond), st.Crowd.Cents(prices))
			if st.PeakBufferedRows > 0 {
				actual += fmt.Sprintf(", peak %d buffered", st.PeakBufferedRows)
			}
			parts = append(parts, actual+")")
		}
		return strings.Join(parts, "  ")
	}))
	fmt.Fprintf(&sb, "bounded: %v\n", opt.Bounded)
	fmt.Fprintf(&sb, "predicted: %s\n", opt.Predicted)
	// EXPLAIN reads no rows; it reports the watermark a SELECT compiled
	// right now would pin. ANALYZE reports the snapshot it executed at.
	res := &Result{Plan: sb.String(), Warnings: opt.Warnings, Predicted: opt.Predicted, SnapshotTS: e.store.VisibleTS()}
	if analyzed != nil {
		fmt.Fprintf(&sb, "actual: ¢%.1f, %d comparisons, %d rows\n",
			analyzed.ActualCents, analyzed.Stats.Comparisons, len(analyzed.Rows))
		res.Plan = sb.String()
		res.Stats = analyzed.Stats
		res.ActualCents = analyzed.ActualCents
		res.SnapshotTS = analyzed.SnapshotTS
	}
	return res, nil
}
