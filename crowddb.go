// Package crowddb is a Go reproduction of CrowdDB, the hybrid
// human/machine query processor of "CrowdDB: Query Processing with the
// VLDB Crowd" (Feng et al., VLDB 2011) and its SIGMOD 2011 companion.
//
// CrowdDB answers SQL queries that a normal database cannot: when data is
// missing, when entity resolution needs human judgement, or when results
// must be ranked by subjective criteria. It extends SQL with CrowdSQL —
// the CROWD keyword on tables and columns, the CNULL value, and the
// CROWDEQUAL / CROWDORDER built-ins — and extends the query engine with
// three crowd operators (CrowdProbe, CrowdJoin, CrowdCompare) that post
// tasks to a crowdsourcing platform, quality-control the answers by
// majority vote, and memorize them in the store.
//
// Two platforms are provided, both backed by a deterministic discrete-
// event worker simulator standing in for the live crowds of the paper:
// a simulated Amazon Mechanical Turk and the paper's locality-aware
// mobile platform (conference attendees inside a geo-fence).
//
// Quickstart:
//
//	db, _ := crowddb.Open(crowddb.Config{Platform: crowddb.NewAMTPlatform(1), Oracle: myOracle})
//	db.Exec(`CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)`)
//	db.Exec(`INSERT INTO Talk (title) VALUES ('CrowdDB')`)
//	res, _ := db.Query(`SELECT abstract FROM Talk WHERE title = 'CrowdDB'`)
//	// res.Rows[0][0] now holds the crowd-provided abstract.
package crowddb

import (
	"context"
	"fmt"
	"strings"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/mobile"
	"crowddb/internal/crowd/model"
	"crowddb/internal/exec"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
	"crowddb/internal/wrm"
)

// Re-exported types: the public API surfaces the engine's own types via
// aliases so applications in this module (and its examples) use one
// vocabulary.
type (
	// Config assembles a CrowdDB instance; see the field docs on
	// core.Config.
	Config = core.Config
	// Result is the outcome of one statement: columns+rows for SELECT,
	// affected count for DML, plan text for EXPLAIN.
	Result = core.Result
	// Platform is a crowdsourcing backend (AMT, mobile, or custom).
	Platform = crowd.Platform
	// Oracle supplies simulation-only ground truth for crowd tasks.
	Oracle = taskmgr.Oracle
	// TaskConfig tunes task posting (reward, replication, deadlines).
	TaskConfig = taskmgr.Config
	// PaymentPolicy is the Worker Relationship Manager's payout policy.
	PaymentPolicy = wrm.PaymentPolicy
	// OptimizerOptions switches individual rewrite rules (ablations).
	OptimizerOptions = optimizer.Options
	// Value is a SQL value (strings, ints, floats, bools, NULL, CNULL).
	Value = sqltypes.Value
	// ExecStats counts a statement's crowd activity.
	ExecStats = exec.Stats
	// ExecOpts tunes one Execute call (budget, observer, trace); see
	// core.ExecOpts.
	ExecOpts = core.ExecOpts
	// Observer follows a running SELECT — its snapshot, schema, rows,
	// live spend and final crowd stats (ExecOpts.Observer).
	Observer = core.Observer
)

// DB is a CrowdDB database handle. It is safe for concurrent use; crowd-
// facing statements serialize internally.
type DB struct {
	eng *core.Engine
}

// Open creates or reopens a CrowdDB instance. With cfg.DataDir set, the
// schema, data, and crowd answers persist across Open/Close cycles. With
// cfg.Platform nil the database runs without crowdsourcing (CNULLs stay
// CNULL, comparisons resolve to unknown).
func Open(cfg Config) (*DB, error) {
	eng, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close releases the database (flushes and closes the WAL).
func (db *DB) Close() error { return db.eng.Close() }

// Checkpoint snapshots the store and truncates the WAL.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Exec runs a CrowdSQL script (one or more ;-separated statements) and
// returns the last statement's result.
func (db *DB) Exec(sql string) (*Result, error) { return db.eng.Exec(sql) }

// Query runs a single SELECT.
func (db *DB) Query(sql string) (*Result, error) { return db.eng.Query(sql) }

// Execute runs a CrowdSQL script under ctx: cancelling ctx stops the
// running statement mid-crowd-wait (no new HITs are posted, paid work
// settles). Use ExecuteOpts to additionally stream rows out as they are
// produced.
func (db *DB) Execute(ctx context.Context, sql string) (*Result, error) {
	return db.eng.Execute(ctx, sql, core.DefaultExecOpts())
}

// ExecuteOpts is Execute with per-call options (budget, an Observer that
// streams each SELECT's rows and reports its spend, trace).
func (db *DB) ExecuteOpts(ctx context.Context, sql string, opts ExecOpts) (*Result, error) {
	return db.eng.Execute(ctx, sql, opts)
}

// Engine exposes the underlying engine for advanced integrations (the
// Form Editor, WRM console, and benchmark harness use it).
func (db *DB) Engine() *core.Engine { return db.eng }

// NewAMTPlatform returns the simulated Amazon Mechanical Turk platform,
// deterministically seeded.
func NewAMTPlatform(seed int64) Platform { return amt.NewDefault(seed) }

// NewMobilePlatform returns the simulated locality-aware mobile platform
// with the paper's VLDB 2011 venue crowd, deterministically seeded.
func NewMobilePlatform(seed int64) Platform { return mobile.New(mobile.DefaultConfig(seed)) }

// NewModelPlatform returns the simulated model-worker platform with the
// sharp (accurate, calibrated) profile, deterministically seeded. Use it
// as Config.Platform for model-only answering, or as
// Config.Tasks.ModelPlatform to route model-first with human escalation.
func NewModelPlatform(seed int64) Platform {
	return model.New(model.Config{Seed: seed, Profile: model.Sharp()})
}

// FormatTable renders a result as an aligned text table (the REPL's and
// the examples' output format).
func FormatTable(res *Result) string {
	if res == nil {
		return ""
	}
	if res.Plan != "" {
		return res.Plan
	}
	if len(res.Columns) == 0 {
		return fmt.Sprintf("%d row(s) affected\n", res.Affected)
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(v)))
		}
		sb.WriteByte('\n')
	}
	writeRow(res.Columns)
	total := 0
	for _, w := range widths {
		total += w + 3
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(res.Rows))
	return sb.String()
}
