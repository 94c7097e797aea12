package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/lexer"
	"crowddb/internal/parser"
	"crowddb/pkg/client"
)

// The traced run takes the per-layer numbers from outside the program:
// this file times calls into each package's public functions and records
// them as spans. Consecutive statements of client 0's stream are dealt
// round-robin to five stages, each entering the stack one layer further
// out, so every statement — non-idempotent writes and cold crowd work
// included — runs exactly once:
//
//	plain    the SDK path with a single clock around it (overhead base)
//	core     lexer.Tokenize, parser.ParseAll, Engine.Forecast, Engine.ExecStmtCtx
//	server   Server.StartJob → terminal state, in-process
//	handler  the SDK's three requests straight into HTTPHandler().ServeHTTP
//	client   Submit, first row, drain, Wait through pkg/client over loopback
//
// A layer's self time is its stage's per-class median minus the stage
// below's.

// The staged phase deals whole rounds of client 0's stream until it has
// at least this many statements (and at least stagedRounds rounds), so
// the slow workloads still get a few dozen samples per stage and class.
const (
	stagedRounds   = 4
	stagedMinStmts = 600
)

// span is one timed call, as written to out/trace-<workload>.jsonl.
type span struct {
	Trace  string `json:"trace"`  // statement id, shared by the statement's spans
	Name   string `json:"name"`   // e.g. "parser.parse"
	Parent string `json:"parent"` // name of the enclosing span, "" at the root
	Start  int64  `json:"start"`  // ns since the staged phase began
	End    int64  `json:"end"`
}

// staged collects the spans and per-class durations of the staged phase.
type staged struct {
	origin   time.Time
	spans    []span
	byName   map[string][][]float64 // span name → class → seconds
	perClass []int                  // statements seen per class
	failed   int
	total    int
}

func newStaged(classes int) *staged {
	return &staged{origin: time.Now(), byName: make(map[string][][]float64), perClass: make([]int, classes)}
}

// observe records a span and files its duration under its class.
func (s *staged) observe(trace, name, parent string, class int, start, end time.Time) {
	s.spans = append(s.spans, span{
		Trace: trace, Name: name, Parent: parent,
		Start: start.Sub(s.origin).Nanoseconds(), End: end.Sub(s.origin).Nanoseconds(),
	})
	s.sum(name, class, end.Sub(start).Seconds())
}

// sum files a duration that is not one contiguous span (the core stage's
// parse + execute path).
func (s *staged) sum(name string, class int, seconds float64) {
	if s.byName[name] == nil {
		s.byName[name] = make([][]float64, len(s.perClass))
	}
	s.byName[name][class] = append(s.byName[name][class], seconds)
}

// weighted is the statement mix's typical duration of a span: per-class
// medians weighted by each class's share of the stream. A class that
// never produced the span (DML has no optimizer.compile) contributes 0.
func (s *staged) weighted(name string) float64 {
	per := s.byName[name]
	if per == nil {
		return 0
	}
	total, stmts := 0.0, 0
	for c, n := range s.perClass {
		stmts += n
		if len(per[c]) > 0 {
			total += float64(n) * median(per[c])
		}
	}
	if stmts == 0 {
		return 0
	}
	return total / float64(stmts)
}

func (s *staged) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// stageFunc runs one statement through one entry point and reports
// whether it succeeded.
type stageFunc func(ctx context.Context, d *deployment, s *staged, st *stmt, id string) bool

var stages = []stageFunc{stagePlain, stageCore, stageServer, stageHandler, stageClient}

// runStaged deals client 0's next rounds to the stages.
func (d *deployment) runStaged(ctx context.Context, firstRound int) (*staged, error) {
	s := newStaged(len(d.w.classes()))
	for r := firstRound; r < firstRound+stagedRounds || s.total < d.sz.of(stagedMinStmts); r++ {
		stmts := d.w.round(0, r)
		if stmts == nil {
			break
		}
		for i := range stmts {
			st := &stmts[i]
			id := fmt.Sprintf("s%06d", s.total)
			if !stages[s.total%len(stages)](ctx, d, s, st, id) {
				s.failed++
			}
			s.perClass[st.class]++
			s.total++
		}
	}
	if s.total == 0 {
		return nil, fmt.Errorf("%s: no statements left for the staged phase", d.w.name())
	}
	return s, nil
}

func stagePlain(ctx context.Context, d *deployment, s *staged, st *stmt, id string) bool {
	var out outcome
	start := time.Now()
	_, err := execOne(ctx, d.clients[0], st.sql, start, &out)
	s.observe(id, "driver.plain", "", st.class, start, time.Now())
	return err == nil && d.w.check(st, &out)
}

func stageCore(ctx context.Context, d *deployment, s *staged, st *stmt, id string) bool {
	begin := time.Now()
	_, err := lexer.Tokenize(st.sql)
	t1 := time.Now()
	s.observe(id, "lexer.tokenize", "stmt", st.class, begin, t1)
	if err != nil {
		return false
	}
	stmts, err := parser.ParseAll(st.sql)
	t2 := time.Now()
	s.observe(id, "parser.parse", "stmt", st.class, t1, t2)
	if err != nil || len(stmts) != 1 {
		return false
	}
	execStart := t2
	if _, ok := stmts[0].(*parser.Select); ok {
		// An extra compile, recorded for attribution: ExecStmtCtx
		// compiles again inside core.exec_stmt.
		d.st.eng.Forecast(stmts[0])
		execStart = time.Now()
		s.observe(id, "optimizer.compile", "stmt", st.class, t2, execStart)
	}
	_, err = d.st.eng.ExecStmtCtx(ctx, stmts[0], core.DefaultExecOpts())
	end := time.Now()
	s.observe(id, "core.exec_stmt", "stmt", st.class, execStart, end)
	s.observe(id, "stmt", "", st.class, begin, end)
	// What the server pays below itself: one parse and one execution.
	s.sum("core.path", st.class, t2.Sub(t1).Seconds()+end.Sub(execStart).Seconds())
	return err == nil
}

func stageServer(_ context.Context, d *deployment, s *staged, st *stmt, id string) bool {
	start := time.Now()
	job, serr := d.st.srv.StartJob("", st.sql)
	if serr != nil {
		s.observe(id, "server.job", "", st.class, start, time.Now())
		return false
	}
	// The job resource has no exported wait. Yield for short jobs; for
	// long ones sleep between polls, so the waiter does not take a core
	// from the job's own parallel scan workers.
	for spins := 0; !job.State().Terminal(); spins++ {
		if spins < 2000 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	info := job.Info()
	s.observe(id, "server.job", "", st.class, start, time.Now())
	return info.State == "done"
}

func stageHandler(_ context.Context, d *deployment, s *staged, st *stmt, id string) bool {
	h := d.st.hs.Handler
	inHandler := 0.0
	serve := func(name, method, target string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		s.observe(id, name, "server.http", st.class, start, end)
		inHandler += end.Sub(start).Seconds()
		return rec
	}
	begin := time.Now()
	body, _ := json.Marshal(map[string]string{"sql": st.sql}) //nolint:errcheck // strings always marshal
	sub := serve("server.http_submit", http.MethodPost, "/v1/queries", body)
	var status client.JobStatus
	if sub.Code != http.StatusAccepted || json.Unmarshal(sub.Body.Bytes(), &status) != nil {
		return false
	}
	rows := serve("server.http_rows", http.MethodGet, "/v1/queries/"+status.ID+"/rows?from=0", nil)
	final := serve("server.http_status", http.MethodGet, "/v1/queries/"+status.ID, nil)
	// The parent span is logged as it happened; the staircase uses only
	// the time spent inside ServeHTTP, not this function's own request
	// building and response decoding.
	s.spans = append(s.spans, span{
		Trace: id, Name: "server.http",
		Start: begin.Sub(s.origin).Nanoseconds(), End: time.Since(s.origin).Nanoseconds(),
	})
	s.sum("server.http", st.class, inHandler)
	if rows.Code != http.StatusOK || json.Unmarshal(final.Body.Bytes(), &status) != nil {
		return false
	}
	return status.State == "done"
}

func stageClient(ctx context.Context, d *deployment, s *staged, st *stmt, id string) bool {
	cl := d.clients[0]
	var out outcome
	begin := time.Now()
	job, err := cl.Submit(ctx, st.sql)
	t1 := time.Now()
	s.observe(id, "client.submit", "client.query", st.class, begin, t1)
	if err != nil {
		return false
	}
	it, err := job.Rows(ctx)
	if err != nil {
		return false
	}
	defer it.Close()
	more := it.Next()
	t2 := time.Now()
	s.observe(id, "client.first_row", "client.query", st.class, t1, t2)
	for more {
		out.rows = append(out.rows, it.Row())
		more = it.Next()
	}
	t3 := time.Now()
	s.observe(id, "client.drain", "client.query", st.class, t2, t3)
	if it.Err() != nil {
		return false
	}
	status, err := job.Wait(ctx)
	end := time.Now()
	s.observe(id, "client.wait", "client.query", st.class, t3, end)
	s.observe(id, "client.query", "", st.class, begin, end)
	if err != nil {
		return false
	}
	out.state, out.affected = status.State, status.Affected
	return d.w.check(st, &out)
}

// staircaseValues turns the staged phase into the per-layer time metrics.
func (s *staged) staircaseValues() map[string]float64 {
	const us = 1e6
	corePath := s.weighted("core.path")
	server := s.weighted("server.job")
	handler := s.weighted("server.http")
	cl := s.weighted("client.query")
	overhead := 0.0
	if plain := s.weighted("driver.plain"); plain > 0 {
		overhead = cl / plain
	}
	return map[string]float64{
		"client.self_us":              (cl - handler) * us,
		"server.http_self_us":         (handler - server) * us,
		"server.jobs_self_us":         (server - corePath) * us,
		"lexer.tokenize_us":           s.weighted("lexer.tokenize") * us,
		"parser.parse_us":             s.weighted("parser.parse") * us,
		"optimizer.compile_us":        s.weighted("optimizer.compile") * us,
		"core.exec_stmt_us":           s.weighted("core.exec_stmt") * us,
		"driver.trace_overhead_ratio": overhead,
	}
}

// walRecords counts the JSON-lines records in a data directory's shard
// WALs (0 for in-memory workloads).
func walRecords(dir string) int {
	if dir == "" {
		return 0
	}
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0
	}
	n := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		n += bytes.Count(data, []byte{'\n'})
	}
	return n
}

// runTraced is the per-layer run: a short calibrated 2-client phase for
// the raw wall-clock and count metrics, the staged phase for the
// staircase, then the probes.
func runTraced(ctx context.Context, name string, opts runOpts) (*runRecord, error) {
	d, _, err := deploy(ctx, name, opts.seed, opts.sz)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		d.finish(opts.seed) //nolint:errcheck // the calibrator's error wins
		return nil, err
	}
	m, next, merr := d.measure(ctx, cal, tracedRounds)
	cal.close()
	var s *staged
	var serr error
	if merr == nil {
		s, serr = d.runStaged(ctx, next)
	}
	cerr := d.close()
	records := walRecords(d.dir)
	recoverSeconds, verr := d.finish(opts.seed)
	for _, err := range []error{merr, serr, cerr} {
		if err != nil {
			return nil, err
		}
	}
	rec := &runRecord{
		Workload:  name,
		Trace:     true,
		Attempted: m.attempted + s.total,
		Failed:    m.failed + s.failed,
		Noisy:     m.noisy(),
		Exhausted: m.exhausted,
		Rounds:    m.rounds,
	}
	if verr != nil {
		rec.Problems = append(rec.Problems, verr.Error())
	}
	tracePath := filepath.Join(outDir, "trace-"+name+".jsonl")
	if err := s.write(tracePath); err != nil {
		rec.Problems = append(rec.Problems, "span log: "+err.Error())
	}
	vals := m.driverValues()
	for k, v := range s.staircaseValues() {
		vals[k] = v
	}
	vals["storage.recover_ms_per_krec"] = 0
	if records > 0 {
		vals["storage.recover_ms_per_krec"] = recoverSeconds * 1e3 / (float64(records) / 1e3)
	}
	probeVals, err := runProbes(ctx, name, opts)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probeVals {
		vals[k] = v
	}
	rec.CentsPerStmt = vals["taskmgr.cents_per_stmt"]
	var missing []string
	rec.Metrics, missing = fill(perLayer, vals)
	if len(missing) > 0 {
		rec.Problems = append(rec.Problems, "metrics not measured: "+strings.Join(missing, ", "))
	}
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
	return rec, nil
}
