package core

// Engine observability: EXPLAIN ANALYZE actuals, per-statement traces,
// the slow-query log, and the DisableObservability control arm.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"crowddb/internal/crowd/amt"
	"crowddb/internal/obs"
	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func TestExplainAnalyze(t *testing.T) {
	eng, conf := newConferenceEngine(t, 31, "")
	defer eng.Close()
	title := sqltypes.NewString(conf.Talks[0].Title).SQLLiteral()
	q := "SELECT abstract FROM Talk WHERE title = " + title

	// Plain EXPLAIN predicts but never executes: no actuals, no probes.
	res := mustExec(t, eng, "EXPLAIN "+q)
	if strings.Contains(res.Plan, "(actual:") {
		t.Fatalf("EXPLAIN must not report actuals:\n%s", res.Plan)
	}
	if res.Stats.ProbeRequests != 0 {
		t.Fatalf("EXPLAIN must not run the query: %+v", res.Stats)
	}

	// EXPLAIN ANALYZE executes for real and annotates each operator with
	// measured rows, wall time, and cents next to the predictions.
	res = mustExec(t, eng, "EXPLAIN ANALYZE "+q)
	for _, want := range []string{"CrowdProbe(Talk)", "(actual:", "rows", "predicted:", "actual: ¢"} {
		if !strings.Contains(res.Plan, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, res.Plan)
		}
	}
	if res.Stats.ProbeRequests != 1 {
		t.Errorf("ANALYZE must pay for the probe: %+v", res.Stats)
	}
	if res.ActualCents <= 0 {
		t.Errorf("ANALYZE must report measured spend, got ¢%v", res.ActualCents)
	}

	// The crowd work ANALYZE paid for is durable: the same SELECT now
	// answers from storage without a second probe.
	res = mustExec(t, eng, q)
	if res.Stats.ProbeRequests != 0 {
		t.Errorf("probe answer not reused after ANALYZE: %+v", res.Stats)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
		t.Errorf("rows after ANALYZE: %v", res.Rows)
	}

	if _, err := eng.Exec("EXPLAIN ANALYZE INSERT INTO Talk (title) VALUES ('x')"); err == nil {
		t.Error("EXPLAIN ANALYZE DML must fail")
	}
}

// TestStatementTrace drives a crowd SELECT under a caller-owned trace and
// checks the span taxonomy end to end.
func TestStatementTrace(t *testing.T) {
	eng, conf := newConferenceEngine(t, 32, "")
	defer eng.Close()
	tr := eng.Tracer().Start("t-test")
	q := "SELECT abstract FROM Talk WHERE title = " +
		sqltypes.NewString(conf.Talks[1].Title).SQLLiteral()
	if _, err := eng.Execute(context.Background(), q, ExecOpts{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	eng.Tracer().Finish(tr)

	got := eng.Tracer().Lookup("t-test")
	if got == nil {
		t.Fatal("finished trace not retained")
	}
	tj := got.JSON()
	for _, prefix := range []string{"parse", "statement", "optimize", "snapshot", "execute", "op:probe", "crowd:probe"} {
		if len(tj.FindSpans(prefix)) == 0 {
			t.Errorf("no %q span in trace %s (%d spans)", prefix, tj.TraceID, tj.Spans)
		}
	}
	probe := tj.FindSpans("crowd:probe")[0]
	if probe.Attrs["answers"] == "" || probe.Attrs["posted_at"] == "" {
		t.Errorf("probe span lacks lifecycle attrs: %v", probe.Attrs)
	}

	// CrowdJoin's tuple solicitation keeps its own span name.
	tr = eng.Tracer().Start("t-join")
	q = "SELECT n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE t.title = " +
		sqltypes.NewString(conf.Talks[1].Title).SQLLiteral()
	if _, err := eng.Execute(context.Background(), q, ExecOpts{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	eng.Tracer().Finish(tr)
	if spans := eng.Tracer().Lookup("t-join").JSON().FindSpans("crowd:join_tuples"); len(spans) == 0 || !strings.EqualFold(spans[0].Attrs["table"], "NotableAttendee") {
		t.Errorf("CrowdJoin trace: want a crowd:join_tuples span on NotableAttendee, got %d such spans", len(spans))
	}
}

// TestEngineOwnedTraces checks that statements run without a caller trace
// still record one in the tracer's ring under a q-sequence id.
func TestEngineOwnedTraces(t *testing.T) {
	eng, _ := newConferenceEngine(t, 33, "")
	defer eng.Close()
	// newConferenceEngine already ran statements; q000001 is its CREATE.
	tr := eng.Tracer().Lookup("q000001")
	if tr == nil {
		t.Fatal("engine-owned trace q000001 not retained")
	}
	if spans := tr.JSON().FindSpans("statement"); len(spans) == 0 || spans[0].Attrs["kind"] != "ddl" {
		t.Errorf("first trace should be the DDL statement: %+v", spans)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	conf := workload.NewConference(20, 34)
	eng, err := Open(Config{
		Platform: amt.NewDefault(34),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Tracer().SetSlowQueryLog(time.Nanosecond, &buf) // everything is slow
	mustExec(t, eng, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
	mustExec(t, eng, "SELECT id FROM t")
	out := buf.String()
	if !strings.Contains(out, "[slow query]") || !strings.Contains(out, "statement") {
		t.Errorf("slow-query log did not fire:\n%s", out)
	}
}

// TestDisableObservability is the untraced control arm: no tracer, no
// spans, yet queries — including EXPLAIN ANALYZE, whose actuals come
// from the opStats map, not the tracer — behave identically, and crowd
// work matches the traced arm's.
func TestDisableObservability(t *testing.T) {
	conf := workload.NewConference(20, 35)
	eng, err := Open(Config{
		Platform:             amt.NewDefault(35),
		Oracle:               conf.Oracle(),
		Payment:              wrm.DefaultPolicy(),
		DisableObservability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Tracer() != nil {
		t.Fatal("DisableObservability must drop the tracer")
	}
	if eng.Metrics() == nil {
		t.Fatal("metrics registry must survive DisableObservability")
	}
	mustExec(t, eng, `CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER )`)
	mustExec(t, eng, "INSERT INTO Talk (title) VALUES ("+
		sqltypes.NewString(conf.Talks[0].Title).SQLLiteral()+")")
	res := mustExec(t, eng, "EXPLAIN ANALYZE SELECT abstract FROM Talk WHERE title = "+
		sqltypes.NewString(conf.Talks[0].Title).SQLLiteral())
	if !strings.Contains(res.Plan, "(actual:") {
		t.Errorf("EXPLAIN ANALYZE must still measure actuals without a tracer:\n%s", res.Plan)
	}
	// Passing an obs.Trace is harmless too: the nil tracer just never
	// retains it.
	var tr *obs.Trace
	if _, err := eng.Execute(context.Background(), "SELECT title FROM Talk", ExecOpts{Trace: tr}); err != nil {
		t.Fatal(err)
	}

	// Tracing records what the engine does and never changes it: one paid
	// `a ~= b` SELECT plus repeats served from the cache ask the crowd the
	// same questions and return the same rows with observability on and off.
	const pairs, repeats = 8, 6
	type arm struct{ comparisons, groups, rows, spans int }
	run := func(disable bool) arm {
		eng, _ := pairCoreEngine(t, 35, pairs, Config{DisableObservability: disable})
		var a arm
		for i := 0; i <= repeats; i++ {
			res := mustExec(t, eng, "SELECT id FROM Pair WHERE a ~= b")
			a.comparisons += res.Stats.Comparisons
			a.rows += len(res.Rows)
		}
		a.groups = eng.Tasks().Stats().GroupsPosted
		if tracer := eng.Tracer(); tracer != nil {
			// The paid SELECT follows the fixture's CREATE and INSERTs.
			if tr := tracer.Lookup(fmt.Sprintf("q%06d", pairs+2)); tr != nil {
				a.spans = tr.SpanCount()
			}
		}
		return a
	}
	on, off := run(false), run(true)
	if on.comparisons == 0 || on.groups == 0 {
		t.Fatalf("the first SELECT must pay the crowd: %+v", on)
	}
	if on.comparisons != off.comparisons || on.groups != off.groups || on.rows != off.rows {
		t.Errorf("observability changed the crowd work: on %+v, off %+v", on, off)
	}
	if on.spans == 0 {
		t.Error("the traced arm retained no spans for the paid SELECT")
	}
}

// TestStmtAttrCutsAtRuneBoundary records a statement whose 200th byte of
// text falls inside "é": the span keeps the text up to the last whole
// rune and marks the cut, and never splits the rune.
func TestStmtAttrCutsAtRuneBoundary(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING)")
	const prefix = "SELECT room FROM Talk WHERE (title = '"
	title := strings.Repeat("a", 199-len(prefix)) + "é" + strings.Repeat("b", 20)
	sql := prefix + title + "')"
	tr := eng.Tracer().Start("utf8")
	if _, err := eng.Execute(context.Background(), sql, ExecOpts{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	eng.Tracer().Finish(tr)
	got := tr.JSON().FindSpans("statement")[0].Attrs["stmt"]
	if want := sql[:199] + "…"; got != want {
		t.Errorf("stmt attr = %q, want %q", got, want)
	}
	if !utf8.ValidString(got) {
		t.Errorf("stmt attr is not valid UTF-8: %q", got)
	}
}

var raceEnabled bool // set by race_test.go

// TestTracedPointSelectAllocs is the gate on what recording a trace costs
// a point SELECT: at most 4 allocations more than the same statement on
// an engine without observability. The plan cache's equivalence net is
// off: it would count a second compile per statement.
func TestTracedPointSelectAllocs(t *testing.T) {
	defer func(net func(*Engine, string, []sqltypes.Value, *planEntry) error) { checkPlanHit = net }(checkPlanHit)
	checkPlanHit = nil
	allocs := func(disable bool) float64 {
		eng, err := Open(Config{DisableObservability: disable})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		mustExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)")
		for i := 0; i < 20; i++ {
			mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%04d', 'Room %d', %d)", i, i%10, i))
		}
		return testing.AllocsPerRun(200, func() {
			mustExec(t, eng, "SELECT nb_attendees FROM Talk WHERE title = 'talk-0007'")
		})
	}
	traced, untraced := allocs(false), allocs(true)
	t.Logf("point SELECT: %v allocations traced, %v untraced", traced, untraced)
	if raceEnabled {
		t.Skip("the count is not exact under -race (race_test.go)")
	}
	if traced > untraced+4 {
		t.Errorf("a traced point SELECT allocates %v times, %v more than untraced (at most 4)", traced, traced-untraced)
	}
}

// TestStatementSpanTextOfLongInsert: the statement span of a 500-row
// INSERT keeps the text it always kept — the printed statement cut at 200
// bytes on a rune boundary and marked "…" — and recording it prints little
// more than that: it allocates at most a small constant, where printing
// the whole ≈ 20 KB statement took a buffer too big to pool on every call.
func TestStatementSpanTextOfLongInsert(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO Talk VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "('talk-%05d é', 'Room %d', %d)", i, i%7, i)
	}
	stmt, err := parser.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	full := stmt.String()
	cut := 200
	for !utf8.RuneStart(full[cut]) {
		cut--
	}
	want := full[:cut] + "…"

	tracer := obs.NewTracer(1)
	tr := tracer.Start("q")
	sp := tr.Span(nil, "statement")
	sp.SetText("stmt", stmt)
	sp.End()
	if got := tr.JSON().FindSpans("statement")[0].Attrs["stmt"]; got != want {
		t.Errorf("span text:\n got %q\nwant %q", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() { sp.SetText("stmt", stmt) })
	t.Logf("recording a 500-row INSERT's text: %v allocations", allocs)
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race (race_test.go)")
	}
	if allocs > 1 {
		t.Errorf("recording a 500-row INSERT's text allocates %v times, want at most 1", allocs)
	}
}
