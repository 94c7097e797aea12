package core_test

// The rendered trace is pinned: four statements' trace JSON (what GET
// /v1/queries/{id}/trace serves) and slow-query text, with every
// duration and timestamp masked, compared byte for byte with a golden.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/obs"
	"crowddb/internal/server"
	"crowddb/internal/sim"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/trace.golden")

// syncBuffer is a slow-query log the engine and a reader share.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

// take returns what was logged since the last take.
func (b *syncBuffer) take() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.sb.String()
	b.sb.Reset()
	return s
}

// maskedAttrs are the attributes that carry a duration or a timestamp.
var maskedAttrs = map[string]bool{"wall": true, "ts": true, "posted_at": true, "resolved_at": true, "roundtrip": true}

func maskSpan(sp *obs.SpanJSON) {
	sp.StartMicros, sp.DurationMicros = 0, 0
	for k := range sp.Attrs {
		if maskedAttrs[k] {
			sp.Attrs[k] = "D"
		}
	}
	for _, c := range sp.Children {
		maskSpan(c)
	}
}

var (
	slowHeadRE  = regexp.MustCompile(`duration=\S+`)
	slowSpanRE  = regexp.MustCompile(`(?m)^(\s+)(! \+)?(\S+) (\S+)`)
	slowAttrsRE = regexp.MustCompile(`\b(wall|ts|posted_at|resolved_at|roundtrip)="[^"]*"`)
)

func maskSlowText(s string) string {
	s = slowHeadRE.ReplaceAllString(s, "duration=D")
	s = slowSpanRE.ReplaceAllStringFunc(s, func(line string) string {
		m := slowSpanRE.FindStringSubmatch(line)
		if m[2] != "" { // an event: "! +<offset> msg"
			return m[1] + "! +D " + m[4]
		}
		return m[1] + m[3] + " D"
	})
	return slowAttrsRE.ReplaceAllString(s, `$1="D"`)
}

// renderTrace appends one trace's masked JSON and slow-query text.
func renderTrace(t *testing.T, out *strings.Builder, title string, tr *obs.Trace, slow string) {
	t.Helper()
	if tr == nil {
		t.Fatalf("%s: no trace retained", title)
	}
	tj := tr.JSON()
	tj.DurationMicros = 0
	maskSpan(tj.Root)
	js, err := json.MarshalIndent(tj, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "=== %s\n--- json\n%s\n--- slow\n%s", title, js, maskSlowText(slow))
}

func goldenExec(t *testing.T, eng *core.Engine, sql string) {
	t.Helper()
	if _, err := eng.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// lastTraceID is the id of the engine-owned trace of the newest statement.
func lastTraceID(slow string) string {
	i := strings.LastIndex(slow, "[slow query] trace=")
	if i < 0 {
		return ""
	}
	id := slow[i+len("[slow query] trace="):]
	return id[:strings.IndexByte(id, ' ')]
}

func TestTraceGolden(t *testing.T) {
	var out strings.Builder
	slow := &syncBuffer{}
	// openSlow opens an engine whose every statement is slow-query logged.
	openSlow := func(cfg core.Config) *core.Engine {
		eng, err := core.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Tracer().SetSlowQueryLog(time.Nanosecond, slow)
		return eng
	}

	// A point SELECT on an engine-owned trace.
	{
		eng := openSlow(core.Config{})
		defer eng.Close()
		goldenExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)")
		for i := 0; i < 20; i++ {
			goldenExec(t, eng, fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%04d', 'Room %d', %d)", i, i%10, i%300))
		}
		slow.take()
		goldenExec(t, eng, "SELECT nb_attendees FROM Talk WHERE title = 'talk-0007'")
		text := slow.take()
		renderTrace(t, &out, "point select", eng.Tracer().Lookup(lastTraceID(text)), text)
	}

	// scan_read's grouped top-k over two shards.
	{
		eng := openSlow(core.Config{Shards: 2})
		defer eng.Close()
		goldenExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)")
		goldenExec(t, eng, "CREATE INDEX talk_room ON Talk (room)")
		for lo := 0; lo < 4000; lo += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO Talk VALUES ")
			for i := lo; i < lo+500; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "('talk-%05d', 'room-%04d', %d)", i, i%500, (i*7919+13)%1000)
			}
			goldenExec(t, eng, sb.String())
		}
		slow.take()
		goldenExec(t, eng, "SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10")
		text := slow.take()
		renderTrace(t, &out, "grouped top-k", eng.Tracer().Lookup(lastTraceID(text)), text)
	}

	// A CROWDEQUAL SELECT on a perfect-oracle platform, and a
	// two-statement job through the server on the same engine.
	{
		const pairs, seed = 4, 23
		base := workload.NewCompanies(pairs, seed).Oracle()
		oracle := workload.NewOracle()
		oracle.RegisterCompare(func(kind crowd.TaskKind, q, l, r string) *crowd.SimTruth {
			tr := base.CompareTruth(kind, q, l, r)
			if tr != nil {
				tr.Difficulty = 0
			}
			return tr
		})
		mcfg := sim.DefaultConfig()
		mcfg.Seed = seed
		mcfg.Pool.SpammerFrac = 0
		mcfg.Pool.AccuracyMean = 1
		mcfg.Pool.AccuracySpread = 0
		mcfg.Pool.GarbageRate = 0
		mcfg.FormatNoiseRate = 0
		eng := openSlow(core.Config{Platform: amt.New(sim.NewMarket(mcfg)), Oracle: oracle, Payment: wrm.DefaultPolicy()})
		defer eng.Close()
		goldenExec(t, eng, "CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)")
		for i, c := range workload.NewCompanies(pairs, seed).List {
			goldenExec(t, eng, fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)", i,
				sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(c.Variants[len(c.Variants)-1]).SQLLiteral()))
		}
		slow.take()
		goldenExec(t, eng, "SELECT id FROM Pair WHERE a ~= b")
		text := slow.take()
		renderTrace(t, &out, "crowdequal select", eng.Tracer().Lookup(lastTraceID(text)), text)

		srv := server.New(eng, server.Config{})
		defer srv.Shutdown(context.Background())
		job, serr := srv.StartJob("", "INSERT INTO Pair VALUES (99, 'Acme', 'ACME Inc'); SELECT a FROM Pair WHERE id = 99")
		if serr != nil {
			t.Fatal(serr)
		}
		if st, err := job.Wait(context.Background()); err != nil || st != server.JobDone {
			t.Fatalf("job: %v %v", st, err)
		}
		renderTrace(t, &out, "two-statement job", eng.Tracer().Lookup(job.ID()), slow.take())
	}

	const golden = "testdata/trace.golden"
	if *updateTraceGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("rendered traces differ from %s:\n%s", golden, out.String())
	}
}
