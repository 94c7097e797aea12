package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

var updateCallSeq = flag.Bool("update-callseq", false, "rewrite testdata/callseq_seed42.golden from this run")

// recordingPlatform logs every posted HIT group — kind, HIT ids and what
// each form shows the worker — in posting order.
type recordingPlatform struct {
	crowd.Platform
	mu  sync.Mutex
	log strings.Builder
}

func (p *recordingPlatform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	p.mu.Lock()
	fmt.Fprintf(&p.log, "post %s hits=%d q=%q\n", g.Kind, len(g.HITs), g.Description)
	for _, h := range g.HITs {
		var shown []string
		for _, f := range h.Fields {
			switch f.Kind {
			case crowd.FieldDisplay:
				shown = append(shown, f.Name+"="+f.Value)
			case crowd.FieldChoice:
				shown = append(shown, f.Name+"?"+strings.Join(f.Options, "|"))
			default:
				shown = append(shown, f.Name+"?")
			}
		}
		fmt.Fprintf(&p.log, "  %s %s\n", h.ID, strings.Join(shown, "; "))
	}
	p.mu.Unlock()
	return p.Platform.Post(g)
}

// TestCrowdCallSequenceSeed42 pins the crowd-facing call order of the
// crowd operators: the statements of E5 (CrowdProbe), E6 (CrowdJoin), E7
// (CROWDEQUAL) and E8 (CROWDORDER) at seed 42 must post exactly the HIT
// groups, in exactly the order, recorded in the golden file. The golden
// was recorded before the dispatch window and the comparison broker
// replaced the per-operator copies of that logic.
func TestCrowdCallSequenceSeed42(t *testing.T) {
	const seed = 42
	rec := func() *recordingPlatform { return &recordingPlatform{Platform: amt.NewDefault(seed)} }
	var out strings.Builder
	section := func(name string, p *recordingPlatform) {
		fmt.Fprintf(&out, "== %s\n%s", name, p.log.String())
	}
	mustExec := func(eng *core.Engine, sql string) {
		t.Helper()
		if _, err := eng.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	// E5: CrowdProbe.
	{
		p := rec()
		uni := workload.NewUniversity(10, seed)
		eng, err := core.Open(core.Config{Platform: p, Oracle: uni.Oracle(), Payment: wrm.DefaultPolicy(), Tasks: fastTasks()})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(eng, `CREATE TABLE Professor (name STRING PRIMARY KEY, email CROWD STRING, department CROWD STRING)`)
		for _, pr := range uni.Professors {
			mustExec(eng, "INSERT INTO Professor (name) VALUES ("+sqltypes.NewString(pr.Name).SQLLiteral()+")")
		}
		mustExec(eng, "SELECT name, email, department FROM Professor")
		eng.Close()
		section("E5 CrowdProbe", p)
	}

	// E6: CrowdJoin.
	{
		p := rec()
		eng, _, err := conferenceEngine(seed, 15, core.Config{Platform: p, Tasks: fastTasks()})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(eng, `SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`)
		eng.Close()
		section("E6 CrowdJoin", p)
	}

	// E7: CROWDEQUAL.
	{
		p := rec()
		comp := workload.NewCompanies(10, seed)
		eng, err := core.Open(core.Config{Platform: p, Oracle: comp.Oracle(), Payment: wrm.DefaultPolicy(), Tasks: fastTasks()})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(eng, `CREATE TABLE company (name STRING PRIMARY KEY, hq STRING)`)
		for _, c := range comp.List {
			mustExec(eng, "INSERT INTO company VALUES ("+sqltypes.NewString(c.Canonical).SQLLiteral()+", "+sqltypes.NewString(c.HQ).SQLLiteral()+")")
		}
		for _, c := range comp.List {
			mustExec(eng, "SELECT name FROM company WHERE name ~= "+sqltypes.NewString(c.Variants[0]).SQLLiteral())
		}
		eng.Close()
		section("E7 CROWDEQUAL", p)
	}

	// E8: CROWDORDER.
	{
		p := rec()
		eng, _, err := conferenceEngine(seed, 12, core.Config{Platform: p, Tasks: fastTasks()})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(eng, `SELECT title FROM Talk ORDER BY CROWDORDER(title, "Which talk did you like better")`)
		eng.Close()
		section("E8 CROWDORDER", p)
	}

	const path = "testdata/callseq_seed42.golden"
	if *updateCallSeq {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("crowd call sequence drifted at seed 42:\n%s", firstDiff(string(golden), out.String()))
	}
}
