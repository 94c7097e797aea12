package bench

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowddb/internal/taskmgr"
)

// parse helpers for table cells.

func cellDur(t *testing.T, s string) time.Duration {
	t.Helper()
	s = strings.TrimSpace(s)
	switch {
	case strings.HasSuffix(s, "m"):
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "m"), 64)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return time.Duration(f * float64(time.Minute))
	case strings.HasSuffix(s, "h"):
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "h"), 64)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return time.Duration(f * float64(time.Hour))
	}
	t.Fatalf("bad duration %q", s)
	return 0
}

func cellPct(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q", s)
	}
	return f
}

func cellInt(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("bad int %q", s)
	}
	return n
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("bad float %q", s)
	}
	return f
}

// E1: the 1¢ group must finish strictly slower than the 4¢ group.
func TestE1Shape(t *testing.T) {
	tab := E1CompletionVsReward(42)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	cheap := cellDur(t, tab.Rows[0][4])
	rich := cellDur(t, tab.Rows[3][4])
	if rich >= cheap {
		t.Errorf("paper shape violated: 4c (%v) must beat 1c (%v)", rich, cheap)
	}
}

// E2: per-assignment throughput for 50-HIT groups beats single HITs.
func TestE2Shape(t *testing.T) {
	tab := E2TurnaroundVsBatch(42)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	small := cellFloat(t, tab.Rows[0][3])
	big := cellFloat(t, tab.Rows[4][3])
	if big <= small {
		t.Errorf("throughput must grow with batch size: %f vs %f", small, big)
	}
}

// E3: top-10 workers must do the majority of all assignments.
func TestE3Shape(t *testing.T) {
	tab := E3WorkerAffinity(42)
	if len(tab.Rows) != 1 {
		t.Fatal("one row expected")
	}
	if share := cellPct(t, tab.Rows[0][4]); share < 50 {
		t.Errorf("affinity skew too weak: top-10 = %.0f%%", share)
	}
	if gini := cellFloat(t, tab.Rows[0][5]); gini < 0.3 {
		t.Errorf("gini too low: %f", gini)
	}
}

// E4: voted error at replication 7 must be well under replication 1, and
// raw error must stay roughly flat.
func TestE4Shape(t *testing.T) {
	tab := E4MajorityVote(42)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	v1 := cellPct(t, tab.Rows[0][2])
	v7 := cellPct(t, tab.Rows[3][2])
	if v7 >= v1 {
		t.Errorf("majority vote must reduce error: r1=%f r7=%f", v1, v7)
	}
	if v7 > 5 {
		t.Errorf("7-way vote error too high: %f%%", v7)
	}
}

// E5: completeness should be high and one probe task per professor.
func TestE5Shape(t *testing.T) {
	tab := E5CrowdProbe(42)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	for i, n := range []int{10, 25, 50} {
		if filled := cellPct(t, tab.Rows[i][1]); filled < 80 {
			t.Errorf("n=%d completeness too low: %.0f%%", n, filled)
		}
		// One task per tuple plus quality-control retries for failed quorums.
		if tasks := cellInt(t, tab.Rows[i][3]); tasks < n || tasks > 2*n {
			t.Errorf("n=%d: %d probe tasks (expected n..2n)", n, tasks)
		}
	}
}

// E6: batching must post far fewer groups and finish much faster.
func TestE6Shape(t *testing.T) {
	tab := E6CrowdJoin(42)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	batchedGroups := cellInt(t, tab.Rows[0][1])
	naiveGroups := cellInt(t, tab.Rows[1][1])
	// The batched join posts at most one async window of concurrent groups;
	// the naive strategy posts (and serializes) one group per outer tuple.
	window := taskmgr.DefaultConfig().MaxInFlight
	if batchedGroups < 1 || batchedGroups > window || naiveGroups < 10 || batchedGroups >= naiveGroups {
		t.Errorf("groups: batched=%d naive=%d (window %d)", batchedGroups, naiveGroups, window)
	}
	if cellDur(t, tab.Rows[0][4]) >= cellDur(t, tab.Rows[1][4]) {
		t.Errorf("batched join must be faster: %v", tab.Rows)
	}
}

// E7: precision grows with replication; recall stays high.
func TestE7Shape(t *testing.T) {
	tab := E7EntityResolution(42)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	p1 := cellFloat(t, tab.Rows[0][1])
	p5 := cellFloat(t, tab.Rows[2][1])
	if p5 < p1 {
		t.Errorf("precision must not degrade with votes: %f -> %f", p1, p5)
	}
	if r5 := cellFloat(t, tab.Rows[2][2]); r5 < 0.6 {
		t.Errorf("recall at 5 votes too low: %f", r5)
	}
}

// E8: Kendall tau must improve from 1 to 5 votes and be clearly positive.
func TestE8Shape(t *testing.T) {
	tab := E8CrowdOrder(42)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	t1 := cellFloat(t, tab.Rows[0][1])
	t5 := cellFloat(t, tab.Rows[2][1])
	if t5 < t1 {
		t.Errorf("tau must not degrade with votes: %f -> %f", t1, t5)
	}
	if t5 < 0.5 {
		t.Errorf("5-vote tau too low: %f", t5)
	}
}

// E9: both forms must render with the expected inputs.
func TestE9Shape(t *testing.T) {
	forms, err := GeneratedForms()
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 2 {
		t.Fatalf("forms: %d", len(forms))
	}
	fig2 := forms[0]
	if fig2.Inputs != 1 || !strings.Contains(fig2.HTML, "CrowdDB") {
		t.Errorf("fig2 probe form wrong: %+v", fig2)
	}
	fig3 := forms[1]
	if fig3.Inputs != 2 || !strings.Contains(fig3.HTML, "Which talk did you like better") {
		t.Errorf("fig3 order form wrong: inputs=%d", fig3.Inputs)
	}
}

// E10: each disabled rule must cost strictly more crowd work than the full
// rule set, and the un-reordered join must find fewer results.
func TestE10Shape(t *testing.T) {
	tab := E10OptimizerRules(42)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	full := cellInt(t, tab.Rows[0][1])
	noPush := cellInt(t, tab.Rows[1][1])
	noStop := cellInt(t, tab.Rows[2][1])
	if noPush <= full {
		t.Errorf("no-pushdown must probe more: %d vs %d", noPush, full)
	}
	if noStop <= full {
		t.Errorf("no-stopafter must probe more: %d vs %d", noStop, full)
	}
	joinFull := cellInt(t, tab.Rows[3][3])
	joinNoReorder := cellInt(t, tab.Rows[4][3])
	if joinNoReorder >= joinFull {
		t.Errorf("without reorder the crowd inner cannot be solicited: %d vs %d rows", joinNoReorder, joinFull)
	}
}

// E11: the two unbounded queries are rejected, the bounded four accepted.
func TestE11Shape(t *testing.T) {
	tab := E11Boundedness(42)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	wantRejected := map[int]bool{0: true, 5: true}
	for i, row := range tab.Rows {
		rejected := strings.Contains(row[1], "REJECTED")
		if rejected != wantRejected[i] {
			t.Errorf("query %d (%s): verdict %q", i, row[0], row[1])
		}
	}
}

// E12: the mobile crowd must answer faster than generic AMT.
func TestE12Shape(t *testing.T) {
	tab := E12MobileVsAMT(42)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	amtTime := cellDur(t, tab.Rows[0][3])
	mobTime := cellDur(t, tab.Rows[1][3])
	if mobTime >= amtTime {
		t.Errorf("mobile must be faster: amt=%v mobile=%v", amtTime, mobTime)
	}
}

// TestEveryExperimentHasABaseline: the registry and bench/baselines name
// the same experiments, so a new experiment cannot ship without its
// baseline and a deleted one cannot leave a stale file behind.
func TestEveryExperimentHasABaseline(t *testing.T) {
	paths, err := filepath.Glob("../../bench/baselines/BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	baselines := map[string]bool{}
	for _, p := range paths {
		baselines[strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")] = true
	}
	for _, e := range All() {
		if !baselines[e.ID] {
			t.Errorf("%s has no bench/baselines/BENCH_%s.json", e.ID, e.ID)
		}
		delete(baselines, e.ID)
	}
	for id := range baselines {
		t.Errorf("bench/baselines/BENCH_%s.json names no registered experiment", id)
	}
}

func TestRunAllPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var buf bytes.Buffer
	RunAll(&buf, 7)
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "== "+e.ID+":") {
			t.Errorf("output missing %s", e.ID)
		}
	}
}
