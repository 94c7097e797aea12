package core

// Crowd work is priced by one price list and metered by one meter: the
// statement's actual cents and EXPLAIN ANALYZE's per-operator cents are
// the same Stats.Cents at the task manager's prices, and an operator is
// charged only for the crowd work done inside its own calls.

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/model"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// hybridPairEngine is E24's hybrid arm: Companies pairs, a sharp model
// tier at ¢1 × 1 routed first, contested HITs escalated to the human
// crowd at ¢2 × 3.
func hybridPairEngine(t *testing.T, seed int64, n int) *Engine {
	t.Helper()
	cs := workload.NewCompanies(n, seed)
	tasks := taskmgr.DefaultConfig()
	tasks.ModelPlatform = model.New(model.Config{Seed: seed, Profile: model.Sharp()})
	tasks.ModelReward = 1
	tasks.ModelAssignments = 1
	eng, err := Open(Config{
		Platform: amt.NewDefault(seed),
		Oracle:   cs.Oracle(),
		Payment:  wrm.DefaultPolicy(),
		Tasks:    tasks,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, `CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral()))
	}
	return eng
}

var (
	opCents     = regexp.MustCompile(`\(actual: \d+ rows, [^,]+, ¢([0-9.]+)`)
	actualCents = regexp.MustCompile(`(?m)^actual: ¢([0-9.]+)`)
)

// TestExplainAnalyzeChargesOwnCrowdWork runs E24's repro on the hybrid
// tier: the root operator's cents equal the statement's, the
// CrowdFilter's are no higher, and the Scan the filter drains asked the
// crowd nothing.
func TestExplainAnalyzeChargesOwnCrowdWork(t *testing.T) {
	eng := hybridPairEngine(t, 42, 24)
	res := mustExec(t, eng, "EXPLAIN ANALYZE SELECT id FROM Pair WHERE CROWDEQUAL(a, b)")
	m := actualCents.FindStringSubmatch(res.Plan)
	if m == nil {
		t.Fatalf("no actual: line:\n%s", res.Plan)
	}
	total, _ := strconv.ParseFloat(m[1], 64)
	if total <= 0 || res.Stats.Comparisons == 0 {
		t.Fatalf("the statement must pay the crowd: ¢%v, %+v", total, res.Stats)
	}
	root, filter, scan := -1.0, -1.0, -1.0
	for i, line := range strings.Split(res.Plan, "\n") {
		m := opCents.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		c, _ := strconv.ParseFloat(m[1], 64)
		switch name := strings.TrimSpace(line); {
		case i == 0:
			root = c
		case strings.HasPrefix(name, "CrowdFilter"):
			filter = c
		case strings.HasPrefix(name, "Scan(Pair)"):
			scan = c
		}
	}
	if root != total {
		t.Errorf("root operator ¢%v, statement ¢%v:\n%s", root, total, res.Plan)
	}
	if filter < 0 || filter > total {
		t.Errorf("CrowdFilter ¢%v, statement ¢%v:\n%s", filter, total, res.Plan)
	}
	if scan != 0 {
		t.Errorf("Scan(Pair) ¢%v, want 0:\n%s", scan, res.Plan)
	}
}
