package bench

import (
	"fmt"

	"crowddb/internal/core"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/optimizer"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// E17 measures the crowd-aware cost-based optimizer against the flat
// heuristic it replaced (PR 2's optimizer, reproduced via
// Options.DisableCostBased). The workload is an entity-resolution query
// whose condition mixes a paid crowd predicate with a cheap machine
// predicate the rule-based optimizer cannot push down (an IN-subquery):
//
//	SELECT id FROM Pair WHERE a ~= b AND id IN (SELECT id FROM Keep)
//
// The flat heuristic pays one CROWDEQUAL comparison for every Pair row;
// the cost model orders the cheap phase first, so only rows surviving the
// subquery reach the crowd. EXPLAIN's predicted cents are reported next
// to the measured spend to show forecast accuracy.

// e17Pairs / e17Keep size the workload: total pairs vs pairs the cheap
// predicate keeps.
const (
	e17Pairs = 24
	e17Keep  = 8
)

// e17Engine builds a fresh engine with the Pair/Keep tables over
// simulated AMT.
func e17Engine(seed int64, opts optimizer.Options) (*core.Engine, error) {
	cs := workload.NewCompanies(e17Pairs, seed)
	eng, err := core.Open(core.Config{
		Platform:  amt.NewDefault(seed),
		Oracle:    cs.Oracle(),
		Payment:   wrm.DefaultPolicy(),
		Tasks:     taskmgr.DefaultConfig(),
		Optimizer: opts,
	})
	if err != nil {
		return nil, err
	}
	ddl := `CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING);
		CREATE TABLE Keep (id INTEGER PRIMARY KEY)`
	if _, err := eng.Exec(ddl); err != nil {
		return nil, err
	}
	if err := insertPairs(eng, "Pair", cs.List); err != nil {
		return nil, err
	}
	for i := 0; i < e17Keep; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Keep VALUES (%d)", i*2)); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// E17CostBasedOptimizer compares the flat-heuristic optimizer against the
// cost-based one on the mixed cheap/crowd predicate workload.
func E17CostBasedOptimizer(seed int64) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "cost-based optimizer: paid comparisons vs the flat heuristic",
		Exhibit: "crowd-aware cost model, money × latency (extension)",
		Headers: []string{"optimizer", "paid cmp", "rows out", "spend", "crowd time", "predicted", "actual"},
		Metrics: map[string]float64{},
	}
	query := `SELECT id FROM Pair WHERE a ~= b AND id IN (SELECT id FROM Keep)`
	type cfg struct {
		name   string
		prefix string
		opts   optimizer.Options
	}
	for _, c := range []cfg{
		{"flat heuristic (pre-cost-model)", "heuristic_", optimizer.Options{DisableCostBased: true}},
		{"cost-based (money x latency)", "costbased_", optimizer.Options{}},
	} {
		eng, err := e17Engine(seed, c.opts)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		res, err := eng.Exec(query)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			eng.Close()
			continue
		}
		ts := eng.Tasks().Stats()
		t.AddRow(c.name,
			fmt.Sprintf("%d", res.Stats.Comparisons),
			fmt.Sprintf("%d", len(res.Rows)),
			ts.ApprovedSpend.String(),
			fmtDur(ts.CrowdTime),
			res.Predicted.String(),
			fmt.Sprintf("¢%.1f", res.ActualCents),
		)
		t.Metrics[c.prefix+"paid_comparisons"] = float64(res.Stats.Comparisons)
		t.Metrics[c.prefix+"spend_cents"] = float64(ts.ApprovedSpend)
		t.Metrics[c.prefix+"crowd_minutes"] = ts.CrowdTime.Minutes()
		t.Metrics[c.prefix+"predicted_cents"] = res.Predicted.Cents
		t.Metrics[c.prefix+"actual_cents"] = res.ActualCents
		eng.Close()
	}
	t.Notes = append(t.Notes,
		"same query, same seed: the cost model orders the cheap IN-subquery phase before the paid CROWDEQUAL phase",
		"the flat heuristic pays one comparison per Pair row; cost-based pays only for rows the machine predicate keeps")
	return t
}
