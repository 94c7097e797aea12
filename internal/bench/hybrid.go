package bench

import (
	"fmt"
	"sort"
	"strings"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/model"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// E24 measures the model-first escalation router: a simulated model
// platform answers every HIT for ¢1 a call, and only HITs whose model
// answers are unconfident or contested escalate to the human crowd at
// the full reward × replication rate. Three arms run the same
// entity-resolution query over the same pairs:
//
//	human-only:  every comparison goes to simulated AMT (3 × ¢2)
//	model-only:  every comparison answered by the sharp model profile
//	hybrid:      model-first, contested HITs escalated to AMT
//
// The exhibit is the cost curve — hybrid should approach model-only
// spend while matching (or beating) human-only answer quality — plus
// the hybrid arm's answer divergence from ground truth (every pair in
// the Companies workload is a true match, so the truth set is all
// ids; divergence is 0 at the pinned seed).

// e24Pairs sizes the workload.
const e24Pairs = 24

// e24Engine builds a fresh engine over the Companies pairs. tier
// selects the arm: "human" (AMT only), "model" (model platform only),
// or "hybrid" (AMT with a model tier routed first).
func e24Engine(seed int64, tier string) (*core.Engine, error) {
	cs := workload.NewCompanies(e24Pairs, seed)
	tasks := taskmgr.DefaultConfig()
	var platform crowd.Platform
	switch tier {
	case "human":
		platform = amt.NewDefault(seed)
	case "model":
		platform = model.New(model.Config{Seed: seed, Profile: model.Sharp()})
		tasks.Reward = 1
		tasks.Assignments = 1
	case "hybrid":
		platform = amt.NewDefault(seed)
		tasks.ModelPlatform = model.New(model.Config{Seed: seed, Profile: model.Sharp()})
		tasks.ModelReward = 1
		tasks.ModelAssignments = 1
	default:
		return nil, fmt.Errorf("e24: unknown tier %q", tier)
	}
	eng, err := core.Open(core.Config{
		Platform: platform,
		Oracle:   cs.Oracle(),
		Payment:  wrm.DefaultPolicy(),
		Tasks:    tasks,
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Exec(`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		return nil, err
	}
	if err := insertPairs(eng, "Pair", cs.List); err != nil {
		return nil, err
	}
	return eng, nil
}

// e24IDs renders a result's id column as a sorted signature for the
// divergence check.
func e24IDs(res *core.Result) string {
	ids := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		ids = append(ids, row[0].String())
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// e24Divergence counts ids present in exactly one of the two
// signatures (symmetric difference).
func e24Divergence(a, b string) int {
	count := func(s string) map[string]int {
		m := map[string]int{}
		if s == "" {
			return m
		}
		for _, id := range strings.Split(s, ",") {
			m[id]++
		}
		return m
	}
	am, bm := count(a), count(b)
	n := 0
	for id, c := range am {
		if bm[id] != c {
			n++
		}
	}
	for id, c := range bm {
		if am[id] != c {
			n++
		}
	}
	return n
}

// E24HybridAnswering compares human-only, model-only, and hybrid
// (model-first with human escalation) answering on the same
// entity-resolution workload.
func E24HybridAnswering(seed int64) *Table {
	t := &Table{
		ID:      "E24",
		Title:   "hybrid answering: model-first with human escalation",
		Exhibit: "model workers as a crowd tier, escalation router (extension)",
		Headers: []string{"arm", "rows out", "spend", "escalated HITs", "model answers", "human answers", "crowd time"},
		Metrics: map[string]float64{},
	}
	query := `SELECT id FROM Pair WHERE a ~= b`
	// Every pair is a canonical name vs a misspelling of the same
	// company, so ground truth keeps all ids.
	truthIDs := make([]string, 0, e24Pairs)
	for i := 0; i < e24Pairs; i++ {
		truthIDs = append(truthIDs, fmt.Sprintf("%d", i))
	}
	sort.Strings(truthIDs)
	truth := strings.Join(truthIDs, ",")
	sigs := map[string]string{}
	spends := map[string]float64{}
	for _, arm := range []struct {
		tier   string
		label  string
		prefix string
	}{
		{"human", "human-only (3 x ¢2 per comparison)", "humanonly_"},
		{"model", "model-only (sharp profile, ¢1 per call)", "modelonly_"},
		{"hybrid", "hybrid (model-first, escalate contested)", "hybrid_"},
	} {
		eng, err := e24Engine(seed, arm.tier)
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
		modelAnswers := ts.ByPlatform["model"].Assignments
		humanAnswers := ts.ByPlatform["amt"].Assignments
		t.AddRow(arm.label,
			fmt.Sprintf("%d", len(res.Rows)),
			ts.ApprovedSpend.String(),
			fmt.Sprintf("%d", ts.EscalatedHITs),
			fmt.Sprintf("%d", modelAnswers),
			fmt.Sprintf("%d", humanAnswers),
			fmtDur(ts.CrowdTime),
		)
		sig := e24IDs(res)
		t.Metrics[arm.prefix+"spend_cents"] = float64(ts.ApprovedSpend)
		t.Metrics[arm.prefix+"rows_out"] = float64(len(res.Rows))
		t.Metrics[arm.prefix+"correct_pct"] = 100 * float64(e24Pairs-e24Divergence(sig, truth)) / float64(e24Pairs)
		if arm.tier == "hybrid" {
			t.Metrics["hybrid_escalated_hits"] = float64(ts.EscalatedHITs)
			t.Metrics["hybrid_model_answers"] = float64(modelAnswers)
			t.Metrics["hybrid_human_answers"] = float64(humanAnswers)
		}
		sigs[arm.tier] = sig
		spends[arm.tier] = float64(ts.ApprovedSpend)
		eng.Close()
	}
	if human, ok := spends["human"]; ok && human > 0 {
		t.Metrics["hybrid_spend_pct_of_human_cents"] = 100 * spends["hybrid"] / human
	}
	if _, ok := sigs["hybrid"]; ok {
		div := e24Divergence(sigs["hybrid"], truth)
		t.Metrics["divergence_err_pct"] = 100 * float64(div) / float64(e24Pairs)
	}
	t.Notes = append(t.Notes,
		"same pairs, same seed: hybrid posts every HIT to the model tier first and escalates only unconfident or contested HITs to AMT",
		"divergence counts hybrid result ids that differ from ground truth (all pairs match), as a % of pairs")
	return t
}
