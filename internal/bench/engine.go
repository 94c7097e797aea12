package bench

import (
	"fmt"
	"strings"

	"crowddb/internal/core"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/mobile"
	"crowddb/internal/optimizer"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// E5CrowdProbe reproduces the CrowdProbe field study (SIGMOD Fig. 9: the
// professor-directory experiment): crowdsource missing emails and
// departments and measure completeness, accuracy, tasks, virtual time and
// cost.
func E5CrowdProbe(seed int64) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "CrowdProbe: filling a professor directory",
		Exhibit: "SIGMOD'11 Fig. 9 (CrowdProbe case study)",
		Headers: []string{"professors", "filled", "accuracy", "probe tasks", "crowd time", "spend"},
	}
	for _, n := range []int{10, 25, 50} {
		uni := workload.NewUniversity(n, seed)
		eng, err := core.Open(core.Config{
			Platform: amt.NewDefault(seed),
			Oracle:   uni.Oracle(),
			Payment:  wrm.DefaultPolicy(),
			Tasks:    fastTasks(),
		})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		eng.Exec(`CREATE TABLE Professor (
			name STRING PRIMARY KEY,
			email CROWD STRING,
			department CROWD STRING )`)
		for _, p := range uni.Professors {
			eng.Exec("INSERT INTO Professor (name) VALUES (" + sqltypes.NewString(p.Name).SQLLiteral() + ")")
		}
		res, err := eng.Exec("SELECT name, email, department FROM Professor")
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		filled, correct := 0, 0
		for _, row := range res.Rows {
			if !row[1].IsUnknown() && !row[2].IsUnknown() {
				filled++
			}
			for _, p := range uni.Professors {
				if strings.EqualFold(p.Name, row[0].Str()) {
					if quality.Normalize(row[1].Str()) == quality.Normalize(p.Email) &&
						quality.Normalize(row[2].Str()) == quality.Normalize(p.Department) {
						correct++
					}
				}
			}
		}
		ts := eng.Tasks().Stats()
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmtPct(float64(filled)/float64(n)),
			fmtPct(float64(correct)/float64(n)),
			fmt.Sprintf("%d", res.Stats.ProbeRequests),
			fmtDur(ts.CrowdTime),
			ts.ApprovedSpend.String(),
		)
		eng.Close()
	}
	t.Notes = append(t.Notes, "one probe task per tuple; completeness near 100% with 3-way replication")
	return t
}

// E6CrowdJoin reproduces the CrowdJoin strategy comparison (SIGMOD Fig.
// 10): the batched index-nested-loop CrowdJoin versus naively issuing one
// query (and so one HIT group) per outer tuple.
func E6CrowdJoin(seed int64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "CrowdJoin: batched index-NL join vs per-tuple probing",
		Exhibit: "SIGMOD'11 Fig. 10 (CrowdJoin)",
		Headers: []string{"strategy", "groups posted", "HITs posted", "rows out", "crowd time"},
		Metrics: map[string]float64{},
	}
	const nTalks = 15

	// Strategy A: one join query; CrowdJoin batches all keys in one group.
	engA, _, err := conferenceEngine(seed, nTalks, core.Config{Tasks: fastTasks()})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	resA, err := engA.Exec(`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	tsA := engA.Tasks().Stats()
	t.AddRow("CrowdJoin (batched)", fmt.Sprintf("%d", tsA.GroupsPosted), fmt.Sprintf("%d", tsA.HITsPosted),
		fmt.Sprintf("%d", len(resA.Rows)), fmtDur(tsA.CrowdTime))
	t.Metrics["batched_groups"] = float64(tsA.GroupsPosted)
	t.Metrics["batched_hits_posted"] = float64(tsA.HITsPosted)
	t.Metrics["batched_crowd_minutes"] = tsA.CrowdTime.Minutes()
	t.Metrics["batched_rows_out"] = float64(len(resA.Rows))
	engA.Close()

	// Strategy B: one bounded query per talk — a group per outer tuple.
	engB, confB, err := conferenceEngine(seed, nTalks, core.Config{Tasks: fastTasks()})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	rowsB := 0
	for _, talk := range confB.Talks {
		res, err := engB.Exec("SELECT name FROM NotableAttendee WHERE title = " +
			sqltypes.NewString(talk.Title).SQLLiteral())
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			break
		}
		rowsB += len(res.Rows)
	}
	tsB := engB.Tasks().Stats()
	t.AddRow("per-tuple groups", fmt.Sprintf("%d", tsB.GroupsPosted), fmt.Sprintf("%d", tsB.HITsPosted),
		fmt.Sprintf("%d", rowsB), fmtDur(tsB.CrowdTime))
	engB.Close()
	t.Notes = append(t.Notes, "batching posts one async window of concurrent groups for all join keys; per-tuple posting multiplies groups and serializes crowd waits")
	return t
}

// E7EntityResolution reproduces the CROWDEQUAL entity-resolution study:
// matching company name variants against canonical names, as replication
// grows.
func E7EntityResolution(seed int64) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "CROWDEQUAL entity resolution: company name variants",
		Exhibit: "SIGMOD'11 entity-resolution experiment",
		Headers: []string{"votes/pair", "precision", "recall", "f1", "comparisons"},
	}
	const nCompanies = 10
	for _, votes := range []int{1, 3, 5} {
		comp := workload.NewCompanies(nCompanies, seed)
		tcfg := fastTasks()
		tcfg.Assignments = votes
		eng, err := core.Open(core.Config{
			Platform: amt.NewDefault(seed),
			Oracle:   comp.Oracle(),
			Payment:  wrm.DefaultPolicy(),
			Tasks:    tcfg,
		})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		eng.Exec(`CREATE TABLE company (name STRING PRIMARY KEY, hq STRING)`)
		for _, c := range comp.List {
			eng.Exec("INSERT INTO company VALUES (" + sqltypes.NewString(c.Canonical).SQLLiteral() +
				", " + sqltypes.NewString(c.HQ).SQLLiteral() + ")")
		}
		predicted := map[string]bool{}
		truth := map[string]bool{}
		comparisons := 0
		for _, c := range comp.List {
			v := c.Variants[0] // the abbreviation: hardest variant
			truth[v+"->"+c.Canonical] = true
			res, err := eng.Exec("SELECT name FROM company WHERE name ~= " + sqltypes.NewString(v).SQLLiteral())
			if err != nil {
				continue
			}
			comparisons += res.Stats.Comparisons
			for _, row := range res.Rows {
				predicted[v+"->"+row[0].Str()] = true
			}
		}
		p, r, f1 := precisionRecall(predicted, truth)
		t.AddRow(fmt.Sprintf("%d", votes), fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", r),
			fmt.Sprintf("%.2f", f1), fmt.Sprintf("%d", comparisons))
		eng.Close()
	}
	t.Notes = append(t.Notes, "replication buys precision/recall; each variant costs one comparison per stored candidate")
	return t
}

// E8CrowdOrder reproduces the subjective-ordering study (demo Example 3):
// ranking talks with CROWDORDER and scoring the result against the hidden
// preference ranking with Kendall's tau.
func E8CrowdOrder(seed int64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "CROWDORDER ranking quality vs votes per comparison",
		Exhibit: "demo Example 3 / SIGMOD'11 ordering experiment",
		Headers: []string{"votes/cmp", "kendall tau", "comparisons", "crowd time"},
	}
	const nTalks = 12
	for _, votes := range []int{1, 3, 5} {
		tcfg := fastTasks()
		tcfg.Assignments = votes
		eng, conf, err := conferenceEngine(seed, nTalks, core.Config{Tasks: tcfg})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		res, err := eng.Exec(`SELECT title FROM Talk ORDER BY CROWDORDER(title, "Which talk did you like better")`)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			eng.Close()
			continue
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, row[0].Str())
		}
		tau, err := kendallTau(got, conf.PreferenceRanking())
		tauStr := "-"
		if err == nil {
			tauStr = fmt.Sprintf("%.2f", tau)
		}
		ts := eng.Tasks().Stats()
		t.AddRow(fmt.Sprintf("%d", votes), tauStr, fmt.Sprintf("%d", res.Stats.Comparisons), fmtDur(ts.CrowdTime))
		eng.Close()
	}
	t.Notes = append(t.Notes, "tau rises steeply from 1 to 3 votes, then saturates; quicksort costs O(n log n) comparisons")
	return t
}

// E10OptimizerRules reproduces the optimizer study the demo's §3.2.2
// sketches: crowd tasks issued with each rewrite rule disabled in turn.
func E10OptimizerRules(seed int64) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "optimizer ablation: crowd tasks per rule set",
		Exhibit: "demo §3.2.2 (rule-based optimizations)",
		Headers: []string{"configuration", "probe tasks", "tuple tasks", "rows out"},
		Metrics: map[string]float64{},
	}
	const nTalks = 24
	// The probe query: selective non-crowd predicate + LIMIT.
	probeQ := `SELECT abstract FROM Talk WHERE room = 'Room 1' LIMIT 3`
	// The join query: crowd table written first, so reorder matters.
	joinQ := `SELECT n.name FROM NotableAttendee n JOIN Talk t ON n.title = t.title WHERE t.room = 'Room 2'`

	type cfg struct {
		name string
		opts optimizer.Options
		sql  string
	}
	configs := []cfg{
		{"probe: all rules", optimizer.Options{}, probeQ},
		{"probe: no predicate push-down", optimizer.Options{DisablePushdown: true}, probeQ},
		{"probe: no stop-after push-down", optimizer.Options{DisableStopAfter: true}, probeQ},
		{"join: all rules", optimizer.Options{}, joinQ},
		{"join: no join re-ordering", optimizer.Options{DisableJoinReorder: true, AllowUnbounded: true}, joinQ},
	}
	for _, c := range configs {
		eng, _, err := conferenceEngine(seed, nTalks, core.Config{Tasks: fastTasks(), Optimizer: c.opts})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		res, err := eng.Exec(c.sql)
		if err != nil {
			t.AddRow(c.name, "-", "-", "compile error: "+err.Error())
			eng.Close()
			continue
		}
		t.AddRow(c.name,
			fmt.Sprintf("%d", res.Stats.ProbeRequests),
			fmt.Sprintf("%d", res.Stats.NewTupleRequests),
			fmt.Sprintf("%d", len(res.Rows)))
		if c.name == "probe: all rules" {
			t.Metrics["full_rules_probe_tasks"] = float64(res.Stats.ProbeRequests)
		}
		if c.name == "join: all rules" {
			t.Metrics["join_full_rules_tuple_tasks"] = float64(res.Stats.NewTupleRequests)
			t.Metrics["join_full_rules_rows_out"] = float64(len(res.Rows))
		}
		eng.Close()
	}
	t.Notes = append(t.Notes,
		"push-down probes only matching tuples; stop-after bounds them further; without re-ordering the crowd table cannot be probed by key (stored-only answers)")
	return t
}

// E11Boundedness reproduces the compile-time boundedness analysis of the
// demo's §3.2.2: which queries the optimizer accepts, bounds, or rejects.
func E11Boundedness(seed int64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "boundedness analysis verdicts",
		Exhibit: "demo §3.2.2 (bounded plans, compile-time warning)",
		Headers: []string{"query", "verdict"},
	}
	eng, _, err := conferenceEngine(seed, 5, core.Config{Tasks: fastTasks()})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	defer eng.Close()
	queries := []string{
		`SELECT name FROM NotableAttendee`,
		`SELECT name FROM NotableAttendee LIMIT 5`,
		`SELECT name FROM NotableAttendee WHERE title = 'X'`,
		`SELECT n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`,
		`SELECT abstract FROM Talk`,
		`SELECT t1.title FROM Talk t1, NotableAttendee n`,
	}
	for _, q := range queries {
		_, err := eng.Exec("EXPLAIN " + q)
		verdict := "bounded"
		if err != nil {
			verdict = "REJECTED (unbounded crowd access)"
		}
		t.AddRow(q, verdict)
	}
	t.Notes = append(t.Notes, "unbounded CROWD scans are rejected at compile time; keys, limits and join bindings bound them")
	return t
}

// E12MobileVsAMT reproduces the demo's platform comparison (§4): the same
// conference workload on the generic AMT crowd versus the geo-fenced VLDB
// mobile crowd.
func E12MobileVsAMT(seed int64) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "same workload on AMT vs the VLDB mobile crowd",
		Exhibit: "demo §4 (mobile platform demonstration)",
		Headers: []string{"platform", "filled", "accuracy", "crowd time", "spend"},
	}
	const nTalks = 12
	for _, platform := range []string{"amt", "mobile"} {
		cfg := core.Config{Tasks: fastTasks()}
		if platform == "mobile" {
			cfg.Platform = mobile.New(mobile.DefaultConfig(seed))
		} else {
			cfg.Platform = amt.NewDefault(seed)
		}
		eng, conf, err := conferenceEngine(seed, nTalks, cfg)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		res, err := eng.Exec(`SELECT title, nb_attendees FROM Talk`)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			eng.Close()
			continue
		}
		filled, correct := 0, 0
		for _, row := range res.Rows {
			if row[1].IsUnknown() {
				continue
			}
			filled++
			if info, ok := conf.Talk(row[0].Str()); ok && int(row[1].Int()) == info.NbAttendees {
				correct++
			}
		}
		ts := eng.Tasks().Stats()
		t.AddRow(platform, fmtPct(float64(filled)/float64(nTalks)),
			fmtPct(float64(correct)/float64(nTalks)), fmtDur(ts.CrowdTime), ts.ApprovedSpend.String())
		eng.Close()
	}
	t.Notes = append(t.Notes, "the co-located expert crowd answers faster and more accurately; attendance counts are local knowledge")
	return t
}

var _ = taskmgr.Config{} // keep import for fastTasks signature readability
