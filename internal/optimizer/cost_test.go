package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// scoreOf prices an optimized plan with a fresh cost model at the given
// inputs (white-box: the DP's ranking function).
func scoreOf(cat *catalog.Catalog, root plan.Node, in CostInputs) float64 {
	return newCostModel(in.normalized()).score(root)
}

func TestCostInputsNormalized(t *testing.T) {
	ci := CostInputs{}.normalized()
	if ci != DefaultCostInputs() {
		t.Errorf("zero value must normalize to defaults: %+v", ci)
	}
	ci = CostInputs{CacheHitRate: 2}.normalized()
	if ci.CacheHitRate != 0.95 {
		t.Errorf("hit rate must clamp below 1: %v", ci.CacheHitRate)
	}
}

// TestProbeCostFormula pins CROWDPROBE pricing: cents = probe rows ×
// the compare price, one crowd round of latency.
func TestProbeCostFormula(t *testing.T) {
	cat := testCatalog(t)
	talk, _ := cat.Table("Talk")
	talk.ResetCNullCounts()
	talk.AdjustCNull("abstract", 100) // all 100 stored abstracts open
	in := DefaultCostInputs()
	res := optimize(t, cat, `SELECT abstract FROM Talk`, Options{Cost: in})
	// 100 stored rows, no filter: 100 probe HITs at 2¢ × 3 assignments.
	want := 100 * in.Prices.Compare
	if res.Predicted.Cents != want {
		t.Errorf("probe cents: got %v want %v", res.Predicted.Cents, want)
	}
	if res.Predicted.Seconds != in.RoundTripSeconds {
		t.Errorf("probe latency: got %v want one round trip %v", res.Predicted.Seconds, in.RoundTripSeconds)
	}
}

// TestProbeCostCappedByOutstandingCNulls: answered columns are never
// re-bought, and the prediction knows it.
func TestProbeCostCappedByOutstandingCNulls(t *testing.T) {
	cat := testCatalog(t)
	talk, _ := cat.Table("Talk")
	talk.ResetCNullCounts()
	talk.AdjustCNull("abstract", 10) // 90 of 100 already memorized
	in := DefaultCostInputs()
	res := optimize(t, cat, `SELECT abstract FROM Talk`, Options{Cost: in})
	want := 10 * in.Prices.Compare
	if res.Predicted.Cents != want {
		t.Errorf("probe cents: got %v want %v", res.Predicted.Cents, want)
	}
}

// TestCrowdEqualCostDiscountedByHitRate pins the CROWDEQUAL formula:
// comparisons × (1 − cache hit rate) × the compare price.
func TestCrowdEqualCostDiscountedByHitRate(t *testing.T) {
	cat := testCatalog(t)
	cold := DefaultCostInputs()
	warm := cold
	warm.CacheHitRate = 0.5
	q := `SELECT title FROM Talk WHERE title ~= 'crowd db'`
	costCold := optimize(t, cat, q, Options{Cost: cold}).Predicted.Cents
	costWarm := optimize(t, cat, q, Options{Cost: warm}).Predicted.Cents
	if costCold <= 0 {
		t.Fatalf("crowd filter must cost: %v", costCold)
	}
	if math.Abs(costWarm-costCold/2) > 1e-9 {
		t.Errorf("50%% hit rate must halve compare cents: cold %v warm %v", costCold, costWarm)
	}
}

// TestCrowdOrderCostFormula pins the CROWDORDER sort: n × ceil(log2 n)
// comparisons, ceil(log2 n) crowd rounds of latency.
func TestCrowdOrderCostFormula(t *testing.T) {
	cat := testCatalog(t)
	in := DefaultCostInputs()
	res := optimize(t, cat, `SELECT title FROM Talk ORDER BY CROWDORDER(title, 'better?')`, Options{Cost: in})
	n, rounds := 100.0, math.Ceil(math.Log2(100))
	want := n * rounds * in.Prices.Compare
	if res.Predicted.Cents != want {
		t.Errorf("order cents: got %v want %v", res.Predicted.Cents, want)
	}
	if res.Predicted.Seconds < rounds*in.RoundTripSeconds {
		t.Errorf("order latency: got %v want >= %v rounds", res.Predicted.Seconds, rounds)
	}
}

// TestCrowdJoinSolicitationCost pins the CrowdJoin formula: outer keys ×
// expected fan-out × the tuple price.
func TestCrowdJoinSolicitationCost(t *testing.T) {
	cat := testCatalog(t)
	in := DefaultCostInputs()
	res := optimize(t, cat,
		`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`, Options{Cost: in})
	// 100 outer keys, fan-out 3 minus 0.05 stored per key: 295 tuples at
	// the tuple price.
	want := 100 * (3 - 5.0/100) * in.Prices.Tuple
	if math.Abs(res.Predicted.Cents-want) > 1e-9 {
		t.Errorf("join solicit cents: got %v want %v", res.Predicted.Cents, want)
	}
}

// TestObservedSelectivityFeedsPrediction: the runtime feedback loop makes
// repeated workloads converge on measured selectivities.
func TestObservedSelectivityFeedsPrediction(t *testing.T) {
	cat := testCatalog(t)
	talk, _ := cat.Table("Talk")
	talk.ResetCNullCounts()
	talk.AdjustCNull("abstract", 100)
	in := DefaultCostInputs()
	q := `SELECT abstract FROM Talk WHERE nb_attendees > 10`
	before := optimize(t, cat, q, Options{Cost: in}).Predicted
	talk.ObserveFilter(100, 5) // measured: predicate keeps 5%
	after := optimize(t, cat, q, Options{Cost: in}).Predicted
	if after.Cents >= before.Cents {
		t.Errorf("observed 5%% selectivity must shrink the probe forecast: %v -> %v", before.Cents, after.Cents)
	}
}

// TestFilterPhaseOrdering: the optimizer splits a mixed cheap/crowd
// condition so the executor prunes before paying; the ablation flag
// restores the flat behavior.
func TestFilterPhaseOrdering(t *testing.T) {
	cat := testCatalog(t)
	// An IN-subquery conjunct is unpushable and shares the filter with
	// the crowd predicate.
	q := `SELECT title FROM Talk WHERE title ~= 'x' AND title IN (SELECT rtitle FROM Room)`
	res := optimize(t, cat, q, Options{})
	f := findFilter(res.Root)
	if f == nil {
		t.Fatal("no filter in plan")
	}
	if f.Pre == nil || !strings.Contains(f.Pre.String(), "IN") {
		t.Errorf("cheap conjunct must become the pre phase: %v", f.Pre)
	}
	res = optimize(t, cat, q, Options{DisableCostBased: true})
	if f := findFilter(res.Root); f == nil || f.Pre != nil {
		t.Errorf("ablation must not split phases: %+v", f)
	}
}

func findFilter(n plan.Node) *plan.Filter {
	if f, ok := n.(*plan.Filter); ok {
		return f
	}
	for _, c := range n.Children() {
		if f := findFilter(c); f != nil {
			return f
		}
	}
	return nil
}

// TestExplainCostsPopulated: every node gets a cost annotation and the
// root total is finite for a bounded plan.
func TestExplainCostsPopulated(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat, `SELECT abstract FROM Talk WHERE title = 'CrowdDB'`, Options{})
	if len(res.Costs) == 0 {
		t.Fatal("no cost annotations")
	}
	if _, ok := res.Costs[res.Root]; !ok {
		t.Error("root must be costed")
	}
	if res.Predicted.IsUnbounded() {
		t.Errorf("bounded plan must have finite predicted cost: %v", res.Predicted)
	}
}

// TestDPNeverCostsMoreThanGreedy is the property test: over random
// schemas and join graphs, the cost-based plan's score is never worse
// than the flat greedy heuristic's (ties fall back to greedy exactly).
func TestDPNeverCostsMoreThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := DefaultCostInputs()
	for trial := 0; trial < 60; trial++ {
		cat := catalog.New()
		nTables := 3 + rng.Intn(4) // 3..6
		crowdIdx := -1
		if rng.Intn(2) == 0 {
			crowdIdx = rng.Intn(nTables)
		}
		for i := 0; i < nTables; i++ {
			tab := &catalog.Table{
				Name:  fmt.Sprintf("T%d", i),
				Crowd: i == crowdIdx,
				Columns: []catalog.Column{
					{Name: fmt.Sprintf("k%d", i), Type: sqltypes.TypeString, PrimaryKey: true},
					{Name: "x", Type: sqltypes.TypeInt},
				},
			}
			if err := cat.CreateTable(tab); err != nil {
				t.Fatal(err)
			}
			tab.SetRowCount(int64(1 + rng.Intn(200)))
		}
		// Random connected-ish join graph: each table i>0 joins a random
		// earlier table with some probability, on key columns.
		var conds []string
		for i := 1; i < nTables; i++ {
			if rng.Intn(4) == 0 {
				continue // leave some tables unconnected (cross products)
			}
			j := rng.Intn(i)
			conds = append(conds, fmt.Sprintf("t%d.k%d = t%d.k%d", i, i, j, j))
		}
		var from []string
		for i := 0; i < nTables; i++ {
			from = append(from, fmt.Sprintf("T%d t%d", i, i))
		}
		sql := "SELECT t0.x FROM " + strings.Join(from, ", ")
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		opts := Options{AllowUnbounded: true, Cost: in}
		costBased := optimize(t, cat, sql, opts)
		flatOpts := opts
		flatOpts.DisableCostBased = true
		greedy := optimize(t, cat, sql, flatOpts)
		cbScore := scoreOf(cat, costBased.Root, in)
		gScore := scoreOf(cat, greedy.Root, in)
		if cbScore > gScore+1e-6 && !math.IsInf(gScore, 1) {
			t.Errorf("trial %d (%s): cost-based plan scored worse: %v > greedy %v\ncb:\n%s\ngreedy:\n%s",
				trial, sql, cbScore, gScore,
				plan.ExplainTree(costBased.Root), plan.ExplainTree(greedy.Root))
		}
	}
}

// TestRescuedWarningSurvivesReordering is the warning-ordering regression
// test: a chain containing both a cross product and a rescued crowd join
// must keep the cross-product warning and retract exactly the rescued
// scan's unbounded warning.
func TestRescuedWarningSurvivesReordering(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat,
		`SELECT t.title FROM Room r, Talk t, NotableAttendee n WHERE n.title = t.title`, Options{})
	if !res.Bounded {
		t.Fatalf("join binding must bound the crowd inner: %v", res.Warnings)
	}
	crosses, unbounded := 0, 0
	for _, w := range res.Warnings {
		if strings.Contains(w, "cross product") {
			crosses++
		}
		if strings.Contains(w, "unbounded") {
			unbounded++
		}
	}
	if crosses != 1 || unbounded != 0 {
		t.Errorf("want exactly the cross-product warning, got %v", res.Warnings)
	}
}

// TestRescueDropsOnlyOwnWarning: with two scans of the same crowd table
// (prefix aliases n / n2), rescuing one must not eat the other's warning.
func TestRescueDropsOnlyOwnWarning(t *testing.T) {
	cat := testCatalog(t)
	res := optimize(t, cat,
		`SELECT t.title FROM Talk t JOIN NotableAttendee n ON n.title = t.title, NotableAttendee n2`,
		Options{AllowUnbounded: true})
	if res.Bounded {
		t.Fatal("n2 is unbounded")
	}
	sawN2, sawN := false, false
	for _, w := range res.Warnings {
		if strings.Contains(w, "CROWD table n2 ") {
			sawN2 = true
		}
		if strings.Contains(w, "CROWD table n ") {
			sawN = true
		}
	}
	if !sawN2 || sawN {
		t.Errorf("only n2's warning must survive: %v", res.Warnings)
	}
}

// costsInOrder lists res's per-node costs in a walk of its tree.
func costsInOrder(res *Result) []plan.Cost {
	var out []plan.Cost
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		out = append(out, res.Costs[n])
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(res.Root)
	return out
}

// TestRepriceMatchesOptimize: after the statistics and the cost inputs
// move, re-pricing a join-free plan gives what optimizing its statement
// afresh gives — per-node costs, forecast, boundedness and warnings — on
// the same tree, leaves the old Result as it was, and allocates only the
// new Result and its cost map. A plan that joins is not re-priced.
func TestRepriceMatchesOptimize(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		opts Options
	}{
		{`SELECT title FROM Talk WHERE title = 'x'`, Options{}},
		{`SELECT abstract FROM Talk WHERE nb_attendees > 10 ORDER BY title LIMIT 5`, Options{}},
		{`SELECT title, COUNT(*) FROM Talk WHERE title <> 'y' GROUP BY title`, Options{}},
		{`SELECT title FROM Talk WHERE title ~= 'crowd db' AND nb_attendees > 3`, Options{}},
		{`SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which is better?')`, Options{}},
		{`SELECT name FROM NotableAttendee WHERE title = 'CrowdDB'`, Options{}},
		{`SELECT name FROM NotableAttendee LIMIT 4`, Options{}},
		{`SELECT name FROM NotableAttendee`, Options{AllowUnbounded: true}},
	} {
		cat := testCatalog(t)
		talk, _ := cat.Table("Talk")
		talk.AdjustCNull("abstract", 40)
		old := optimize(t, cat, tc.sql, tc.opts)
		oldCosts, oldPredicted := costsInOrder(old), old.Predicted

		talk.SetRowCount(250)
		talk.ObserveFilter(100, 7)
		talk.AdjustCNull("abstract", -15)
		na, _ := cat.Table("NotableAttendee")
		na.SetRowCount(2)
		na.ObserveCrowdFanout(4, 9)
		opts := tc.opts
		opts.Cost = CostInputs{RoundTripSeconds: 600, CacheHitRate: 0.4, Window: 3}
		re, ok, err := Reprice(old, opts)
		if !ok || err != nil {
			t.Fatalf("%s: not re-priced (ok %v, %v)", tc.sql, ok, err)
		}
		fresh := optimize(t, cat, tc.sql, opts)
		if re.Root != old.Root {
			t.Errorf("%s: the re-priced Result has another tree", tc.sql)
		}
		if got, want := costsInOrder(re), costsInOrder(fresh); !slices.Equal(got, want) {
			t.Errorf("%s: re-priced costs %#v, fresh %#v", tc.sql, got, want)
		}
		if slices.Equal(costsInOrder(re), oldCosts) {
			t.Errorf("%s: the moved statistics and cost inputs moved no cost", tc.sql)
		}
		if re.Predicted != fresh.Predicted || re.Bounded != fresh.Bounded || !slices.Equal(re.Warnings, fresh.Warnings) {
			t.Errorf("%s: re-priced %+v %v %q, fresh %+v %v %q", tc.sql,
				re.Predicted, re.Bounded, re.Warnings, fresh.Predicted, fresh.Bounded, fresh.Warnings)
		}
		if !slices.Equal(costsInOrder(old), oldCosts) || old.Predicted != oldPredicted {
			t.Errorf("%s: re-pricing modified the old Result", tc.sql)
		}
		again, ok, _ := Reprice(re, opts)
		if !ok || again.Predicted != re.Predicted {
			t.Errorf("%s: a re-priced Result does not re-price alike", tc.sql)
		}
		// An unbounded plan's warnings are formatted anew as well.
		if allocs := testing.AllocsPerRun(20, func() { Reprice(old, opts) }); allocs > 3 && re.Bounded {
			t.Errorf("%s: a re-price allocates %v times, want at most 3 (the Result and its cost map)", tc.sql, allocs)
		}
	}

	cat := testCatalog(t)
	for _, sql := range []string{
		`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`,
		`SELECT t.title, r.capacity FROM Talk t, Room r WHERE r.rtitle = t.title`,
		`SELECT t.title, n.name FROM Talk t LEFT JOIN NotableAttendee n ON n.title = t.title`,
	} {
		res := optimize(t, cat, sql, Options{AllowUnbounded: true})
		if re, ok, err := Reprice(res, Options{AllowUnbounded: true}); ok || re != nil || err != nil {
			t.Errorf("%s: a plan that joins was re-priced (%v, %v)", sql, ok, err)
		}
	}
}
