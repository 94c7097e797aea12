package exec

import (
	"testing"

	"crowddb/internal/obs"
	"crowddb/internal/plan"
)

// TestScanUnderCrowdOperatorHasNoOwnCrowdWork: a crowd filter and a
// CROWDORDER sort both drain their Scan before asking the crowd, and the
// Scan is closed only when the statement ends. Its actuals count the
// work done inside its own calls, so it reports no comparisons — in
// OpStats and on its trace span — while the crowd operator and the root
// carry the statement's.
func TestScanUnderCrowdOperatorHasNoOwnCrowdWork(t *testing.T) {
	for _, sql := range []string{
		`SELECT label FROM item WHERE CROWDEQUAL(label, 'cherry')`,
		`SELECT label FROM item ORDER BY CROWDORDER(label, 'which is better?')`,
	} {
		h, ctx := crowdHarness(t, 67)
		for _, l := range []string{"banana", "apple", "cherry", "date"} {
			h.insert(t, "item", Row{str(l)})
		}
		tr := obs.NewTracer(4).Start("t")
		ctx.Trace = tr
		ctx.OpStats = make(map[plan.Node]*OpStats)
		h.runCtx(t, ctx, sql)
		if ctx.Stats.Comparisons == 0 {
			t.Fatalf("%s: the statement must pay the crowd: %+v", sql, ctx.Stats)
		}
		scans, root := 0, false
		for n, st := range ctx.OpStats {
			if _, ok := n.(*plan.Scan); ok {
				scans++
				if st.Crowd.Comparisons != 0 {
					t.Errorf("%s: Scan reports %d comparisons", sql, st.Crowd.Comparisons)
				}
			}
			root = root || st.Crowd == ctx.Stats
		}
		if scans != 1 || !root {
			t.Errorf("%s: %d Scan actuals, an operator carrying the statement's crowd work: %v", sql, scans, root)
		}
		spans := tr.JSON().FindSpans("op:scan:")
		if len(spans) != 1 {
			t.Fatalf("%s: %d op:scan: spans", sql, len(spans))
		}
		if c, ok := spans[0].Attrs["comparisons"]; ok {
			t.Errorf("%s: op:scan: span carries comparisons=%s", sql, c)
		}
	}
}
