package exec

// Allocation pins for the operators that key rows by value: a key is built
// in a reused buffer and looked up without a copy, and only a new key is
// copied — into an arena chunk, not a string of its own.

import (
	"fmt"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
)

// keyedAllocs loads rows rows of (id, k) into table t, with k cycling
// through keys values, plus a 20-row table b keyed 0..19, and measures
// the allocations of one run of sql.
func keyedAllocs(t *testing.T, rows, keys int, sql string) float64 {
	h := newHarness(t)
	for _, name := range []string{"t", "b"} {
		h.createTable(t, &catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
				{Name: "k", Type: sqltypes.TypeString},
			},
		})
	}
	for i := 0; i < rows; i++ {
		h.insert(t, "t", Row{num(int64(i)), str(fmt.Sprintf("key-%04d", i%keys))})
	}
	for i := 0; i < 20; i++ {
		h.insert(t, "b", Row{num(int64(i)), str(fmt.Sprintf("key-%04d", i))})
	}
	opts := optimizer.Options{DisableJoinReorder: true} // t probes, b builds
	return testing.AllocsPerRun(5, func() {
		ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
		h.runCtxOpts(t, ctx, sql, opts)
	})
}

// TestDistinctAllocsFollowKeysNotRows: ten times the input over the same
// keys costs DISTINCT (almost) nothing more, and a new key costs no
// allocation of its own.
func TestDistinctAllocsFollowKeysNotRows(t *testing.T) {
	const sql = "SELECT DISTINCT k FROM t"
	few, many := keyedAllocs(t, 400, 20, sql), keyedAllocs(t, 4000, 20, sql)
	if perRow := (many - few) / 3600; perRow >= 0.05 {
		t.Errorf("%.3f allocations per extra input row, want < 0.05 (%.0f over 400 rows, %.0f over 4 000)", perRow, few, many)
	}
	wide := keyedAllocs(t, 4000, 2000, sql)
	t.Logf("DISTINCT: %.0f allocations over 400 rows, %.0f over 4 000, %.0f over 4 000 with 2 000 keys", few, many, wide)
	if perKey := (wide - many) / 1980; perKey >= 0.05 {
		t.Errorf("%.3f allocations per extra key, want < 0.05 (%.0f for 20 keys, %.0f for 2 000)", perKey, many, wide)
	}
}

// TestHashJoinProbeAllocatesNoKey: a probe row that finds nothing costs
// nothing, and one that matches costs its output row only.
func TestHashJoinProbeAllocatesNoKey(t *testing.T) {
	const miss = "SELECT t.id FROM t JOIN b ON t.k = b.k WHERE t.id >= 20"
	few, many := keyedAllocs(t, 400, 4000, miss), keyedAllocs(t, 4000, 4000, miss)
	if perRow := (many - few) / 3600; perRow >= 0.05 {
		t.Errorf("%.3f allocations per probe row that misses, want < 0.05 (%.0f for 400 rows, %.0f for 4 000)", perRow, few, many)
	}
	const hit = "SELECT t.id, b.id FROM t JOIN b ON t.k = b.k"
	t.Logf("probes that miss: %.0f allocations for 400, %.0f for 4 000", few, many)
	few, many = keyedAllocs(t, 400, 20, hit), keyedAllocs(t, 4000, 20, hit)
	t.Logf("probes that match: %.0f allocations for 400, %.0f for 4 000", few, many)
	if perRow := (many - few) / 3600; perRow >= 1.05 {
		t.Errorf("%.3f allocations per probe row that matches, want < 1.05: its output row (%.0f for 400 rows, %.0f for 4 000)", perRow, few, many)
	}
}
