package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
)

func sortTable(t *testing.T, rows int, seed int64) (*harness, []Row) {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "a", Type: sqltypes.TypeInt},
			{Name: "b", Type: sqltypes.TypeString},
		},
	})
	rng := rand.New(rand.NewSource(seed))
	in := make([]Row, rows)
	for i := range in {
		in[i] = Row{num(int64(i)), num(int64(rng.Intn(7))), str(fmt.Sprintf("b-%d", rng.Intn(5)))}
		h.insert(t, "s", in[i])
	}
	return h, in
}

// TestPlainSortIsStable: the machine sort moves row numbers, not rows; the
// order it produces must be the stable order of the keyed sort it replaced
// — ties (most rows here) stay in arrival order, per-key DESC included.
func TestPlainSortIsStable(t *testing.T) {
	h, in := sortTable(t, 600, 3)
	want := append([]Row(nil), in...)
	sort.SliceStable(want, func(i, j int) bool {
		if c := sqltypes.SortCompare(want[i][1], want[j][1]); c != 0 {
			return c > 0 // a DESC
		}
		return sqltypes.SortCompare(want[i][2], want[j][2]) < 0
	})
	got := h.run(t, "SELECT id, a, b FROM s ORDER BY a DESC, b", optimizer.Options{})
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0].Int() != want[i][0].Int() {
			t.Fatalf("row %d: id %d, want %d (a=%v b=%v)", i, got[i][0].Int(), want[i][0].Int(), want[i][1], want[i][2])
		}
	}
}

// TestPlainSortAllocsPerRow: sorting costs a fixed number of slices, not
// an allocation per row — what is left per extra row is the projected
// output row.
func TestPlainSortAllocsPerRow(t *testing.T) {
	allocs := func(rows int) float64 {
		h, _ := sortTable(t, rows, 5)
		return testing.AllocsPerRun(5, func() {
			if got := h.run(t, "SELECT id, a FROM s ORDER BY a DESC, b", optimizer.Options{}); len(got) != rows {
				t.Fatalf("%d rows, want %d", len(got), rows)
			}
		})
	}
	small, large := allocs(500), allocs(2500)
	if perRow := (large - small) / 2000; perRow > 1.5 {
		t.Errorf("%.2f allocations per extra sorted row (%.0f for 500 rows, %.0f for 2 500)", perRow, small, large)
	}
}
