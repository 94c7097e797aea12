package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
	// Under a LIMIT the sort keeps only that many rows as it goes; what it
	// keeps is still the head of the stable order, ties in arrival order.
	for _, tc := range []struct {
		sql  string
		want []Row
	}{
		{"SELECT id, a, b FROM s ORDER BY a DESC, b", want},
		{"SELECT id, a, b FROM s ORDER BY a DESC, b LIMIT 150", want[:150]},
		{"SELECT id, a, b FROM s ORDER BY a DESC, b LIMIT 100 OFFSET 95", want[95:195]},
	} {
		got := h.run(t, tc.sql, optimizer.Options{})
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", tc.sql, len(got), len(tc.want))
		}
		for i, w := range tc.want {
			if got[i][0].Int() != w[0].Int() {
				t.Fatalf("%s: row %d: id %d, want %d (a=%v b=%v)", tc.sql, i, got[i][0].Int(), w[0].Int(), w[1], w[2])
			}
		}
	}
}

// TestBoundedSortIsPrefixOfFullSort: for random keys — heavy ties, NULL
// and CNULL keys, several keys with their own directions — and random
// LIMIT/OFFSET (0, and past the input, included), the rows a Sort with a
// stop-after bound returns are the same rows, in the same order, as that
// prefix of the full stable sort, computed here and by the plan the
// DisableStopAfter arm builds.
func TestBoundedSortIsPrefixOfFullSort(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t)
		h.createTable(t, &catalog.Table{
			Name: "k",
			Columns: []catalog.Column{
				{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
				{Name: "x", Type: sqltypes.TypeInt},
				{Name: "y", Type: sqltypes.TypeString},
				{Name: "z", Type: sqltypes.TypeFloat},
			},
		})
		key := func(kinds int) sqltypes.Value {
			switch rng.Intn(kinds) {
			case 0:
				return sqltypes.Null()
			case 1:
				return sqltypes.CNull()
			}
			return num(int64(rng.Intn(4)))
		}
		n := 1 + rng.Intn(700) // up to three batches
		in := make([]Row, n)
		for i := range in {
			in[i] = Row{num(int64(i)), key(6), str(fmt.Sprintf("y%d", rng.Intn(3))), sqltypes.NewFloat(float64(rng.Intn(2)))}
			if rng.Intn(5) == 0 {
				in[i][2] = key(2)
			}
			h.insert(t, "k", in[i])
		}
		for trial := 0; trial < 12; trial++ {
			cols := rng.Perm(3)[:1+rng.Intn(3)]
			desc := make([]bool, len(cols))
			var order []string
			for i, c := range cols {
				desc[i] = rng.Intn(2) == 0
				order = append(order, []string{"x", "y", "z"}[c])
				if desc[i] {
					order[i] += " DESC"
				}
			}
			full := append([]Row(nil), in...)
			sort.SliceStable(full, func(i, j int) bool {
				for ki, c := range cols {
					if cmp := sqltypes.SortCompare(full[i][1+c], full[j][1+c]); cmp != 0 {
						return (cmp < 0) != desc[ki]
					}
				}
				return false
			})
			limit := []int{0, 1, 7, n / 2, n, n + 50}[rng.Intn(6)]
			offset := []int{0, 0, 3, n / 3, n + 1}[rng.Intn(5)]
			want := full[min(offset, n):min(offset+limit, n)]
			sql := fmt.Sprintf("SELECT id FROM k ORDER BY %s LIMIT %d OFFSET %d", strings.Join(order, ", "), limit, offset)
			for _, opts := range []optimizer.Options{{}, {DisableStopAfter: true}} {
				got := h.run(t, sql, opts)
				if len(got) != len(want) {
					t.Fatalf("seed %d, %s, %+v: %d rows, want %d", seed, sql, opts, len(got), len(want))
				}
				for i := range want {
					if got[i][0].Int() != want[i][0].Int() {
						t.Fatalf("seed %d, %s, %+v: row %d is id %d, want %d", seed, sql, opts, i, got[i][0].Int(), want[i][0].Int())
					}
				}
			}
		}
	}
}

// TestPlainSortAllocsPerRow: sorting costs a handful of growing slices and
// the projection one slab per batch — nothing per row.
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
	if perRow := (large - small) / 2000; perRow > 0.05 {
		t.Errorf("%.2f allocations per extra sorted row (%.0f for 500 rows, %.0f for 2 500)", perRow, small, large)
	}
}
