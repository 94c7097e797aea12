package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// TestTopKMatchesStableSort: the selection holds the first keep rows of the
// stable sort of everything offered, whatever keep is; sorted gives them in
// that order and inArrival in the order they came.
func TestTopKMatchesStableSort(t *testing.T) {
	schema := []plan.Col{{Name: "a"}, {Name: "b"}, {Name: "n"}}
	order := []parser.OrderItem{{Expr: &parser.ColumnRef{Name: "a"}, Desc: true}, {Expr: &parser.ColumnRef{Name: "b"}}}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows := make([]Row, rng.Intn(60))
		for i := range rows {
			a := num(int64(rng.Intn(4)))
			if rng.Intn(6) == 0 {
				a = sqltypes.Null()
			}
			rows[i] = Row{a, str(fmt.Sprint(rng.Intn(3))), num(int64(i))}
		}
		full := slices.Clone(rows)
		slices.SortStableFunc(full, func(x, y Row) int {
			if c := sqltypes.SortCompare(x[0], y[0]); c != 0 {
				return -c
			}
			return sqltypes.SortCompare(x[1], y[1])
		})
		for _, keep := range []int64{-1, 0, 1, 3, int64(len(rows)), int64(len(rows)) + 2} {
			var b binder
			top := &topK{order: order, keys: b.bindAll(len(order), func(i int) parser.Expr { return order[i].Expr }, schema), keep: keep}
			var held []Row
			for _, r := range rows {
				slot, err := top.offer(r)
				switch {
				case err != nil:
					t.Fatal(err)
				case slot == len(held):
					held = append(held, r)
				case slot >= 0:
					held[slot] = r
				}
			}
			want := full
			if keep >= 0 && keep < int64(len(full)) {
				want = full[:keep]
			}
			var got []Row
			for _, s := range top.sorted() {
				got = append(got, held[s])
			}
			if rowsKey(got) != rowsKey(want) {
				t.Fatalf("trial %d, keep %d: sorted\n%s\nwant\n%s", trial, keep, rowsKey(got), rowsKey(want))
			}
			arrived := slices.SortedFunc(slices.Values(slices.Clone(want)), func(x, y Row) int { return cmp.Compare(x[2].Int(), y[2].Int()) })
			got = got[:0]
			for _, s := range top.inArrival() {
				got = append(got, held[s])
			}
			if rowsKey(got) != rowsKey(arrived) {
				t.Fatalf("trial %d, keep %d: in arrival\n%s\nwant\n%s", trial, keep, rowsKey(got), rowsKey(arrived))
			}
		}
	}
}
