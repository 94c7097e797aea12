package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// TestScanParallelAndSequentialAgreeUnderWrites drives random inserts,
// updates, key-changing updates (shard moves), deletes and GC sweeps, and
// checks at every pinned snapshot that the sequential merge, the parallel
// fan-out and a stop-after scan emit the rows — in the order — that a
// filter over the store's own ScanRowsAt gives, and that the stop-after
// scan examined exactly the rows up to its quota.
func TestScanParallelAndSequentialAgreeUnderWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, err := storage.NewStoreOptions("", storage.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			h := &harness{cat: catalog.New(), store: st}
			h.createTable(t, &catalog.Table{
				Name: "t",
				Columns: []catalog.Column{
					{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
					{Name: "val", Type: sqltypes.TypeInt},
				},
			})
			tab, _ := h.cat.Table("t")
			rng := rand.New(rand.NewSource(int64(shards)))
			var live []storage.RowID
			keys := map[storage.RowID]int64{}
			nextKey := int64(0)
			var snaps []*storage.Snapshot
			defer func() {
				for _, sn := range snaps {
					sn.Release()
				}
			}()
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 5 || len(live) == 0:
					nextKey++
					id, err := st.Insert("t", Row{num(nextKey), num(rng.Int63n(100))})
					if err != nil {
						t.Fatal(err)
					}
					tab.AddRowCount(1)
					live, keys[id] = append(live, id), nextKey
				case op < 8:
					id := live[rng.Intn(len(live))]
					if op == 7 { // re-key: sharded, the row moves
						nextKey++
						keys[id] = nextKey
					}
					if err := st.Update("t", id, Row{num(keys[id]), num(rng.Int63n(100))}); err != nil {
						t.Fatal(err)
					}
				case op == 8:
					i := rng.Intn(len(live))
					if err := st.Delete("t", live[i]); err != nil {
						t.Fatal(err)
					}
					live = slices.Delete(live, i, i+1)
				default:
					if len(snaps) == 3 {
						snaps[0].Release()
						snaps = snaps[1:]
					}
					snaps = append(snaps, st.AcquireSnapshot())
					st.GC()
				}
				if step%20 != 19 {
					continue
				}
				for _, at := range append([]int64{st.VisibleTS()}, snapTimes(snaps)...) {
					bound := rng.Int63n(100)
					_, stored, err := st.ScanRowsAt("t", at)
					if err != nil {
						t.Fatal(err)
					}
					var want []Row
					for _, r := range stored {
						if r[1].Int() > bound {
							want = append(want, r)
						}
					}
					sql := fmt.Sprintf("SELECT id, val FROM t WHERE val > %d", bound)
					for name, minRows := range map[string]int{"sequential": -1, "parallel": 1} {
						ctx := &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache(), SnapshotTS: at, ParallelScanMinRows: minRows, BatchSize: 16}
						if got := h.runCtxOpts(t, ctx, sql, optimizer.Options{}); rowsKey(got) != rowsKey(want) {
							t.Fatalf("step %d, %s scan at %d:\ngot  %swant %s", step, name, at, rowsKey(got), rowsKey(want))
						}
					}
					ctx := &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache(), SnapshotTS: at}
					got := h.runCtxOpts(t, ctx, sql+" LIMIT 5", optimizer.Options{})
					if rowsKey(got) != rowsKey(want[:min(5, len(want))]) {
						t.Fatalf("step %d, stop-after scan at %d:\ngot  %swant %s", step, at, rowsKey(got), rowsKey(want))
					}
					examined := len(stored)
					if len(want) >= 5 {
						examined = 1 + slices.IndexFunc(stored, func(r Row) bool { return &r[0] == &want[4][0] })
					}
					if ctx.Stats.RowsScanned != examined {
						t.Fatalf("step %d: stop-after scan at %d examined %d rows, want %d", step, at, ctx.Stats.RowsScanned, examined)
					}
				}
			}
		})
	}
}

func snapTimes(snaps []*storage.Snapshot) []int64 {
	out := make([]int64, len(snaps))
	for i, sn := range snaps {
		out[i] = sn.TS()
	}
	return out
}

// TestParallelScanReusesChunks: the fan-out allocates the few chunks in
// flight, not one per scanChunkRows rows that pass the filter — four times
// the rows through the workers costs (almost) no more allocations.
func TestParallelScanReusesChunks(t *testing.T) {
	allocs := func(rows int) float64 {
		st, err := storage.NewStoreOptions("", storage.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{cat: catalog.New(), store: st}
		h.createTable(t, &catalog.Table{
			Name: "t",
			Columns: []catalog.Column{
				{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
				{Name: "val", Type: sqltypes.TypeInt},
			},
		})
		tab, _ := h.cat.Table("t")
		for i := 0; i < rows; i++ {
			h.insert(t, "t", Row{num(int64(i)), num(int64(i % 10))})
		}
		tab.AddRowCount(int64(rows))
		return testing.AllocsPerRun(5, func() {
			ctx := &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache(), ParallelScanMinRows: 1}
			got := h.runCtxOpts(t, ctx, "SELECT COUNT(*) FROM t WHERE val >= 0", optimizer.Options{})
			if len(got) != 1 || got[0][0].Int() != int64(rows) {
				t.Fatalf("COUNT(*) = %v, want %d", got, rows)
			}
		})
	}
	small, large := allocs(8*scanChunkRows), allocs(32*scanChunkRows)
	if large > small+16 {
		t.Errorf("allocations follow the rows scanned: %.0f over %d rows, %.0f over %d", small, 8*scanChunkRows, large, 32*scanChunkRows)
	}
}
