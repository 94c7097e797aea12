package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// TestScanAgreesWithStoreUnderWrites drives random inserts, updates,
// key-changing updates (shard moves), deletes and GC sweeps, and checks at
// every pinned snapshot that the shard merge and a stop-after scan emit
// the rows — in the order — that a filter over the model (storedAt) gives,
// and that the stop-after scan examined exactly the rows up to its quota.
func TestScanAgreesWithStoreUnderWrites(t *testing.T) {
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
					id, err := storeInsert(st, "t", Row{num(nextKey), num(rng.Int63n(100))})
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
					if err := storeUpdate(st, "t", id, Row{num(keys[id]), num(rng.Int63n(100))}); err != nil {
						t.Fatal(err)
					}
				case op == 8:
					i := rng.Intn(len(live))
					if err := storeDelete(st, "t", live[i]); err != nil {
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
					_, stored := storedAt(t, st, "t", at)
					var want []Row
					for _, r := range stored {
						if r[1].Int() > bound {
							want = append(want, r)
						}
					}
					sql := fmt.Sprintf("SELECT id, val FROM t WHERE val > %d", bound)
					ctx := &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache(), SnapshotTS: at, batchSize: 16}
					if got := h.runCtxOpts(t, ctx, sql, optimizer.Options{}); rowsKey(got) != rowsKey(want) {
						t.Fatalf("step %d, scan at %d:\ngot  %swant %s", step, at, rowsKey(got), rowsKey(want))
					}
					ctx = &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache(), SnapshotTS: at}
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

// TestScanStatementsOwnNoGoroutines: a statement runs on the goroutine that
// called it and starts no other. The sink samples the goroutine count while
// scan_read's three statements (bench/perf) stream over its table — 20 000
// rows on two shards — and never sees more than were running before.
func TestScanStatementsOwnNoGoroutines(t *testing.T) {
	st, err := storage.NewStoreOptions("", storage.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{cat: catalog.New(), store: st}
	h.createTable(t, &catalog.Table{
		Name: "Talk",
		Columns: []catalog.Column{
			{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "room", Type: sqltypes.TypeString},
			{Name: "nb_attendees", Type: sqltypes.TypeInt},
		},
	})
	for i := 0; i < 20000; i++ {
		h.insert(t, "Talk", Row{str(fmt.Sprintf("talk-%05d", i)), str(fmt.Sprintf("room-%04d", i%2500)), num(int64((i*7919 + 13) % 1000))})
	}
	for _, sql := range []string{
		"SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950",
		"SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10",
		"SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950 ORDER BY nb_attendees DESC LIMIT 10",
	} {
		ctx := &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache(), batchSize: 16}
		op, err := h.compile(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		before, rows := runtime.NumGoroutine(), 0
		err = RunSink(op, ctx, sinkFunc(func(Row) error {
			rows++
			if now := runtime.NumGoroutine(); now > before {
				return fmt.Errorf("%d goroutines at row %d, %d before the statement", now, rows, before)
			}
			return nil
		}))
		if err != nil || rows == 0 {
			t.Errorf("%s: %d rows, %v", sql, rows, err)
		}
	}
}
