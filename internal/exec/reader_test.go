package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// storedAt is the tests' model of a table at a timestamp, independent of
// the reader's merge: every shard's visible rows gathered whole, then
// sorted by row id.
func storedAt(t *testing.T, st *storage.Store, table string, at int64) ([]storage.RowID, []Row) {
	t.Helper()
	scans, err := st.ScanShardsAt(table, at)
	if err != nil {
		t.Fatal(err)
	}
	var ids []storage.RowID
	byID := map[storage.RowID]Row{}
	for i := range scans {
		shardIDs, shardRows := scans[i].Next(nil, nil, math.MaxInt)
		for j, id := range shardIDs {
			ids, byID[id] = append(ids, id), shardRows[j]
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = byID[id]
	}
	return ids, rows
}

// scanNode compiles a single-table SELECT and returns its scan, with the
// pushed filter and the probe keys the optimizer derived from it.
func (h *harness) scanNode(t *testing.T, sql string) *plan.Scan {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := opt.Root
	for len(n.Children()) > 0 {
		n = n.Children()[0]
	}
	return n.(*plan.Scan)
}

// runWithStats compiles+runs a SELECT and also returns executor stats.
func (h *harness) runWithStats(t *testing.T, sql string) ([]Row, Stats) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	op, err := Build(opt.Root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows, ctx.Stats
}

func bigTable(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "item",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "grp", Type: sqltypes.TypeString},
			{Name: "v", Type: sqltypes.TypeInt},
		},
	})
	for i := 0; i < 500; i++ {
		h.insert(t, "item", Row{num(int64(i)), str(fmt.Sprintf("g%d", i%20)), num(int64(i * 3))})
	}
	return h
}

func TestPKLookupAvoidsFullScan(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT v FROM item WHERE id = 123")
	if len(rows) != 1 || rows[0][0].Int() != 369 {
		t.Fatalf("rows: %v", rows)
	}
	if st.RowsScanned > 1 {
		t.Errorf("PK lookup must touch 1 row, scanned %d", st.RowsScanned)
	}
}

func TestPKLookupMiss(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT v FROM item WHERE id = 99999")
	if len(rows) != 0 {
		t.Errorf("rows: %v", rows)
	}
	if st.RowsScanned != 0 {
		t.Errorf("missing key must scan nothing: %d", st.RowsScanned)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	h := bigTable(t)
	tab, _ := h.cat.Table("item")
	if err := h.cat.CreateIndex(&catalog.Index{Name: "idx_grp", Table: "item", Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	if err := h.store.CreateIndex("item", "idx_grp", []int{tab.ColumnIndex("grp")}, false); err != nil {
		t.Fatal(err)
	}
	rows, st := h.runWithStats(t, "SELECT id FROM item WHERE grp = 'g7'")
	if len(rows) != 25 {
		t.Fatalf("rows: %d", len(rows))
	}
	if st.RowsScanned != 25 {
		t.Errorf("index lookup must touch 25 rows, scanned %d", st.RowsScanned)
	}
}

// TestReaderIndexChoiceIsDeterministic: when a WHERE pins two columns that
// each have a single-column index, the reader probes the same index every
// run — a unique one first, then the catalog's first — so RowsScanned does
// not change from run to run.
func TestReaderIndexChoiceIsDeterministic(t *testing.T) {
	h := bigTable(t)
	tab, _ := h.cat.Table("item")
	index := func(name, col string, unique bool) {
		t.Helper()
		if err := h.cat.CreateIndex(&catalog.Index{Name: name, Table: "item", Columns: []string{col}, Unique: unique}); err != nil {
			t.Fatal(err)
		}
		if err := h.store.CreateIndex("item", name, []int{tab.ColumnIndex(col)}, unique); err != nil {
			t.Fatal(err)
		}
	}
	scanned := func(want int) {
		t.Helper()
		seen := map[int]int{}
		for range 40 {
			rows, st := h.runWithStats(t, "SELECT id FROM item WHERE grp = 'g7' AND v = 21")
			if len(rows) != 1 || rows[0][0].Int() != 7 {
				t.Fatalf("rows: %v", rows)
			}
			seen[st.RowsScanned]++
		}
		if len(seen) != 1 || seen[want] != 40 {
			t.Errorf("RowsScanned over 40 runs: %v, want %d every run", seen, want)
		}
	}
	index("idx_grp", "grp", false)
	index("idx_v", "v", false)
	scanned(25)
	index("z_v", "v", true)
	scanned(1)
}

func TestIndexScanAppliesResidualFilter(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT v FROM item WHERE id = 123 AND v > 1000")
	if len(rows) != 0 {
		t.Errorf("residual filter ignored: %v", rows)
	}
	if st.RowsScanned > 1 {
		t.Errorf("still a point lookup: %d", st.RowsScanned)
	}
}

func TestIndexScanCoercesKeyType(t *testing.T) {
	h := bigTable(t)
	// String literal against INTEGER PK must still hit the index.
	rows, _ := h.runWithStats(t, "SELECT v FROM item WHERE id = '42'")
	if len(rows) != 1 || rows[0][0].Int() != 126 {
		t.Errorf("coerced key lookup: %v", rows)
	}
}

func TestSeqScanFallbackWithoutIndex(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT id FROM item WHERE grp = 'g3'")
	if len(rows) != 25 {
		t.Fatalf("rows: %d", len(rows))
	}
	if st.RowsScanned != 500 {
		t.Errorf("no index on grp: full scan expected, got %d", st.RowsScanned)
	}
}

// TestReaderSourcesAgreeUnderWrites is the reader's differential test:
// over a table under random inserts, updates, re-keying updates (shard
// moves), deletes and GC, at the latest state and at pinned snapshots, a
// `col = literal [AND residual]` read fed by the primary key, by a
// secondary index and by the shard cursors returns the same (ids, rows) in
// the same order — the ones a filter over the model gives — whatever the
// quota, and the scan operator over it emits those rows at batch sizes
// 1, 7 and 256.
func TestReaderSourcesAgreeUnderWrites(t *testing.T) {
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
					{Name: "k", Type: sqltypes.TypeInt},
					{Name: "v", Type: sqltypes.TypeInt},
				},
			})
			if err := h.cat.CreateIndex(&catalog.Index{Name: "t_k", Table: "t", Columns: []string{"k"}}); err != nil {
				t.Fatal(err)
			}
			if err := st.CreateIndex("t", "t_k", []int{1}, false); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(20 + shards)))
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
					id, err := st.Insert("t", Row{num(nextKey), num(rng.Int63n(6)), num(rng.Int63n(100))})
					if err != nil {
						t.Fatal(err)
					}
					live, keys[id] = append(live, id), nextKey
				case op < 8:
					id := live[rng.Intn(len(live))]
					if op == 7 { // re-key: sharded, the row moves
						nextKey++
						keys[id] = nextKey
					}
					if err := st.Update("t", id, Row{num(keys[id]), num(rng.Int63n(6)), num(rng.Int63n(100))}); err != nil {
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
					modelIDs, modelRows := storedAt(t, st, "t", at)
					for _, col := range []int{0, 1} { // 0: id, the primary key; 1: k, indexed
						lit, bound, quota := rng.Int63n(6), int64(-1), int64(rng.Intn(5)-1)
						if col == 0 {
							lit = 1 + rng.Int63n(nextKey+1) // sometimes a key no row has (any more)
						}
						where := fmt.Sprintf("%s = %d", []string{"id", "k"}[col], lit)
						if rng.Intn(2) == 0 {
							bound = rng.Int63n(100)
							where += fmt.Sprintf(" AND v > %d", bound)
						}
						var wantIDs []storage.RowID
						var want []Row
						for i, r := range modelRows {
							if r[col].Int() == lit && r[2].Int() > bound && (quota < 0 || int64(len(want)) < quota) {
								wantIDs, want = append(wantIDs, modelIDs[i]), append(want, r)
							}
						}
						keyed := h.scanNode(t, "SELECT id, k, v FROM t WHERE "+where)
						unkeyed := *keyed
						unkeyed.ProbeKeys = nil // same filter, no access path: the cursors feed it
						for _, node := range []*plan.Scan{keyed, &unkeyed} {
							node.StopAfter = quota
							ctx := &Ctx{Store: st, Cat: h.cat, SnapshotTS: at}
							var rd tableReader
							if err := rd.open(ctx, node); err != nil {
								t.Fatal(err)
							}
							if rd.cursors != (node == &unkeyed) {
								t.Fatalf("%s: cursors feed the read: %v", where, rd.cursors)
							}
							ids, rows, err := ReadTable(ctx, node)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(ids, wantIDs) || rowsKey(rows) != rowsKey(want) {
								t.Fatalf("step %d, %s at %d, quota %d, cursors=%v:\ngot  %v\n%swant %v\n%s",
									step, where, at, quota, rd.cursors, ids, rowsKey(rows), wantIDs, rowsKey(want))
							}
							for _, size := range []int{1, 7, 256} {
								ctx := &Ctx{Store: st, Cat: h.cat, SnapshotTS: at, BatchSize: size}
								got, err := Run(&seqScan{rd: tableReader{node: node}}, ctx)
								if err != nil {
									t.Fatal(err)
								}
								if rowsKey(got) != rowsKey(want) {
									t.Fatalf("step %d, scan of %s at %d, quota %d, batch %d, cursors=%v:\ngot  %swant %s",
										step, where, at, quota, size, rd.cursors, rowsKey(got), rowsKey(want))
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestReaderFeedsBackFromCursorsOnly: a read the cursors fed reports its
// filter's selectivity to the catalog exactly once; a read a key fed — it
// keeps nearly every candidate, whatever the predicate keeps of the table —
// and a read without a filter report nothing.
func TestReaderFeedsBackFromCursorsOnly(t *testing.T) {
	h := bigTable(t)
	tab, _ := h.cat.Table("item")
	if err := h.cat.CreateIndex(&catalog.Index{Name: "idx_grp", Table: "item", Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	if err := h.store.CreateIndex("item", "idx_grp", []int{tab.ColumnIndex("grp")}, false); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql          string
		observations int64
		sel          float64
	}{
		{"SELECT v FROM item WHERE id = 123", 0, 0},
		{"SELECT v FROM item WHERE grp = 'g7' AND v > 600", 0, 0},
		{"SELECT v FROM item", 0, 0},
		{"SELECT v FROM item WHERE v >= 750", 1, 0.5},                          // 250 of 500
		{"SELECT v FROM item WHERE v >= 90 LIMIT 10", 2, 0.5 + 0.3*(0.25-0.5)}, // stopped at row 40: 10 of 40
	} {
		h.runWithStats(t, tc.sql)
		st := tab.Stats()
		if st.FilterObservations != tc.observations {
			t.Fatalf("%s: %d selectivity observations, want %d", tc.sql, st.FilterObservations, tc.observations)
		}
		if tc.observations > 0 && math.Abs(st.ObservedFilterSel-tc.sel) > 1e-9 {
			t.Errorf("%s: observed selectivity %v, want %v", tc.sql, st.ObservedFilterSel, tc.sel)
		}
	}
}
