package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crowddb/internal/sqltypes"
)

// Tests for the id-ordered heap and the shared-image contract: a seeded
// property test against an independent model, the GC worklist, and the
// allocation pins (a scan and a point read allocate no rows).

// modelVersion is one committed version as the test recorded it.
type modelVersion struct {
	begin, end int64
	row        Row
}

// heapModel is the property test's reference: every version each row id
// ever had, kept outside the store.
type heapModel map[RowID][]modelVersion

// scanAt is the naive reference scan: collect the ids visible at ts, sort
// them, look each one up.
func (m heapModel) scanAt(ts int64) ([]RowID, []Row) {
	visible := func(id RowID) (Row, bool) {
		for _, v := range m[id] {
			if v.begin <= ts && ts < v.end {
				return v.row, true
			}
		}
		return nil, false
	}
	var ids []RowID
	for id := range m {
		if _, ok := visible(id); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i], _ = visible(id)
	}
	return ids, rows
}

// end closes id's live version at ts.
func (m heapModel) end(id RowID, ts int64) {
	vs := m[id]
	vs[len(vs)-1].end = ts
}

func (m heapModel) liveIDs() []RowID {
	var ids []RowID
	for id, vs := range m {
		if vs[len(vs)-1].end == tsInfinity {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func sameScan(gotIDs []RowID, gotRows []Row, wantIDs []RowID, wantRows []Row) error {
	if !slices.Equal(gotIDs, wantIDs) {
		return fmt.Errorf("ids %v, want %v", gotIDs, wantIDs)
	}
	for i := range wantRows {
		if !slices.EqualFunc(gotRows[i], wantRows[i], sqltypes.Identical) {
			return fmt.Errorf("row %d = %v, want %v", wantIDs[i], gotRows[i], wantRows[i])
		}
	}
	return nil
}

// chunkedScan merges the shard cursors by id, pulling chunk rows at a time
// — the way the executor reads a table.
func chunkedScan(t *testing.T, s *Store, at int64, chunk int) ([]RowID, []Row) {
	t.Helper()
	scans, err := s.ScanShardsAt("t", at)
	if err != nil {
		t.Fatal(err)
	}
	type stream struct {
		ids  []RowID
		rows []Row
		done bool
	}
	streams := make([]stream, len(scans))
	var ids []RowID
	var rows []Row
	for {
		best := -1
		for i := range streams {
			st := &streams[i]
			if !st.done && len(st.ids) == 0 {
				st.ids, st.rows = scans[i].Next(nil, nil, chunk)
				st.done = len(st.ids) == 0
			}
			if !st.done && (best < 0 || st.ids[0] < streams[best].ids[0]) {
				best = i
			}
		}
		if best < 0 {
			return ids, rows
		}
		st := &streams[best]
		ids, rows = append(ids, st.ids[0]), append(rows, st.rows[0])
		st.ids, st.rows = st.ids[1:], st.rows[1:]
	}
}

// checkHeapInvariants verifies what the heap's own bookkeeping promises:
// ascending ids, the live and tombstone counts, and a stale list holding
// exactly the chains with history.
func checkHeapInvariants(s *Store) error {
	for _, sh := range s.tableMap()["t"].shards {
		h := sh.heap
		live, dead := 0, 0
		var stale []RowID
		for i, c := range h.chains {
			if i > 0 && h.chains[i-1].id >= c.id {
				return fmt.Errorf("chain ids out of order at %d: %d then %d", i, h.chains[i-1].id, c.id)
			}
			_, isLive := c.live()
			switch {
			case len(c.versions) == 0:
				dead++
			case isLive:
				live++
			}
			if len(c.versions) > 1 || (len(c.versions) == 1 && !isLive) {
				stale = append(stale, c.id)
			}
		}
		got := slices.Clone(h.stale)
		slices.Sort(got)
		if live != h.live || dead != h.dead || !slices.Equal(got, stale) {
			return fmt.Errorf("live %d (counted %d), dead %d (counted %d), stale %v (counted %v)",
				h.live, live, h.dead, dead, got, stale)
		}
	}
	return nil
}

func TestHeapScanMatchesNaiveReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			dir := t.TempDir()
			open := func() *Store {
				s, err := NewStoreOptions(dir, Options{Shards: shards, Sync: SyncOff})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.CreateTable("t", []int{0}); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			defer func() { s.Close() }()

			model := heapModel{}
			var snaps []*Snapshot
			nextKey := 0
			freshRow := func() Row {
				nextKey++
				return Row{sqltypes.NewString(fmt.Sprintf("k%04d", nextKey)), sqltypes.NewInt(rng.Int63n(1000))}
			}
			pickLive := func() (RowID, bool) {
				ids := model.liveIDs()
				if len(ids) == 0 {
					return 0, false
				}
				return ids[rng.Intn(len(ids))], true
			}
			liveRow := func(id RowID) Row { vs := model[id]; return vs[len(vs)-1].row }

			for step := 0; step < 400; step++ {
				op := rng.Intn(20)
				switch {
				case op < 7 || len(model) == 0: // insert
					row := freshRow()
					tx := s.Begin()
					id, err := tx.Insert("t", row)
					tx.Commit()
					if err != nil {
						t.Fatalf("step %d: insert: %v", step, err)
					}
					model[id] = append(model[id], modelVersion{tx.TS(), tsInfinity, row.Clone()})
				case op < 13: // update; every third one changes the key (and, sharded, the row's home)
					id, ok := pickLive()
					if !ok {
						continue
					}
					row := Row{liveRow(id)[0], sqltypes.NewInt(rng.Int63n(1000))}
					if op%3 == 0 {
						row[0] = freshRow()[0]
					}
					tx := s.Begin()
					_, _, err := tx.Update("t", id, setRow(row))
					tx.Commit()
					if err != nil {
						t.Fatalf("step %d: update %d: %v", step, id, err)
					}
					model.end(id, tx.TS())
					model[id] = append(model[id], modelVersion{tx.TS(), tsInfinity, row.Clone()})
				case op < 16: // delete
					id, ok := pickLive()
					if !ok {
						continue
					}
					tx := s.Begin()
					_, err := tx.Delete("t", id)
					tx.Commit()
					if err != nil {
						t.Fatalf("step %d: delete %d: %v", step, id, err)
					}
					model.end(id, tx.TS())
				case op == 16: // pin a snapshot
					snaps = append(snaps, s.AcquireSnapshot())
				case op == 17 && len(snaps) > 0: // release one (the last one out sweeps)
					i := rng.Intn(len(snaps))
					snaps[i].Release()
					snaps = slices.Delete(snaps, i, i+1)
				case op == 18:
					s.GC()
				case op == 19 && step%5 == 0: // checkpoint, then restart from disk
					for _, sn := range snaps {
						sn.Release()
					}
					snaps = nil
					if rng.Intn(2) == 0 {
						if err := s.Checkpoint(); err != nil {
							t.Fatalf("step %d: checkpoint: %v", step, err)
						}
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = open()
					if err := s.Recover(); err != nil {
						t.Fatalf("step %d: recover: %v", step, err)
					}
					// History does not survive a restart.
					for id, vs := range model {
						if last := vs[len(vs)-1]; last.end == tsInfinity {
							model[id] = []modelVersion{last}
						} else {
							delete(model, id)
						}
					}
				}

				if err := checkHeapInvariants(s); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if n, _ := s.RowCount("t"); n != len(model.liveIDs()) {
					t.Fatalf("step %d: RowCount %d, want %d", step, n, len(model.liveIDs()))
				}
				stamps := []int64{s.VisibleTS()}
				for _, sn := range snaps {
					stamps = append(stamps, sn.TS())
				}
				for _, at := range stamps {
					wantIDs, wantRows := model.scanAt(at)
					gotIDs, gotRows, err := s.ScanRowsAt("t", at)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameScan(gotIDs, gotRows, wantIDs, wantRows); err != nil {
						t.Fatalf("step %d: ScanRowsAt(%d): %v", step, at, err)
					}
					for _, chunk := range []int{1 + step%9, 64} {
						gotIDs, gotRows := chunkedScan(t, s, at, chunk)
						if err := sameScan(gotIDs, gotRows, wantIDs, wantRows); err != nil {
							t.Fatalf("step %d: cursors at %d, chunk %d: %v", step, at, chunk, err)
						}
					}
				}
			}
		})
	}
}

// TestHeapCursorResumesAcrossWrites: a cursor mid-walk keeps returning its
// snapshot's rows, in order, while writers append, update and delete what
// it has yet to reach, and a GC sweep compacts the slice under it.
func TestHeapCursorResumesAcrossWrites(t *testing.T) {
	s, err := NewStoreOptions("", Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	var all, want []RowID
	for i := 0; i < rows; i++ {
		id, err := insert(s, "t", kvRow(fmt.Sprintf("k%04d", i), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, id)
	}
	// Garbage the walk's snapshot cannot see but an older one still pins:
	// releasing that one mid-walk buries half the chains at once.
	old := s.AcquireSnapshot()
	for i, id := range all {
		if i%2 == 1 {
			if err := del(s, "t", id); err != nil {
				t.Fatal(err)
			}
		} else {
			want = append(want, id)
		}
	}
	snap := s.AcquireSnapshot()
	defer snap.Release()
	scans, _ := s.ScanShardsAt("t", snap.TS())
	h := s.tableMap()["t"].shards[0].heap
	var got []RowID
	for round := 0; ; round++ {
		ids, _ := scans[0].Next(nil, nil, 16)
		if len(ids) == 0 {
			break
		}
		got = append(got, ids...)
		if round == 0 {
			old.Release()
			s.GC()
			if len(h.chains) >= rows {
				t.Fatalf("the sweep did not compact: %d chains", len(h.chains))
			}
		}
		// Ahead of the cursor: delete one row, update another; and append one.
		if err := del(s, "t", all[rows-2-2*round]); err != nil {
			t.Fatal(err)
		}
		if err := update(s, "t", all[rows/2+2*round], kvRow(fmt.Sprintf("k%04d", rows/2+2*round), -1)); err != nil {
			t.Fatal(err)
		}
		if _, err := insert(s, "t", kvRow(fmt.Sprintf("new%04d", round), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cursor saw %d rows, want the snapshot's %d: %v", len(got), len(want), got)
	}
}

// TestHeapGCVisitsOnlyStaleChains: a sweep after one UPDATE on a 10 000-row
// table looks at one chain, not 10 000.
func TestHeapGCVisitsOnlyStaleChains(t *testing.T) {
	s, err := NewStoreOptions("", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	const rows = 10000
	var ids []RowID
	for i := 0; i < rows; i++ {
		id, err := insert(s, "t", kvRow(fmt.Sprintf("k%05d", i), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ts := s.tableMap()["t"]
	if reclaimed, visited := ts.gc(s.gcHorizon()); reclaimed != 0 || visited != 0 {
		t.Fatalf("sweep of a table without history: reclaimed %d, visited %d chains", reclaimed, visited)
	}
	snap := s.AcquireSnapshot() // holds the superseded version past the update's own sweep
	if err := update(s, "t", ids[rows/2], kvRow(fmt.Sprintf("k%05d", rows/2), -1)); err != nil {
		t.Fatal(err)
	}
	if reclaimed, visited := ts.gc(s.gcHorizon()); reclaimed != 0 || visited != 1 {
		t.Fatalf("sweep under a pinned snapshot: reclaimed %d, visited %d chains, want 0 and 1", reclaimed, visited)
	}
	snap.Release() // the last snapshot out sweeps
	if _, retained := s.VersionStats(); retained != 0 {
		t.Fatalf("%d versions retained after the last snapshot released", retained)
	}
	if reclaimed, visited := ts.gc(s.gcHorizon()); reclaimed != 0 || visited != 0 {
		t.Fatalf("sweep after the history was reclaimed: reclaimed %d, visited %d chains", reclaimed, visited)
	}
}

// TestHeapCompactsTombstones: deleting most of a table and sweeping leaves
// no more than a quarter of the slice as tombstones.
func TestHeapCompactsTombstones(t *testing.T) {
	s, err := NewStoreOptions("", Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	for i := 0; i < rows; i++ {
		id, err := insert(s, "t", kvRow(fmt.Sprintf("k%04d", i), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 != 0 {
			if err := del(s, "t", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.GC()
	h := s.tableMap()["t"].shards[0].heap
	if h.dead*4 > len(h.chains) || len(h.chains) > rows/10*2 {
		t.Fatalf("%d chains (%d tombstones) for %d live rows", len(h.chains), h.dead, h.live)
	}
	if err := checkHeapInvariants(s); err != nil {
		t.Fatal(err)
	}
	ids, _, _ := scanRows(s, "t")
	if len(ids) != rows/10 || !slices.IsSorted(ids) {
		t.Fatalf("scan after compaction: %d ids, sorted %v", len(ids), slices.IsSorted(ids))
	}
}

// TestScanAllocatesNoRows pins the shared-image contract's payoff: a scan's
// allocations do not grow with the table (only its result slices do), and a
// point read does not allocate a row.
func TestScanAllocatesNoRows(t *testing.T) {
	scanAllocs := func(rows int) float64 {
		s, err := NewStoreOptions("", Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTable("t", []int{0}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := insert(s, "t", kvRow(fmt.Sprintf("k%05d", i), int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		at := s.VisibleTS()
		return testing.AllocsPerRun(20, func() {
			if ids, _, _ := s.ScanRowsAt("t", at); len(ids) != rows {
				t.Fatalf("scan: %d rows", len(ids))
			}
		})
	}
	small, large := scanAllocs(1000), scanAllocs(10000)
	if large > small+2 {
		t.Errorf("ScanRowsAt allocates per row: %.0f allocations over 1 000 rows, %.0f over 10 000", small, large)
	}

	s, err := NewStoreOptions("", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("wide", []int{0}); err != nil {
		t.Fatal(err)
	}
	wide := make(Row, 64)
	for i := range wide {
		wide[i] = sqltypes.NewInt(int64(i))
	}
	wide[0] = sqltypes.NewString("the-key")
	if _, err := insert(s, "wide", wide); err != nil {
		t.Fatal(err)
	}
	at, key := s.VisibleTS(), sqltypes.NewString("the-key")
	var first, second Row
	allocs := testing.AllocsPerRun(100, func() {
		_, first, _ = s.LookupPKRowAt("wide", at, key)
		_, second, _ = s.LookupPKRowAt("wide", at, key)
	})
	if len(first) != len(wide) || &first[0] != &second[0] {
		t.Error("LookupPKRowAt copied the row: two reads must return the one stored image")
	}
	// A lookup allocates nothing (TestLookupPKRowAtAllocatesNothing), so a
	// copy of the row would show here.
	if allocs > 0 {
		t.Errorf("LookupPKRowAt: %.0f allocations for two lookups, want 0", allocs)
	}
}
