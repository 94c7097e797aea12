package core

// UPDATE and DELETE through the access path a SELECT would take: a WHERE
// that pins the primary key or an indexed column fetches its candidates
// with a lookup, not a scan of the table — same rows affected either way.

import (
	"fmt"
	"testing"

	"crowddb/internal/storage"
)

// newKVEngine builds a crowd-free engine over kv(id PK, grp indexed, n,
// note CROWD) with rows 0..n-1: grp = id % 4, n = id, note = CNULL.
func newKVEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	eng, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	for _, sql := range []string{
		"CREATE TABLE kv (id INTEGER PRIMARY KEY, grp STRING, n INTEGER, note CROWD STRING)",
		"CREATE INDEX kv_grp ON kv (grp)",
	} {
		if _, err := eng.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < rows; lo += 500 {
		sql := "INSERT INTO kv (id, grp, n) VALUES "
		for i := lo; i < min(lo+500, rows); i++ {
			if i > lo {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, 'g%d', %d)", i, i%4, i)
		}
		if _, err := eng.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// kvState reads the table back as id -> "grp/n/note".
func kvState(t *testing.T, eng *Engine) map[int64]string {
	t.Helper()
	res := mustExec(t, eng, "SELECT id, grp, n, note FROM kv")
	state := make(map[int64]string, len(res.Rows))
	for _, r := range res.Rows {
		state[r[0].Int()] = r[1].String() + "/" + r[2].String() + "/" + r[3].String()
	}
	return state
}

func TestUpdateDeleteByKey(t *testing.T) {
	const rows = 40
	for _, tc := range []struct {
		name, sql string
		affected  int
		// want maps the ids the statement changes to their new state
		// ("" = deleted); every other row must be untouched.
		want map[int64]string
		// scans: no key is pinned, so the shard cursors feed the read.
		scans bool
	}{
		{"update by primary key", "UPDATE kv SET n = -1 WHERE id = 7", 1, map[int64]string{7: "g3/-1/CNULL"}, false},
		{"update, literal needs coercion", "UPDATE kv SET n = -1 WHERE id = '7'", 1, map[int64]string{7: "g3/-1/CNULL"}, false},
		{"update, literal on the left", "UPDATE kv SET n = -1 WHERE 7 = id", 1, map[int64]string{7: "g3/-1/CNULL"}, false},
		{"update, residual rejects", "UPDATE kv SET n = -1 WHERE id = 7 AND n > 7", 0, nil, false},
		{"update, residual accepts", "UPDATE kv SET n = -1 WHERE id = 7 AND n > 5", 1, map[int64]string{7: "g3/-1/CNULL"}, false},
		{"update, key matches nothing", "UPDATE kv SET n = -1 WHERE id = 4040", 0, nil, false},
		{"update, uncoercible key", "UPDATE kv SET n = -1 WHERE id = 'seven'", 0, nil, false},
		{"update by indexed column", "UPDATE kv SET n = 0 WHERE grp = 'g1' AND id < 8", 2, map[int64]string{1: "g1/0/CNULL", 5: "g1/0/CNULL"}, false},
		{"update fills a crowd column", "UPDATE kv SET note = 'x' WHERE id = 3", 1, map[int64]string{3: "g3/3/x"}, false},
		{"update changes the key itself", "UPDATE kv SET id = 1000 WHERE id = 9", 1, map[int64]string{9: "", 1000: "g1/9/CNULL"}, false},
		{"update without a key still scans", "UPDATE kv SET n = -1 WHERE n >= 38", 2, map[int64]string{38: "g2/-1/CNULL", 39: "g3/-1/CNULL"}, true},
		{"update under OR is not keyed", "UPDATE kv SET n = -1 WHERE id = 1 OR id = 2", 2, map[int64]string{1: "g1/-1/CNULL", 2: "g2/-1/CNULL"}, true},
		{"delete by primary key", "DELETE FROM kv WHERE id = 7", 1, map[int64]string{7: ""}, false},
		{"delete, literal needs coercion", "DELETE FROM kv WHERE id = '7'", 1, map[int64]string{7: ""}, false},
		{"delete, residual rejects", "DELETE FROM kv WHERE id = 7 AND n > 7", 0, nil, false},
		{"delete, key matches nothing", "DELETE FROM kv WHERE id = 4040", 0, nil, false},
		{"delete by indexed column", "DELETE FROM kv WHERE grp = 'g2' AND n < 10", 2, map[int64]string{2: "", 6: ""}, false},
		{"delete without a key still scans", "DELETE FROM kv WHERE n < 2", 2, map[int64]string{0: "", 1: ""}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newKVEngine(t, rows)
			before := kvState(t, eng)
			if res := mustExec(t, eng, tc.sql); res.Affected != tc.affected {
				t.Fatalf("affected %d, want %d", res.Affected, tc.affected)
			}
			want := before
			for id, state := range tc.want {
				if state == "" {
					delete(want, id)
				} else {
					want[id] = state
				}
			}
			after := kvState(t, eng)
			if fmt.Sprint(after) != fmt.Sprint(want) {
				t.Fatalf("table after %q:\ngot  %v\nwant %v", tc.sql, after, want)
			}
			// A keyed statement examined its key's rows, not the table: only
			// a read the cursors fed reports its filter's selectivity.
			tab, _ := eng.cat.Table("kv")
			if got := tab.Stats().FilterObservations > 0; got != tc.scans {
				t.Errorf("the statement scanned the table: %v, want %v", got, tc.scans)
			}
			// The statistics the DML maintains stay right.
			cnulls := 0
			for _, state := range after {
				if len(state) > 6 && state[len(state)-6:] == "/CNULL" {
					cnulls++
				}
			}
			if got := tab.RowCount(); got != int64(len(after)) {
				t.Errorf("catalog RowCount %d, table holds %d", got, len(after))
			}
			if got := tab.Stats().CNullCount["note"]; got != int64(cnulls) {
				t.Errorf("CNULL count for note %d, table holds %d", got, cnulls)
			}
			if n, _ := eng.store.RowCount("kv"); n != len(after) {
				t.Errorf("store RowCount %d, table holds %d", n, len(after))
			}
		})
	}
}

// TestAliasDMLAndResultsLeaveSnapshotIntact is the engine-level half of
// the read-only row contract (the operator-level half, with the CrowdProbe
// write-back, is exec's TestAliasStatementsLeaveStoredImagesIntact): keyed
// and scanning UPDATEs and DELETEs, and a caller scribbling on every row
// of every Result, change nothing a pinned snapshot reads.
func TestAliasDMLAndResultsLeaveSnapshotIntact(t *testing.T) {
	eng := newKVEngine(t, 40)
	snap := eng.store.AcquireSnapshot()
	defer snap.Release()
	_, images, err := eng.store.ScanRowsAt("kv", snap.TS())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(images))
	for i, r := range images {
		want[i] = fmt.Sprint(storage.Row(r.Clone()))
	}
	for _, sql := range []string{
		"SELECT * FROM kv",
		"SELECT * FROM kv WHERE id = 5",
		"SELECT * FROM kv WHERE grp = 'g2' ORDER BY n DESC",
		"SELECT grp, COUNT(*), MAX(n), MIN(note) FROM kv GROUP BY grp",
		"UPDATE kv SET n = n + 100 WHERE id = 5",
		"UPDATE kv SET n = n + 100, note = 'seen' WHERE grp = 'g1'",
		"UPDATE kv SET n = 0 WHERE n > 30",
		"DELETE FROM kv WHERE id = 6",
		"DELETE FROM kv WHERE grp = 'g3' AND n < 20",
		"DELETE FROM kv WHERE n = 0",
		"SELECT * FROM kv",
	} {
		res := mustExec(t, eng, sql)
		for _, r := range res.Rows {
			for i := range r {
				r[i] = r[0] // whatever: the caller owns what it was handed
			}
		}
	}
	_, again, err := eng.store.ScanRowsAt("kv", snap.TS())
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]storage.Row{"rescan": again, "held images": images} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range got {
			if fmt.Sprint(got[i]) != want[i] {
				t.Errorf("%s: row %d is now %v, the snapshot read %s", name, i, got[i], want[i])
			}
		}
	}
	// And the hand-maintained statistics followed every statement.
	res := mustExec(t, eng, "SELECT COUNT(*), COUNT(note) FROM kv")
	tab, _ := eng.cat.Table("kv")
	if got := res.Rows[0][0].Int(); got != tab.RowCount() {
		t.Errorf("COUNT(*) %d, catalog RowCount %d", got, tab.RowCount())
	}
	if got, cn := res.Rows[0][0].Int()-res.Rows[0][1].Int(), tab.Stats().CNullCount["note"]; got != cn {
		t.Errorf("%d CNULL notes in the table, catalog counts %d", got, cn)
	}
}

// BenchmarkEngineUpdateByPK: an UPDATE that pins the primary key costs the
// same on a 1 000-row table as on a 10 000-row one.
func BenchmarkEngineUpdateByPK(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			eng := newKVEngine(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Exec(fmt.Sprintf("UPDATE kv SET n = %d WHERE id = %d", i, i%rows))
				if err != nil || res.Affected != 1 {
					b.Fatalf("affected %v, %v", res, err)
				}
			}
		})
	}
}

// TestUpdateMatchesWhatSelectCounts: an UPDATE that changes nothing
// (SET n = n) affects exactly the rows SELECT COUNT(*) counts under the
// same WHERE — DML and SELECT read through one access path — for WHEREs
// the primary key or the index pins, ones they pin to a literal of
// another type (the STRING column s holds '1', '01', 'a', '1.0' and ' 1'),
// and ones nothing pins; with the index on s and without it.
func TestUpdateMatchesWhatSelectCounts(t *testing.T) {
	wheres := []string{
		"s = 1", "1 = s", "s IN (1, 2)", "s = '1'", "s = 1.0", "s = 'a' OR n = 2",
		"s = 1 AND n > 0", "s IS NULL", "s IS NOT NULL AND n < 3", "s BETWEEN '0' AND '1'",
		"s LIKE '%1'", "s <> 1", "NOT (s = 1)", "s = NULL",
		"id = 3", "id = '3'", "3 = id", "id = 3.0", "id IN (1, 2, 9)", "id = 3 AND s = 'a'",
		"id > 2", "n = 2", "n = '2'", "TRUE", "FALSE", "id = 40",
	}
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			eng, err := Open(Config{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			mustExec(t, eng, "CREATE TABLE t (id INTEGER PRIMARY KEY, s STRING, n INTEGER)")
			if indexed {
				mustExec(t, eng, "CREATE INDEX t_s ON t (s)")
			}
			mustExec(t, eng, "INSERT INTO t VALUES (1, '1', 1), (2, '01', 2), (3, 'a', 3), (4, '1.0', 1), (5, ' 1', 2), (6, NULL, 3), (7, '2', 2)")
			for _, w := range wheres {
				count := mustExec(t, eng, "SELECT COUNT(*) FROM t WHERE "+w).Rows[0][0].Int()
				if got := mustExec(t, eng, "UPDATE t SET n = n WHERE "+w).Affected; int64(got) != count {
					t.Errorf("WHERE %s: UPDATE affected %d rows, SELECT COUNT(*) counts %d", w, got, count)
				}
			}
		})
	}
}
