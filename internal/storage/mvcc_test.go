package storage

// MVCC unit tests: snapshot stability under concurrent commits, version
// GC, index visibility across key-changing updates, cross-shard PK
// moves under a pinned snapshot, and clock restoration on recovery.

import (
	"fmt"
	"testing"

	"crowddb/internal/sqltypes"
)

// scanTitles reads the Talk titles visible at ts, in scan order.
func scanTitles(t *testing.T, s *Store, at int64) []string {
	t.Helper()
	_, rows, err := s.ScanRowsAt("Talk", at)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].Str()
	}
	return out
}

// TestSnapshotScanStableUnderWrites pins a snapshot, mutates the table
// in every way (insert, key-preserving update, delete), and checks the
// snapshot keeps reading the original image while the latest view moves.
func TestSnapshotScanStableUnderWrites(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	id1, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	id2, _ := insert(s, "Talk", talkRow("Qurk", 80))

	snap := s.AcquireSnapshot()
	defer snap.Release()

	if _, err := insert(s, "Talk", talkRow("Deco", 60)); err != nil {
		t.Fatal(err)
	}
	if err := update(s, "Talk", id1, talkRow("CrowdDB", 999)); err != nil {
		t.Fatal(err)
	}
	if err := del(s, "Talk", id2); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the pre-write world...
	got := scanTitles(t, s, snap.TS())
	if len(got) != 2 || got[0] != "CrowdDB" || got[1] != "Qurk" {
		t.Errorf("snapshot scan = %v, want [CrowdDB Qurk]", got)
	}
	if row, ok := s.GetAt("Talk", id1, snap.TS()); !ok || row[2].Int() != 100 {
		t.Errorf("snapshot GetAt = %v %v, want attendees 100", row, ok)
	}
	if _, ok := s.GetAt("Talk", id2, snap.TS()); !ok {
		t.Error("snapshot must still see the deleted row")
	}
	// ...while the latest view reflects every write.
	latest := scanTitles(t, s, s.VisibleTS())
	if len(latest) != 2 || latest[0] != "CrowdDB" || latest[1] != "Deco" {
		t.Errorf("latest scan = %v, want [CrowdDB Deco]", latest)
	}
	if row, ok := get(s, "Talk", id1); !ok || row[2].Int() != 999 {
		t.Errorf("latest Get = %v %v, want attendees 999", row, ok)
	}
	if _, ok := get(s, "Talk", id2); ok {
		t.Error("latest view must not see the deleted row")
	}
}

// TestSnapshotReleaseTriggersGC checks retained versions are reclaimed
// once no snapshot can see them, and never while one still can.
func TestSnapshotReleaseTriggersGC(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 1))

	snap := s.AcquireSnapshot()
	for i := 2; i <= 5; i++ {
		if err := update(s, "Talk", id, talkRow("CrowdDB", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if live, retained := s.VersionStats(); live != 1 || retained != 4 {
		t.Fatalf("before GC: live=%d retained=%d, want 1/4", live, retained)
	}
	// The pinned snapshot holds the horizon at its timestamp: only
	// versions that died at or before it may go.
	if n := s.GC(); n != 0 {
		t.Fatalf("GC under pinned snapshot reclaimed %d versions", n)
	}
	if row, ok := s.GetAt("Talk", id, snap.TS()); !ok || row[2].Int() != 1 {
		t.Fatalf("snapshot lost its version after GC: %v %v", row, ok)
	}
	snap.Release() // last snapshot out sweeps retained garbage
	if live, retained := s.VersionStats(); live != 1 || retained != 0 {
		t.Fatalf("after release: live=%d retained=%d, want 1/0", live, retained)
	}
	if row, ok := get(s, "Talk", id); !ok || row[2].Int() != 5 {
		t.Fatalf("live row after GC = %v %v", row, ok)
	}
}

// TestIndexVisibilityAcrossKeyChange: a key-changing update retains the
// old index entry for old snapshots; each reader resolves the key set
// of its own timestamp, and GC drops the stale entry afterwards.
func TestIndexVisibilityAcrossKeyChange(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	if err := s.CreateIndex("Talk", "idx_att", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	snap := s.AcquireSnapshot()
	if err := update(s, "Talk", id, talkRow("CrowdDB", 250)); err != nil {
		t.Fatal(err)
	}

	// Old snapshot: finds the row under the old key, not the new one.
	_, rows, err := s.LookupIndexRowsAt("Talk", "idx_att", snap.TS(), sqltypes.NewInt(100))
	if err != nil || len(rows) != 1 || rows[0][2].Int() != 100 {
		t.Errorf("old snapshot, old key: %v %v", rows, err)
	}
	_, rows, _ = s.LookupIndexRowsAt("Talk", "idx_att", snap.TS(), sqltypes.NewInt(250))
	if len(rows) != 0 {
		t.Errorf("old snapshot sees the new key: %v", rows)
	}
	// Latest: the reverse.
	at := s.VisibleTS()
	_, rows, _ = s.LookupIndexRowsAt("Talk", "idx_att", at, sqltypes.NewInt(100))
	if len(rows) != 0 {
		t.Errorf("latest sees the old key: %v", rows)
	}
	_, rows, _ = s.LookupIndexRowsAt("Talk", "idx_att", at, sqltypes.NewInt(250))
	if len(rows) != 1 || rows[0][2].Int() != 250 {
		t.Errorf("latest, new key: %v", rows)
	}

	snap.Release()
	// GC dropped the superseded version and its now-unreachable old key.
	if _, retained := s.VersionStats(); retained != 0 {
		t.Fatalf("retained=%d after release", retained)
	}
	rids, err := lookupIndex(s, "Talk", "idx_att", sqltypes.NewInt(100))
	if err != nil || len(rids) != 0 {
		t.Errorf("old index key survived GC: %v %v", rids, err)
	}
}

// TestPKChangeAcrossShardsUnderSnapshot moves rows to new primary keys
// (new shard homes) while a snapshot is pinned: the snapshot keeps the
// old keys, the latest view the new, and neither sees duplicates.
func TestPKChangeAcrossShardsUnderSnapshot(t *testing.T) {
	s, err := NewStoreOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	setupTalk(t, s)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := insert(s, "Talk", talkRow(fmt.Sprintf("t%02d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.AcquireSnapshot()
	// Rename every row: new PK = new hash home, so many rows change shard.
	ids, _, _ := scanRows(s, "Talk")
	for _, id := range ids {
		row, _ := get(s, "Talk", id)
		if err := update(s, "Talk", id, talkRow("moved-"+row[0].Str(), row[2].Int())); err != nil {
			t.Fatal(err)
		}
	}

	old := scanTitles(t, s, snap.TS())
	if len(old) != n {
		t.Fatalf("snapshot scan returned %d rows, want %d: %v", len(old), n, old)
	}
	for i, title := range old {
		if title != fmt.Sprintf("t%02d", i) {
			t.Fatalf("snapshot row %d = %q", i, title)
		}
	}
	latest := scanTitles(t, s, s.VisibleTS())
	if len(latest) != n {
		t.Fatalf("latest scan returned %d rows, want %d", len(latest), n)
	}
	seen := map[string]bool{}
	for _, title := range latest {
		if seen[title] || title[:6] != "moved-" {
			t.Fatalf("latest scan duplicate or unmoved title %q (%v)", title, latest)
		}
		seen[title] = true
	}
	snap.Release()
	if live, retained := s.VersionStats(); live != n || retained != 0 {
		t.Fatalf("after release: live=%d retained=%d, want %d/0", live, retained, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnStatementAtomicTimestamp: all rows of one Txn share a commit
// timestamp, and none become visible at earlier snapshots.
func TestTxnStatementAtomicTimestamp(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	before := s.VisibleTS()
	tx := s.Begin()
	for i := 0; i < 3; i++ {
		if _, err := tx.Insert("Talk", talkRow(fmt.Sprintf("t%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Not yet committed: the visible watermark cannot cover the txn.
	if got := scanTitles(t, s, s.VisibleTS()); len(got) != 0 {
		t.Fatalf("uncommitted rows visible: %v", got)
	}
	tx.Commit()
	if got := scanTitles(t, s, before); len(got) != 0 {
		t.Fatalf("pre-txn snapshot sees committed rows: %v", got)
	}
	if got := scanTitles(t, s, s.VisibleTS()); len(got) != 3 {
		t.Fatalf("committed rows = %v, want 3", got)
	}
	if tx.TS() != before+1 {
		t.Errorf("txn ts = %d, want %d", tx.TS(), before+1)
	}
}

// TestVisibleWatermarkWaitsForOldestTxn: with two concurrent txns the
// watermark only advances past the older one when it commits.
func TestVisibleWatermarkWaitsForOldestTxn(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	tx1 := s.Begin()
	tx2 := s.Begin()
	if _, err := tx2.Insert("Talk", talkRow("late", 1)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	// tx1 (older) is still open: visibility must hold below tx1's ts.
	if vis := s.VisibleTS(); vis >= tx1.TS() {
		t.Fatalf("visible=%d advanced past open txn ts=%d", vis, tx1.TS())
	}
	if got := scanTitles(t, s, s.VisibleTS()); len(got) != 0 {
		t.Fatalf("tx2's row visible before tx1 committed: %v", got)
	}
	tx1.Commit()
	if vis := s.VisibleTS(); vis != tx2.TS() {
		t.Fatalf("visible=%d after both commits, want %d", vis, tx2.TS())
	}
	if got := scanTitles(t, s, s.VisibleTS()); len(got) != 1 {
		t.Fatalf("committed row lost: %v", got)
	}
}

// TestRecoveryRestoresClock: after restart the commit clock resumes past
// every recovered LSN, version history does not survive (live rows
// only), and new snapshots read the recovered image.
func TestRecoveryRestoresClock(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupTalk(t, s)
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 1))
	if err := update(s, "Talk", id, talkRow("CrowdDB", 2)); err != nil {
		t.Fatal(err)
	}
	wantVis := s.VisibleTS()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.CreateTable("Talk", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if vis := s2.VisibleTS(); vis < wantVis {
		t.Fatalf("recovered visible=%d, want >= %d", vis, wantVis)
	}
	if live, retained := s2.VersionStats(); live != 1 || retained != 0 {
		t.Fatalf("recovered live=%d retained=%d, want 1/0", live, retained)
	}
	snap := s2.AcquireSnapshot()
	defer snap.Release()
	if row, ok := s2.GetAt("Talk", id, snap.TS()); !ok || row[2].Int() != 2 {
		t.Fatalf("recovered snapshot read = %v %v", row, ok)
	}
	// The clock keeps strictly increasing across the restart.
	id2, err := insert(s2, "Talk", talkRow("Qurk", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetAt("Talk", id2, snap.TS()); ok {
		t.Error("post-restart insert visible at pre-insert snapshot")
	}
	if row, ok := get(s2, "Talk", id2); !ok || row[0].Str() != "Qurk" {
		t.Fatalf("post-restart insert lost: %v %v", row, ok)
	}
}

// TestDropIndexKeysAllocs: reclaiming a chain whose dropped versions share
// the kept version's key allocates nothing per dropped version and leaves
// the key listed; a dropped version's key no kept version carries leaves
// the index, once.
func TestDropIndexKeysAllocs(t *testing.T) {
	row := func(title string, n int64) Row {
		return Row{sqltypes.NewString(title), sqltypes.NewInt(n)}
	}
	ix := &indexStore{cols: []int{0}, keys: index{}}
	const id = RowID(7)
	kept := row("talk-00042", 0)
	ix.keys.add(indexKeyFor(kept, ix.cols), id)
	ix.keys.add(indexKeyFor(kept, ix.cols), id+1)
	drop := make([]rowVersion, 50)
	for i := range drop {
		drop[i] = rowVersion{row: row("talk-00042", int64(i+1)), begin: int64(i), end: int64(i + 1)}
	}
	keep := []rowVersion{{row: kept, begin: 50, end: tsInfinity}}
	if n := testing.AllocsPerRun(100, func() { dropIndexKeys(ix, drop, keep, id) }); n != 0 {
		t.Errorf("dropping %d versions that share the kept key allocates %v times", len(drop), n)
	}
	if ids := ix.keys[indexKeyFor(kept, ix.cols)]; len(ids) != 2 {
		t.Fatalf("the kept key lists %v, want both rows", ids)
	}

	old := row("talk-00041", 0)
	ix.keys.add(indexKeyFor(old, ix.cols), id)
	dropOld := []rowVersion{{row: old, begin: 0, end: 1}, {row: old, begin: 1, end: 2}}
	dropIndexKeys(ix, dropOld, keep, id)
	if ids, ok := ix.keys[indexKeyFor(old, ix.cols)]; ok {
		t.Errorf("a key only dropped versions carried still lists %v", ids)
	}
	if n := testing.AllocsPerRun(100, func() { dropIndexKeys(ix, dropOld, keep, id) }); n != 0 {
		t.Errorf("dropping versions whose key already left allocates %v times", n)
	}
	if ids := ix.keys[indexKeyFor(kept, ix.cols)]; len(ids) != 2 {
		t.Errorf("the kept key lists %v, want both rows", ids)
	}
}
