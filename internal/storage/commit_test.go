package storage

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"crowddb/internal/faultinject"
	"crowddb/internal/obs"
	"crowddb/internal/sqltypes"
)

// crashNow puts the fault-injection registry in the killed state: from
// here on nothing more becomes durable, and a log closed while killed
// keeps only its synced prefix. Disarm afterwards.
func crashNow(t *testing.T) {
	t.Helper()
	faultinject.SetHandler(func(string) {})
	if err := faultinject.Arm("test.crash"); err != nil {
		t.Fatal(err)
	}
	faultinject.Hit("test.crash")
}

// keyOnShard returns the first key prefix-i whose primary key hashes to
// a shard that want accepts.
func keyOnShard(ts *tableStore, prefix string, want func(shard int) bool) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if want(ts.shardOfKey(ts.pkKey(kvRow(k, 0)))) {
			return k
		}
	}
}

// TestCrossShardMoveNeverLosesRow: a primary-key change that moves a row
// across shards appends an upsert to the new shard's WAL and a delete to
// the old one's. Any writer's group commit on the old shard syncs
// everything buffered there, the move's delete included — so the upsert
// must already be durable by then. Here a second writer commits on the
// old shard between the move and its commit, the process dies before
// the move commits, and every log is cut to its synced prefix: the row
// must be present exactly once, under its new key.
func TestCrossShardMoveNeverLosesRow(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("t", []int{0})
	ts, _ := s.table("t")
	pkOld := "origin"
	oldShard := ts.shardOfKey(ts.pkKey(kvRow(pkOld, 0)))
	pkNew := keyOnShard(ts, "moved", func(sh int) bool { return sh != oldShard })
	pkOther := keyOnShard(ts, "other", func(sh int) bool { return sh == oldShard })
	id, err := s.Insert("t", kvRow(pkOld, 1))
	if err != nil {
		t.Fatal(err)
	}

	move := s.Begin()
	if err := move.Update("t", id, kvRow(pkNew, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("t", kvRow(pkOther, 3)); err != nil { // commits the old shard
		t.Fatal(err)
	}
	crashNow(t) // before the move commits
	s.Close()
	faultinject.Disarm()

	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.CreateTable("t", []int{0})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	_, gotOld := lookupPK(s2, "t", sqltypes.NewString(pkOld))
	rid, gotNew := lookupPK(s2, "t", sqltypes.NewString(pkNew))
	switch {
	case !gotOld && !gotNew:
		t.Fatal("the moved row has no copy: its delete became durable without its upsert")
	case gotOld:
		t.Fatalf("the moved row is still under its old key (new key too: %v)", gotNew)
	case rid != id:
		t.Fatalf("moved row recovered as id %d, want %d", rid, id)
	}
	if n, _ := s2.RowCount("t"); n != 2 {
		t.Errorf("recovered %d rows, want the moved row and the second writer's", n)
	}
}

// TestTxnSyncsOncePerShardAtCommit: a transaction's records are appended
// without waiting and made durable at Commit — one fsync per shard it
// wrote, however many rows — and only then become visible.
func TestTxnSyncsOncePerShardAtCommit(t *testing.T) {
	s, err := NewStoreOptions(t.TempDir(), Options{Shards: 2, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	fsyncs := func() (n int64) {
		for i := 0; i < s.NumShards(); i++ {
			n += reg.Histogram("crowddb_wal_fsync_seconds", "", nil, "shard", fmt.Sprint(i)).Count()
		}
		return n
	}
	s.CreateTable("t", []int{0})
	tx := s.Begin()
	for i := 0; i < 200; i++ {
		if _, err := tx.Insert("t", kvRow(fmt.Sprintf("k%03d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := fsyncs(); n != 0 {
		t.Fatalf("%d fsyncs before Commit, want 0", n)
	}
	if n, _ := s.RowCount("t"); n != 200 {
		t.Fatalf("applied %d rows, want 200", n)
	}
	if _, rows, _ := scanRows(s, "t"); len(rows) != 0 {
		t.Fatalf("%d rows visible before Commit", len(rows))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := fsyncs(); n != 2 {
		t.Errorf("200 rows over two shards cost %d fsyncs at Commit, want 2", n)
	}
	if _, rows, _ := scanRows(s, "t"); len(rows) != 200 {
		t.Errorf("%d rows visible after Commit, want 200", len(rows))
	}
}

// TestStoreWritesReturnCommitError: over a poisoned WAL (its file
// closed), the single-statement writes report the sync failure instead
// of success.
func TestStoreWritesReturnCommitError(t *testing.T) {
	for _, op := range []string{"insert", "update", "delete"} {
		t.Run(op, func(t *testing.T) {
			s, err := NewStoreOptions(t.TempDir(), Options{Shards: 1, Sync: SyncGroup})
			if err != nil {
				t.Fatal(err)
			}
			s.CreateTable("t", []int{0})
			id, err := s.Insert("t", kvRow("a", 1))
			if err != nil {
				t.Fatal(err)
			}
			s.Close() // the next sync writes to a closed file
			switch op {
			case "insert":
				var got RowID
				got, err = s.Insert("t", kvRow("b", 2))
				if got != 0 {
					t.Errorf("failed insert returned id %d", got)
				}
			case "update":
				err = s.Update("t", id, kvRow("a", 2))
			case "delete":
				err = s.Delete("t", id)
			}
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("%s over a closed WAL returned %v, want the I/O error", op, err)
			}
		})
	}
}

// TestRecordLogBufferSync: buffered records are durable once a Sync or a
// later Append returns, and a log closed after a kill keeps exactly its
// synced prefix — even when the writer's buffer spilled unsynced bytes
// into the file.
func TestRecordLogBufferSync(t *testing.T) {
	defer faultinject.Disarm()
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := OpenRecordLog(path, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fsync := reg.Histogram("fsync_seconds", "", FsyncBuckets)
	l.SetMetrics(fsync, reg.Histogram("batch_records", "", BatchBuckets))
	for i := 0; i < 3; i++ {
		if err := l.Buffer(rlRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Buffer(rlRec{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rlRec{N: 4}); err != nil { // covers N=3 too
		t.Fatal(err)
	}
	if n := fsync.Count(); n != 2 {
		t.Fatalf("%d fsyncs for one Sync and one Append, want 2", n)
	}
	// Unsynced from here: a small record, then one large enough to spill
	// the write buffer into the file.
	if err := l.Buffer(rlRec{N: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Buffer(rlRec{N: 6, S: strings.Repeat("x", 8<<10)}); err != nil {
		t.Fatal(err)
	}
	crashNow(t)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, path)
	if len(recs) != 5 || recs[4].N != 4 {
		t.Fatalf("a killed log replayed %v, want exactly the synced records 0..4", recs)
	}
}

// TestOpenTxnsShareOneFsync: two transactions writing one shard at once
// share a sync — the first commit's fsync covers the second's record, so
// the second commit waits for nothing and the batch holds both rows
// (group_commit_rows 2, not 1).
func TestOpenTxnsShareOneFsync(t *testing.T) {
	s, err := NewStoreOptions(t.TempDir(), Options{Shards: 1, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	s.CreateTable("t", []int{0})
	a, b := s.Begin(), s.Begin()
	if _, err := a.Insert("t", kvRow("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert("t", kvRow("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	fsync := reg.Histogram("crowddb_wal_fsync_seconds", "", nil, "shard", "0")
	batch := reg.Histogram("crowddb_wal_fsync_batch_rows", "", nil, "shard", "0")
	if fsync.Count() != 1 || batch.Sum() != 2 {
		t.Errorf("two open transactions: %d fsyncs of %v rows, want 1 of 2", fsync.Count(), batch.Sum())
	}
}
