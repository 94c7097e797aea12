package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/parser"
	"crowddb/internal/storage"
)

// durableKV opens an engine on a fresh data dir (group-commit WAL, one
// shard) holding kv(id, v) with rows 1 and 2.
func durableKV(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(Config{DataDir: t.TempDir(), Shards: 1, WALSync: storage.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v STRING)")
	mustExec(t, eng, "INSERT INTO kv VALUES (1, 'a'), (2, 'b')")
	return eng
}

// TestDMLReportsWALSyncFailure: a statement's WAL records are synced at
// its commit, so a sync that fails there is the statement's error. Over
// a poisoned WAL (its file closed) INSERT, UPDATE and DELETE report the
// I/O error instead of an affected count.
func TestDMLReportsWALSyncFailure(t *testing.T) {
	for _, sql := range []string{
		"INSERT INTO kv VALUES (3, 'c')",
		"UPDATE kv SET v = 'z' WHERE id = 1",
		"DELETE FROM kv WHERE id = 2",
	} {
		t.Run(strings.Fields(sql)[0], func(t *testing.T) {
			eng := durableKV(t)
			eng.store.Close() // the statement's commit syncs to a closed file
			stmt, err := parser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.ExecStmtCtx(context.Background(), stmt, DefaultExecOpts())
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("%s over a closed WAL returned %v, want the I/O error", sql, err)
			}
			if res != nil {
				t.Errorf("a statement whose commit failed reported %d affected", res.Affected)
			}
		})
	}
}

// TestPersistCompareCacheOneCommitPerFlush: one flush writes its answers
// in one transaction — one WAL fsync per shard it touches, not one per
// answer — and every answer reaches the system table.
func TestPersistCompareCacheOneCommitPerFlush(t *testing.T) {
	eng := durableKV(t)
	fsync := eng.Metrics().Histogram("crowddb_wal_fsync_seconds", "", nil, "shard", "0")
	before := fsync.Count()
	for i := 0; i < 20; i++ {
		eng.cache.PutEqual("q", fmt.Sprintf("left-%d", i), "x", i%2 == 0)
	}
	n, err := eng.persistCompareCache()
	if err != nil || n != 20 {
		t.Fatalf("persisted %d answers (err %v), want 20", n, err)
	}
	if got := fsync.Count() - before; got != 1 {
		t.Errorf("a flush of 20 answers cost %d WAL fsyncs, want 1", got)
	}
	for i := 0; i < 20; i++ {
		if _, ok := storedCompareAnswer(eng, "equal", "q", fmt.Sprintf("left-%d", i), "x"); !ok {
			t.Errorf("answer %d not in the system table", i)
		}
	}
}

// TestPersistCompareCacheKeepsBatchWhenCommitFails: if a flush's commit
// fails, none of its answers is durable, so none is reported persisted
// (and charged): the whole batch stays pending — and so does everything
// later passes see, since the rows the failed pass applied in memory
// would otherwise look persisted to them.
func TestPersistCompareCacheKeepsBatchWhenCommitFails(t *testing.T) {
	eng := durableKV(t)
	for _, l := range []string{"a", "b", "c"} {
		eng.cache.PutEqual("q", l, "x", true)
	}
	eng.store.Close() // the flush's commit syncs to a closed file
	n, err := eng.persistCompareCache()
	if err == nil || n != 0 {
		t.Fatalf("flush over a closed WAL: persisted %d, err %v; want 0 and the I/O error", n, err)
	}
	eng.cache.PutEqual("q", "d", "x", false)
	n, err = eng.persistCompareCache()
	if err == nil || n != 0 {
		t.Fatalf("the pass after a failed commit: persisted %d, err %v; want 0 and the error", n, err)
	}
	eng.persistMu.Lock()
	pending := len(eng.pendingPersist)
	eng.persistMu.Unlock()
	if pending != 4 {
		t.Errorf("pending after two failed passes = %d, want all 4 answers", pending)
	}
	if same, ok := eng.cache.GetEqual("q", "d", "x"); !ok || same {
		t.Errorf("a pending answer must still be served by the memo: %v %v", same, ok)
	}
}
