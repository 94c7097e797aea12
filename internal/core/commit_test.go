package core

import (
	"context"
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
