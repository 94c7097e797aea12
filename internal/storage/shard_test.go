package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/sqltypes"
)

func shardedStore(t *testing.T, shards int) *Store {
	t.Helper()
	s, err := NewStoreOptions("", Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func kvRow(pk string, v int64) Row {
	return Row{sqltypes.NewString(pk), sqltypes.NewInt(v)}
}

// TestScanOrderAcrossShards pins the determinism contract: ascending row
// IDs are global insertion order, whatever the shard count, so the merged
// scan is byte-identical to an unsharded store's.
func TestScanOrderAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		s := shardedStore(t, shards)
		if err := s.CreateTable("t", []int{0}); err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := 0; i < 100; i++ {
			pk := fmt.Sprintf("k%03d", i)
			if _, err := insert(s, "t", kvRow(pk, int64(i))); err != nil {
				t.Fatal(err)
			}
			want = append(want, pk)
		}
		ids, rows, err := scanRows(s, "t")
		if err != nil || len(rows) != 100 {
			t.Fatalf("shards=%d: scan %d rows, err %v", shards, len(rows), err)
		}
		for i, r := range rows {
			if r[0].Str() != want[i] {
				t.Fatalf("shards=%d: row %d is %s, want %s (insertion order broken)", shards, i, r[0].Str(), want[i])
			}
			if i > 0 && ids[i] <= ids[i-1] {
				t.Fatalf("shards=%d: ids not ascending at %d", shards, i)
			}
		}
		// Per-shard scans must cover the table exactly once.
		seen := map[RowID]bool{}
		for sh := 0; sh < s.NumShards(); sh++ {
			sids, _, err := scanShardRows(s, "t", sh)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range sids {
				if seen[id] {
					t.Fatalf("shards=%d: row %d in two shards", shards, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != 100 {
			t.Fatalf("shards=%d: per-shard scans cover %d rows", shards, len(seen))
		}
	}
}

// TestBlockedWriterDoesNotBlockOtherShards is the lock-isolation
// acceptance check: with shard A's write lock held (a stuck writer),
// reads and writes on other shards must still complete. There is no
// global mutex on the hot path to queue up behind.
func TestBlockedWriterDoesNotBlockOtherShards(t *testing.T) {
	s := shardedStore(t, 4)
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	ts, err := s.table("t")
	if err != nil {
		t.Fatal(err)
	}
	// Find keys on two different shards.
	keyOn := func(shard int) string {
		for i := 0; ; i++ {
			pk := fmt.Sprintf("key-%d", i)
			if ts.shardOfKey(ts.pkKey(kvRow(pk, 0))) == shard {
				return pk
			}
		}
	}
	pkA, pkB := keyOn(0), keyOn(1)
	if _, err := insert(s, "t", kvRow(pkB, 1)); err != nil {
		t.Fatal(err)
	}

	// Simulate a stuck writer: hold shard 0's write lock.
	ts.shards[0].mu.Lock()
	blocked := make(chan struct{})
	go func() {
		insert(s, "t", kvRow(pkA, 1)) // must block on shard 0
		close(blocked)
	}()

	done := make(chan error, 1)
	go func() {
		if _, _, err := scanShardRows(s, "t", 1); err != nil {
			done <- err
			return
		}
		if _, ok := lookupPK(s, "t", sqltypes.NewString(pkB)); !ok {
			done <- errors.New("lookup on unblocked shard failed")
			return
		}
		_, err := insert(s, "t", kvRow(keyOn(2), 2))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("operations on shard 1/2 blocked behind a writer stuck on shard 0")
	}
	select {
	case <-blocked:
		t.Fatal("shard-0 insert completed while the shard lock was held")
	default:
	}
	ts.shards[0].mu.Unlock()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("shard-0 insert never completed after unlock")
	}
}

// TestShardStressConcurrentOps hammers a sharded durable store with
// concurrent inserts, updates, deletes, scans, and lookups (run under
// -race in CI), then closes, reopens, and verifies the recovered state
// matches a final snapshot exactly.
func TestShardStressConcurrentOps(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const opsPerWorker = 300
	var wg sync.WaitGroup
	var inserts, deletes atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []struct {
				pk string
				id RowID
			}
			for i := 0; i < opsPerWorker; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // insert (worker-disjoint key space)
					pk := fmt.Sprintf("w%d-k%04d", w, rng.Intn(500))
					id, err := insert(s, "t", kvRow(pk, rng.Int63n(1000)))
					if err == nil {
						inserts.Add(1)
						mine = append(mine, struct {
							pk string
							id RowID
						}{pk, id})
					} else if !errors.As(err, new(*DuplicateKeyError)) {
						t.Errorf("insert: %v", err)
						return
					}
				case op < 7 && len(mine) > 0: // update own row
					m := mine[rng.Intn(len(mine))]
					if err := update(s, "t", m.id, kvRow(m.pk, rng.Int63n(1000))); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				case op < 8 && len(mine) > 0: // delete own row
					j := rng.Intn(len(mine))
					if err := del(s, "t", mine[j].id); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					deletes.Add(1)
					mine = append(mine[:j], mine[j+1:]...)
				case op < 9: // scan
					if _, _, err := scanRows(s, "t"); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				default: // point lookups
					pk := fmt.Sprintf("w%d-k%04d", rng.Intn(workers), rng.Intn(500))
					lookupPK(s, "t", sqltypes.NewString(pk))
					if len(mine) > 0 {
						get(s, "t", mine[rng.Intn(len(mine))].id)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	n, err := s.RowCount("t")
	if err != nil {
		t.Fatal(err)
	}
	if want := int(inserts.Load() - deletes.Load()); n != want {
		t.Fatalf("row count %d, want %d (inserts %d - deletes %d)", n, want, inserts.Load(), deletes.Load())
	}
	ids, rows, err := scanRows(s, "t")
	if err != nil || len(ids) != n {
		t.Fatalf("scan after stress: %d ids, err %v", len(ids), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NumShards(); got != 4 {
		t.Fatalf("reopen adopted %d shards, want 4", got)
	}
	if err := s2.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ids2, rows2, err := scanRows(s2, "t")
	if err != nil || len(ids2) != len(ids) {
		t.Fatalf("recovered %d rows, want %d (err %v)", len(ids2), len(ids), err)
	}
	for i := range ids {
		if ids2[i] != ids[i] || rows2[i][0].Str() != rows[i][0].Str() || rows2[i][1].Int() != rows[i][1].Int() {
			t.Fatalf("row %d drifted in recovery: %v/%v vs %v/%v", i, ids2[i], rows2[i], ids[i], rows[i])
		}
	}
}

// TestGroupCommitSurvivesCrash proves the group-commit durability
// contract: once Insert returns, the row is on disk — reopening the
// directory WITHOUT closing the first store (a simulated crash) recovers
// every acknowledged insert.
func TestGroupCommitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if _, err := insert(s, "t", kvRow(fmt.Sprintf("w%d-%03d", w, i), int64(i))); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Crash: no Close, no flush — the store object is simply abandoned.
	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := s2.RowCount("t")
	if got != n {
		t.Fatalf("crash recovery lost acknowledged inserts: %d of %d recovered", got, n)
	}
}

// TestShardCountContract pins the reopen contract: an explicit shard
// count that disagrees with the on-disk layout errors; 0 adopts it.
func TestShardCountContract(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("t", []int{0})
	insert(s, "t", kvRow("a", 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = NewStoreOptions(dir, Options{Shards: 2})
	var mismatch *ErrShardMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("reopen with different shard count must fail with ErrShardMismatch, got %v", err)
	}
	if mismatch.OnDisk != 4 || mismatch.Requested != 2 {
		t.Errorf("mismatch detail: %+v", mismatch)
	}

	// Same count and adopted count both work.
	for _, shards := range []int{4, 0} {
		s2, err := NewStoreOptions(dir, Options{Shards: shards})
		if err != nil {
			t.Fatalf("reopen shards=%d: %v", shards, err)
		}
		if s2.NumShards() != 4 {
			t.Errorf("reopen shards=%d: got %d shards", shards, s2.NumShards())
		}
		s2.CreateTable("t", []int{0})
		if err := s2.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, ok := lookupPK(s2, "t", sqltypes.NewString("a")); !ok {
			t.Errorf("reopen shards=%d: row lost", shards)
		}
		s2.Close()
	}
}

// TestCrossShardPKUpdate exercises the re-homing path: an update that
// changes the primary key may move the row to a different shard, and the
// move must survive recovery (delete on the old shard's WAL, upsert on
// the new one's).
func TestCrossShardPKUpdate(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("t", []int{0})
	ts, _ := s.table("t")
	// Pick two keys living on different shards.
	pkA := "alpha"
	pkB := pkA
	for i := 0; ts.shardOfKey(ts.pkKey(kvRow(pkB, 0))) == ts.shardOfKey(ts.pkKey(kvRow(pkA, 0))); i++ {
		pkB = fmt.Sprintf("beta-%d", i)
	}
	id, err := insert(s, "t", kvRow(pkA, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := update(s, "t", id, kvRow(pkB, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupPK(s, "t", sqltypes.NewString(pkA)); ok {
		t.Error("old PK still resolves after re-homing update")
	}
	row, ok := get(s, "t", id)
	if !ok || row[0].Str() != pkB || row[1].Int() != 2 {
		t.Fatalf("row after move: %v %v", row, ok)
	}
	// And back again, then recover.
	if err := update(s, "t", id, kvRow(pkA, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.CreateTable("t", []int{0})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	n, _ := s2.RowCount("t")
	if n != 1 {
		t.Fatalf("recovered %d rows after cross-shard moves, want 1", n)
	}
	rid, ok := lookupPK(s2, "t", sqltypes.NewString(pkA))
	if !ok || rid != id {
		t.Fatalf("recovered row id %v ok=%v, want %v", rid, ok, id)
	}
	if row, _ := get(s2, "t", rid); row[1].Int() != 3 {
		t.Errorf("recovered value %v, want 3", row[1])
	}
}

// TestUniqueSecondaryIndexAcrossShards: a unique secondary key must be
// rejected even when the conflicting rows' primary keys hash to
// different shards.
func TestUniqueSecondaryIndexAcrossShards(t *testing.T) {
	s := shardedStore(t, 4)
	s.CreateTable("t", []int{0})
	if err := s.CreateIndex("t", "uniq_v", []int{1}, true); err != nil {
		t.Fatal(err)
	}
	// Insert rows with distinct PKs (spread across shards) and distinct
	// values, then try a duplicate value from a different shard.
	for i := 0; i < 16; i++ {
		if _, err := insert(s, "t", kvRow(fmt.Sprintf("k%02d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := insert(s, "t", kvRow("other-shard-key", 7)); err == nil {
		t.Fatal("unique secondary index must reject duplicates across shards")
	}
	// Update onto a taken value must also fail.
	id, _ := lookupPK(s, "t", sqltypes.NewString("k00"))
	if err := update(s, "t", id, kvRow("k00", 7)); err == nil {
		t.Fatal("unique secondary index must reject duplicate on update")
	}
	// The same value is fine once the holder is gone.
	holder, _ := lookupPK(s, "t", sqltypes.NewString("k07"))
	if err := del(s, "t", holder); err != nil {
		t.Fatal(err)
	}
	if _, err := insert(s, "t", kvRow("reuse", 7)); err != nil {
		t.Fatalf("value freed by delete must be insertable: %v", err)
	}
}

// TestCommitReturnsAfterCheckpointReset: a writer parked in the WAL's
// group-commit barrier while a checkpoint resets the log must be
// released (its record is durable via the snapshot), not spin forever.
func TestCommitReturnsAfterCheckpointReset(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openAppendLog(walShardPath(dir, 0), SyncGroup, "storage.wal.append")
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	seq, err := l.append(walRecord{Op: "insert", Table: "t", Row: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.reset(); err != nil { // checkpoint captured the record
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.commit(seq) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit() hung after a checkpoint reset")
	}
}

// TestCrossShardMoveCrashKeepsNewerCopy: a crash can persist a
// cross-shard move's upsert but lose the old shard's delete, leaving the
// row live on two shards. Recovery must keep exactly one copy — the
// newer (higher-LSN) one.
func TestCrossShardMoveCrashKeepsNewerCopy(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("t", []int{0})
	ts, _ := s.table("t")
	pkOld := "origin"
	oldShard := ts.shardOfKey(ts.pkKey(kvRow(pkOld, 0)))
	pkNew := pkOld
	for i := 0; ts.shardOfKey(ts.pkKey(kvRow(pkNew, 0))) == oldShard; i++ {
		pkNew = fmt.Sprintf("moved-%d", i)
	}
	id, err := insert(s, "t", kvRow(pkOld, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := update(s, "t", id, kvRow(pkNew, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn crash: drop the old shard's delete record (its
	// WAL's last line), keeping the new shard's fsynced-first upsert.
	path := walShardPath(dir, oldShard)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSuffix(string(data), "\n")
	cut := strings.LastIndex(trimmed, "\n") + 1
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.CreateTable("t", []int{0})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	n, _ := s2.RowCount("t")
	if n != 1 {
		t.Fatalf("recovered %d copies of the moved row, want 1", n)
	}
	if _, ok := lookupPK(s2, "t", sqltypes.NewString(pkOld)); ok {
		t.Error("stale pre-move copy survived reconciliation")
	}
	rid, ok := lookupPK(s2, "t", sqltypes.NewString(pkNew))
	if !ok || rid != id {
		t.Fatalf("moved copy lost: ok=%v id=%v want %v", ok, rid, id)
	}
	if row, _ := get(s2, "t", rid); row[1].Int() != 2 {
		t.Errorf("recovered value %v, want 2", row[1])
	}
}
