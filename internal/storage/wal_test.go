package storage

import (
	"os"
	"path/filepath"
	"testing"

	"crowddb/internal/sqltypes"
)

// reopen closes the store and opens a fresh one over the same dir,
// re-creating the Talk schema and recovering.
func reopen(t *testing.T, s *Store, dir string) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CreateTable("Talk", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	return s2
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("Talk", []int{0}); err != nil {
		t.Fatal(err)
	}
	id1, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	insert(s, "Talk", talkRow("Qurk", 80))
	update(s, "Talk", id1, talkRow("CrowdDB", 250))

	s2 := reopen(t, s, dir)
	defer s2.Close()
	n, _ := s2.RowCount("Talk")
	if n != 2 {
		t.Fatalf("recovered %d rows", n)
	}
	rid, ok := lookupPK(s2, "Talk", sqltypes.NewString("CrowdDB"))
	if !ok {
		t.Fatal("PK lost in recovery")
	}
	row, _ := get(s2, "Talk", rid)
	if row[2].Int() != 250 {
		t.Errorf("update lost: %v", row)
	}
}

func TestWALRecoveryWithDeletes(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStoreOptions(dir, Options{})
	s.CreateTable("Talk", []int{0})
	id, _ := insert(s, "Talk", talkRow("A", 1))
	insert(s, "Talk", talkRow("B", 2))
	del(s, "Talk", id)

	s2 := reopen(t, s, dir)
	defer s2.Close()
	n, _ := s2.RowCount("Talk")
	if n != 1 {
		t.Errorf("recovered %d rows, want 1", n)
	}
	if _, ok := lookupPK(s2, "Talk", sqltypes.NewString("A")); ok {
		t.Error("deleted row recovered")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("Talk", []int{0})
	for i := 0; i < 50; i++ {
		insert(s, "Talk", talkRow(string(rune('A'+i)), int64(i)))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < s.NumShards(); shard++ {
		info, err := os.Stat(walShardPath(dir, shard))
		if err != nil || info.Size() != 0 {
			t.Errorf("shard %d WAL should be empty after checkpoint: %v %v", shard, err, info)
		}
	}
	// Post-checkpoint writes land in the fresh WAL.
	insert(s, "Talk", talkRow("after", 999))

	s2 := reopen(t, s, dir)
	defer s2.Close()
	n, _ := s2.RowCount("Talk")
	if n != 51 {
		t.Errorf("recovered %d rows, want 51", n)
	}
	if _, ok := lookupPK(s2, "Talk", sqltypes.NewString("after")); !ok {
		t.Error("post-checkpoint row lost")
	}
}

func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStoreOptions(dir, Options{})
	s.CreateTable("Talk", []int{0})
	insert(s, "Talk", talkRow("ok", 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage to a shard's log. (With one
	// shard the row shares the log; with more, the garbage may land in an
	// empty log — replay must stop at the torn line either way.)
	f, err := os.OpenFile(walShardPath(dir, 0), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"insert","table":"Talk","row":99,"data":[{"k":`)
	f.Close()

	s2, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.CreateTable("Talk", []int{0})
	if err := s2.Recover(); err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	n, _ := s2.RowCount("Talk")
	if n != 1 {
		t.Errorf("recovered %d rows, want 1", n)
	}
}

func TestRecoverNoFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	s, err := NewStoreOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.CreateTable("Talk", []int{0})
	if err := s.Recover(); err != nil {
		t.Errorf("recover with no snapshot/WAL: %v", err)
	}
}

func TestMemoryStoreNoFiles(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	insert(s, "Talk", talkRow("X", 1))
	if err := s.Checkpoint(); err != nil {
		t.Errorf("memory checkpoint must be a no-op: %v", err)
	}
	if err := s.Recover(); err != nil {
		t.Errorf("memory recover must be a no-op: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
