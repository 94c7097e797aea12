package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowddb/internal/sqltypes"
)

// appendRaw glues raw bytes onto the end of a file, the way a torn write
// or disk damage would.
func appendRaw(t *testing.T, path, raw string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
}

// replayLines replays the log at path and returns the records handed to
// apply, copied.
func replayLines(path string) ([]string, error) {
	var out []string
	err := replayLog(path, func(line []byte) error {
		out = append(out, string(line))
		return nil
	})
	return out, err
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// openTalk opens a one-shard store over dir (so every record lands in
// wal-000.log), re-creates the Talk schema and recovers.
func openTalk(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := NewStoreOptions(dir, Options{Shards: 1, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("Talk", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s
}

// TestTornTailThenAppendThenRestart is the defect the two log copies
// shared: replay stopped at a torn tail but nobody cut it off, so the next
// append was glued onto the fragment and the following restart dropped
// that record and every acknowledged write after it.
func TestTornTailThenAppendThenRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTalk(t, dir)
	if _, err := insert(s, "Talk", talkRow("first", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, walShardPath(dir, 0), `{"op":"insert","table":"Talk","row":99,"data":[{"k":`)

	s = openTalk(t, dir)
	for _, title := range []string{"a", "b", "c", "d", "e"} {
		if _, err := insert(s, "Talk", talkRow(title, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTalk(t, dir)
	defer s.Close()
	if n, _ := s.RowCount("Talk"); n != 6 {
		t.Fatalf("recovered %d rows, want 6", n)
	}
	if _, ok := lookupPK(s, "Talk", sqltypes.NewString("e")); !ok {
		t.Error("an acknowledged insert after the torn tail was lost")
	}
}

// TestTornTailRecordLogThenAppend is the same shape for a RecordLog
// opened with OpenRecordLog after ReplayRecordLog.
func TestTornTailRecordLogThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := OpenRecordLog(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rlRec{N: 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, `{"n":99,"s":"tor`)
	if got := replayAll(t, path); len(got) != 1 {
		t.Fatalf("replayed %v, want the one whole record", got)
	}
	l, err = OpenRecordLog(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Append(rlRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 6 || got[5].N != 5 {
		t.Fatalf("replayed %v, want records 0..5", got)
	}
}

// TestTornTailUnterminatedWholeJSON: a final line that parses but has no
// newline was never acknowledged (the terminator is part of the record);
// it is not applied and it is cut off.
func TestTornTailUnterminatedWholeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	appendRaw(t, path, "{\"n\":1}\n\n{\"n\":2}")
	got, err := replayLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != `{"n":1}` {
		t.Fatalf("replayed %q, want only the terminated record", got)
	}
	if data, _ := os.ReadFile(path); string(data) != "{\"n\":1}\n\n" {
		t.Fatalf("file after replay = %q", data)
	}
	// Several damaged lines at the tail, terminated or not, are one tail.
	appendRaw(t, path, "{\"n\":\n\n garbage \n{\"n\":3")
	if got, err = replayLines(path); err != nil || len(got) != 1 {
		t.Fatalf("replayed %q, %v", got, err)
	}
	if data, _ := os.ReadFile(path); string(data) != "{\"n\":1}\n\n" {
		t.Fatalf("file after second replay = %q", data)
	}
}

// TestTornMidFileDamageIsCorruption: a damaged line with whole records
// behind it is not a torn write. Replay and recovery fail, naming the
// file and the offset, and nothing is truncated.
func TestTornMidFileDamageIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	appendRaw(t, path, "{\"n\":1}\n{\"n\":\n{\"n\":3}\n")
	size := fileSize(t, path)
	got, err := replayLines(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset 8") {
		t.Fatalf("replay error = %v, want one naming %s and offset 8", err, path)
	}
	if len(got) != 1 {
		t.Errorf("applied %q before the damage, want only the first record", got)
	}
	if fileSize(t, path) != size {
		t.Errorf("corrupt log was truncated from %d to %d bytes", size, fileSize(t, path))
	}

	// The same through the store: Recover reports it.
	dir := t.TempDir()
	s := openTalk(t, dir)
	insert(s, "Talk", talkRow("first", 1))
	insert(s, "Talk", talkRow("second", 2))
	s.Close()
	wal := walShardPath(dir, 0)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != 3 { // two records and the empty remainder
		t.Fatalf("wal has %d lines, want 2 records: %q", len(lines)-1, data)
	}
	damagedWAL := append(append([]byte{}, lines[0][:len(lines[0])/2]...), '\n')
	damagedWAL = append(damagedWAL, lines[1]...)
	if err := os.WriteFile(wal, damagedWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStoreOptions(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.CreateTable("Talk", []int{0})
	err = s2.Recover()
	if err == nil || !strings.Contains(err.Error(), wal) || !strings.Contains(err.Error(), "offset 0") {
		t.Fatalf("Recover error = %v, want corruption naming %s at offset 0", err, wal)
	}
	if fileSize(t, wal) != int64(len(damagedWAL)) {
		t.Error("corrupt WAL was truncated")
	}
}

// TestAppendLogGoldenBytes pins the on-disk format: one walRecord of each
// op, written through the store, is byte for byte the WAL the parent
// commit wrote for the same statements (testdata/parent, recorded there),
// and that parent-written data dir recovers to the expected rows.
func TestAppendLogGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "wal-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := openTalk(t, dir)
	id1, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	id2, _ := insert(s, "Talk", talkRow(`Qurk <&> "quoted"`, 80))
	if err := update(s, "Talk", id1, talkRow("CrowdDB", 250)); err != nil {
		t.Fatal(err)
	}
	if err := del(s, "Talk", id2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(walShardPath(dir, 0))
	if !bytes.Equal(got, want) {
		t.Errorf("WAL bytes changed:\n got %s\nwant %s", got, want)
	}
	meta, _ := os.ReadFile(shardMetaPath(dir))
	wantMeta, _ := os.ReadFile(filepath.Join("testdata", "parent", "shards.json"))
	if !bytes.Equal(meta, wantMeta) {
		t.Errorf("shards.json = %q, want %q", meta, wantMeta)
	}

	// The parent-written directory opens on this code.
	old := t.TempDir()
	os.WriteFile(walShardPath(old, 0), want, 0o644)
	os.WriteFile(shardMetaPath(old), wantMeta, 0o644)
	var ops []string
	if err := replayWAL(walShardPath(old, 0), func(rec walRecord) error {
		ops = append(ops, rec.Op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(ops, ",") != "insert,insert,update,delete" {
		t.Errorf("parent-written WAL replayed ops %v", ops)
	}
	s = openTalk(t, old)
	defer s.Close()
	if s.NumShards() != 1 {
		t.Errorf("shards = %d", s.NumShards())
	}
	if n, _ := s.RowCount("Talk"); n != 1 {
		t.Errorf("recovered %d rows, want 1", n)
	}
	rid, ok := lookupPK(s, "Talk", sqltypes.NewString("CrowdDB"))
	if row, _ := get(s, "Talk", rid); !ok || row[2].Int() != 250 {
		t.Errorf("recovered row = %v", row)
	}
	if fileSize(t, walShardPath(old, 0)) != int64(len(want)) {
		t.Error("replaying a whole log changed its length")
	}
}

// TestAppendLogWriteFileAtomic: the replacement is complete or absent,
// and no temp file is left behind either way.
func TestAppendLogWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, content := range []string{"one\n", "two, longer\n", ""} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f.json"), []byte("x")); err == nil {
		t.Error("writing into a missing directory must fail")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only f.json", len(entries))
	}
}

// FuzzReplayLog feeds arbitrary bytes to the one replay path under both
// logs. Replay never panics; every record handed to apply was
// newline-terminated valid JSON; and whenever replay succeeds, appending
// one record and replaying again yields the previous records plus exactly
// that one — the invariant the torn-tail defect broke.
func FuzzReplayLog(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzReplayLog) holds the small
	// shapes; a record past the scanner's initial 1 MiB buffer is generated.
	big := `{"s":"` + strings.Repeat("x", 1<<20) + `"}`
	f.Add([]byte("{\"n\":1}\n" + big + "\n" + big[:1<<19]))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := replayLines(path)
		for _, rec := range before {
			if !json.Valid([]byte(rec)) || !bytes.Contains(data, []byte(rec+"\n")) {
				t.Fatalf("apply saw %q, which is not a whole record of the input", rec)
			}
		}
		if err != nil {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatalf("failed replay (%v) modified the file", err)
			}
			return
		}
		l, err := openAppendLog(path, SyncOff, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.append(rlRec{N: 7, S: "appended"}); err != nil {
			t.Fatal(err)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		after, err := replayLines(path)
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		want := append(before, `{"n":7,"s":"appended"}`)
		if strings.Join(after, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("after append replayed %q, want %q", after, want)
		}
	})
}
