package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"crowddb/internal/storage"
)

// TestJournalGoldenBytes pins the journal's on-disk format against files
// the parent commit wrote (testdata/parent, recorded there with the same
// records): one record of each type appends to exactly those bytes, the
// parent-written journal replays and recovers on this code, and the
// compaction EnableJournal performs rewrites it to exactly what the
// parent's compaction produced.
func TestJournalGoldenBytes(t *testing.T) {
	strp := func(s string) *string { return &s }
	intp := func(n int) *int { return &n }
	recs := []journalRec{
		{T: recSession, Session: "s000001", Budget: intp(20)},
		{T: recSubmit, Job: "j000001", Session: "s000001", SQL: "SELECT id FROM Pair WHERE a ~= b"},
		{T: "run", Job: "j000001"}, // a record older journals carry; replay skips it
		{T: recSchema, Job: "j000001", Columns: []string{"id", "note"}},
		{T: recSpend, Session: "s000001", N: 2},
		{T: recRow, Job: "j000001", Row: []*string{strp("1"), nil}},
		{T: recRow, Job: "j000001", Row: []*string{strp("2"), strp("<a & b>")}},
		{T: recBudget, Session: "s000001", Budget: intp(18)},
		{T: recEnd, Job: "j000001", State: JobDone, Stmts: 1},
		{T: recSubmit, Job: "j000002", SQL: "INSERT INTO Pair VALUES (9, 'x', 'y')"},
		{T: recEnd, Job: "j000002", State: JobFailed, Code: CodeInternal, Msg: "boom", Affected: 1, Stmts: 1},
		{T: recSession, Session: "s000002", Budget: intp(-1)},
		{T: recSessionClose, Session: "s000002"},
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := storage.OpenRecordLog(path, storage.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("journal bytes changed:\n got %s\nwant %s", got, want)
	}

	// The parent-written journal replays to the records it was given...
	old := filepath.Join(t.TempDir(), "jobs.log")
	if err := os.WriteFile(old, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var types []string
	if err := storage.ReplayRecordLog(old, func(line json.RawMessage) error {
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		types = append(types, rec.T)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(types), len(recs))
	}
	for i, r := range recs {
		if types[i] != r.T {
			t.Errorf("record %d replayed as %q, want %q", i, types[i], r.T)
		}
	}

	// ...recovers on this server...
	srv := New(pairEngine(t, 1, 1), Config{})
	if err := srv.EnableJournal(old, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	done, serr := srv.Job("j000001")
	if serr != nil || done.State() != JobDone || len(renderedRows(done)) != 2 {
		t.Errorf("recovered j000001: %v, %v", done, serr)
	}
	failed, serr := srv.Job("j000002")
	if serr != nil || failed.State() != JobFailed || failed.Err().Message != "boom" {
		t.Errorf("recovered j000002: %v, %v", failed, serr)
	}
	if sess, serr := srv.Session("s000001"); serr != nil || sess.Info().BudgetLeft != 18 {
		t.Errorf("recovered session s000001: %v, %v", sess, serr)
	}
	if _, serr := srv.Session("s000002"); serr == nil {
		t.Error("closed session s000002 came back")
	}

	// ...and compacts to the parent's bytes.
	srv.journal.Load().Close()
	wantCompacted, err := os.ReadFile(filepath.Join("testdata", "parent", "jobs.compacted.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(old); !bytes.Equal(got, wantCompacted) {
		t.Errorf("compacted journal bytes changed:\n got %s\nwant %s", got, wantCompacted)
	}
}

// TestJournalWritesOnlyWhatRecoveryReads: a SELECT job on a named session
// journals exactly its submit record, its schema, one row record per row,
// the session's budget once the statement settles, and its end record —
// in that order, and nothing replay would skip.
func TestJournalWritesOnlyWhatRecoveryReads(t *testing.T) {
	const rows = 3
	srv := New(pairEngine(t, 1, rows), Config{})
	path := filepath.Join(t.TempDir(), "jobs.log")
	if err := srv.EnableJournal(path, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	sess, serr := srv.CreateSession(10)
	if serr != nil {
		t.Fatal(serr)
	}
	job, serr := srv.StartJob(sess.ID(), "SELECT id FROM Pair")
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitDone(t, job); st != JobDone {
		t.Fatalf("job ended %s (%v)", st, job.Err())
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := storage.ReplayRecordLog(path, func(line json.RawMessage) error {
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		got = append(got, rec.T)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{recSession, recSubmit, recSchema}
	for range rows {
		want = append(want, recRow)
	}
	want = append(want, recBudget, recEnd)
	if !slices.Equal(got, want) {
		t.Errorf("journal records %q, want %q", got, want)
	}
}
