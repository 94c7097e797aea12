package server

// Tests for the MVCC-facing parts of the job resource: the snapshot
// timestamp a SELECT pins, and the coded unknown_job error a client gets
// when resuming a row stream for a job the retention cap already
// evicted (the stream must not be silently empty).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestJobReportsSnapshotTS: a SELECT job must report the non-zero MVCC
// commit timestamp its snapshot pinned, both on the in-process resource
// and through the HTTP job document.
func TestJobReportsSnapshotTS(t *testing.T) {
	eng := pairEngine(t, 83, 2)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	job, serr := srv.StartJob("", "SELECT id FROM Pair WHERE a ~= b")
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitState(t, job); st != JobDone {
		t.Fatalf("state = %s, err = %v", st, job.Err())
	}
	info := job.Info()
	if info.SnapshotTS <= 0 {
		t.Fatalf("SnapshotTS = %d, want > 0 (two INSERTs committed before the SELECT)", info.SnapshotTS)
	}
	// The two seed INSERTs each committed one transaction, so the SELECT's
	// snapshot must see at least both commits.
	if info.SnapshotTS < 2 {
		t.Errorf("SnapshotTS = %d, want >= 2", info.SnapshotTS)
	}

	resp, err := http.Get(ts.URL + "/v1/queries/" + job.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	tsField, ok := doc["snapshot_ts"].(float64)
	if !ok || int64(tsField) != info.SnapshotTS {
		t.Fatalf("snapshot_ts in job document = %v, want %d", doc["snapshot_ts"], info.SnapshotTS)
	}
}

// TestEvictedJobRowsUnknownJob: GET /v1/queries/{id}/rows?from=N for a
// job evicted by the retention cap must fail with the coded
// unknown_job 404, not an empty or hanging stream (satellite: clients
// resuming a stream must learn the job is gone and re-submit).
func TestEvictedJobRowsUnknownJob(t *testing.T) {
	eng := pairEngine(t, 89, 2)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	first, serr := srv.StartJob("", "SELECT id FROM Pair")
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitState(t, first); st != JobDone {
		t.Fatalf("first job: state = %s, err = %v", st, first.Err())
	}
	// While retained, resuming the stream past the end works and reports
	// the terminal state.
	resp, err := http.Get(ts.URL + "/v1/queries/" + first.ID() + "/rows?from=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retained job rows: status %d, want 200", resp.StatusCode)
	}

	// As many finished jobs again as the cap retains push the first out.
	for i := 0; i < maxRetainedJobs; i++ {
		next, serr := srv.StartJob("", "SELECT id FROM Pair")
		if serr != nil {
			t.Fatal(serr)
		}
		if st := waitState(t, next); st != JobDone {
			t.Fatalf("job %d: state = %s, err = %v", i, st, next.Err())
		}
	}

	resp, err = http.Get(ts.URL + "/v1/queries/" + first.ID() + "/rows?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job rows: status %d, want 404", resp.StatusCode)
	}
	var e struct {
		Error *Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error == nil || e.Error.Code != CodeUnknownJob {
		t.Fatalf("evicted job rows error = %+v, want code %s", e.Error, CodeUnknownJob)
	}
}
