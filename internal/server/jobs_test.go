package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

// waitState waits for a job to be terminal and retired, with a test
// deadline. (finish wakes waiters before retireJob bumps the counters and
// enforces the retention cap; Job.Wait returns only past that barrier, so
// a test may assert any of those — or disarm a crashpoint — after it.)
func waitState(t *testing.T, job *Job) JobState {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	state, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s stuck in %s: %v", job.ID(), state, err)
	}
	return state
}

// TestJobLifecycle walks the happy path: queued/running -> done, rows
// streamed, stats and spend reported on the resource.
func TestJobLifecycle(t *testing.T) {
	eng := pairEngine(t, 51, 4)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}

	job, serr := srv.StartJob(sess.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitState(t, job); st != JobDone {
		t.Fatalf("state = %s, err = %v", st, job.Err())
	}
	info := job.Info()
	if info.RowsEmitted != 4 || len(info.Columns) != 1 || info.Columns[0] != "id" {
		t.Errorf("job info = %+v", info)
	}
	if info.Stats.Comparisons != 4 || info.SpentCents <= 0 || info.ActualCents != info.SpentCents {
		t.Errorf("spend accounting: %+v", info)
	}
	if info.StatementsDone != 1 || info.Error != nil {
		t.Errorf("job info = %+v", info)
	}

	// The finished resource stays pollable.
	again, serr := srv.Job(job.ID())
	if serr != nil || again.State() != JobDone {
		t.Fatalf("retained job: %v %v", again, serr)
	}

	// Parse errors are rejected synchronously, never becoming jobs.
	if _, serr := srv.StartJob(sess.ID(), "SELEC nope"); serr == nil || serr.Code != CodeParse {
		t.Fatalf("parse: got %v, want %s", serr, CodeParse)
	}
}

// TestJobRowsStreamNDJSON exercises GET /v1/queries/{id}/rows end to
// end: rows arrive as JSON arrays, the stream ends with a state trailer.
func TestJobRowsStreamNDJSON(t *testing.T) {
	eng := pairEngine(t, 53, 3)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/queries", map[string]string{"sql": "SELECT id FROM Pair WHERE a ~= b"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/queries: %d %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.State.Terminal() {
		t.Fatalf("submit response: %+v", info)
	}

	rowsResp, err := http.Get(ts.URL + "/v1/queries/" + info.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	defer rowsResp.Body.Close()
	if ct := rowsResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(rowsResp.Body)
	var rows [][]*string
	var trailer struct {
		State JobState `json:"state"`
		Error *Error   `json:"error"`
	}
	sawTrailer := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			var row []*string
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("row line %q: %v", line, err)
			}
			rows = append(rows, row)
			continue
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatalf("trailer %q: %v", line, err)
		}
		sawTrailer = true
	}
	if !sawTrailer || trailer.State != JobDone || trailer.Error != nil {
		t.Fatalf("trailer = %+v (saw %v)", trailer, sawTrailer)
	}
	if len(rows) != 3 {
		t.Fatalf("streamed %d rows, want 3", len(rows))
	}
}

// TestJobRowsStreamSSE checks the SSE framing of the same stream.
func TestJobRowsStreamSSE(t *testing.T) {
	eng := pairEngine(t, 59, 2)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	_, body := postJSON(t, ts.URL+"/v1/queries", map[string]string{"sql": "SELECT id FROM Pair"})
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/queries/"+info.ID+"/rows", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test buffer
	out := buf.String()
	if strings.Count(out, "event: row") != 2 || !strings.Contains(out, "event: end") {
		t.Fatalf("SSE stream:\n%s", out)
	}
	if !strings.Contains(out, `"state":"done"`) {
		t.Fatalf("SSE end event missing state:\n%s", out)
	}
}

// pairStrings returns the pairEngine's i-th (here: only) comparison
// pair, so tests can pose as a foreign session's in-flight leader.
func pairStrings(t *testing.T, seed int64, n int) (l, r string) {
	t.Helper()
	cs := workload.NewCompanies(n, seed)
	c := cs.List[0]
	return c.Canonical, c.Variants[len(c.Variants)-1]
}

// TestCancelUnblocksCrowdWait: DELETE on a job parked behind a foreign
// in-flight comparison must move it to cancelled promptly and leave the
// singleflight table claim-free (only the foreign leader remains until
// it abandons).
func TestCancelUnblocksCrowdWait(t *testing.T) {
	eng := pairEngine(t, 61, 1)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}
	l, r := pairStrings(t, 61, 1)
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}

	job, jerr := srv.StartJob(sess.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if jerr != nil {
		t.Fatal(jerr)
	}
	time.Sleep(30 * time.Millisecond)
	if st := job.State(); st.Terminal() {
		t.Fatalf("job finished (%s) while its comparison was foreign-owned", st)
	}

	if _, cerr := srv.CancelJob(job.ID()); cerr != nil {
		t.Fatal(cerr)
	}
	if st := waitState(t, job); st != JobCancelled {
		t.Fatalf("state = %s, err = %v", st, job.Err())
	}
	// Only the foreign leader's flight remains; abandoning it leaves the
	// table claim-free.
	if n := eng.Cache().InFlight(); n != 1 {
		t.Errorf("in-flight claims after cancel = %d, want 1 (the foreign leader)", n)
	}
	leader.Abandon()
	if n := eng.Cache().InFlight(); n != 0 {
		t.Errorf("in-flight claims after abandon = %d, want 0", n)
	}
	// No crowd work was posted by the cancelled follower.
	if st := eng.Tasks().Stats(); st.GroupsPosted != 0 {
		t.Errorf("cancelled job posted %d groups", st.GroupsPosted)
	}
}

// TestCloseSessionFailsJobsSessionClosed: DELETE /session with a query
// in flight cancels its job with the coded session_closed failure.
func TestCloseSessionFailsJobsSessionClosed(t *testing.T) {
	eng := pairEngine(t, 67, 1)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}
	l, r := pairStrings(t, 67, 1)
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	defer leader.Abandon()

	job, jerr := srv.StartJob(sess.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if jerr != nil {
		t.Fatal(jerr)
	}
	time.Sleep(30 * time.Millisecond)
	if cerr := srv.CloseSession(sess.ID()); cerr != nil {
		t.Fatal(cerr)
	}
	if st := waitState(t, job); st != JobFailed {
		t.Fatalf("state = %s", st)
	}
	if err := job.Err(); err == nil || err.Code != CodeSessionClosed {
		t.Fatalf("error = %v, want %s", err, CodeSessionClosed)
	}
}

// TestAnonymousSessionKeepsNoJobs: an anonymous job's one-shot session
// keeps no job map — nothing can close it — while a registered session
// running a job beside it still lists the job, and closing the session
// still cancels it with the coded session_closed failure.
func TestAnonymousSessionKeepsNoJobs(t *testing.T) {
	eng := pairEngine(t, 68, 1)
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}
	l, r := pairStrings(t, 68, 1)
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	anon, jerr := srv.StartJob("", "SELECT id FROM Pair WHERE a ~= b")
	if jerr != nil {
		t.Fatal(jerr)
	}
	job, jerr := srv.StartJob(sess.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if jerr != nil {
		t.Fatal(jerr)
	}
	anon.sess.mu.Lock()
	anonJobs := anon.sess.jobs
	anon.sess.mu.Unlock()
	if anonJobs != nil {
		t.Errorf("the anonymous session keeps a job map: %v", anonJobs)
	}
	sess.mu.Lock()
	_, listed := sess.jobs[job.ID()]
	sess.mu.Unlock()
	if !listed {
		t.Error("the registered session does not list its running job")
	}
	if cerr := srv.CloseSession(sess.ID()); cerr != nil {
		t.Fatal(cerr)
	}
	if st := waitState(t, job); st != JobFailed {
		t.Fatalf("state = %s", st)
	}
	if err := job.Err(); err == nil || err.Code != CodeSessionClosed {
		t.Fatalf("error = %v, want %s", err, CodeSessionClosed)
	}
	leader.Abandon()
	if st := waitState(t, anon); st != JobDone {
		t.Fatalf("anonymous job: state = %s, err = %v", st, anon.Err())
	}
}

// TestRetireBarrier: finish wakes a job's waiters before retireJob runs,
// so "terminal" alone promises nothing retireJob does. Once the barrier
// has closed, all of it is visible: the end record is in the journal, the
// state counter moved, the session dropped the job, and it sits in the
// retention FIFO.
func TestRetireBarrier(t *testing.T) {
	eng := pairEngine(t, 53, 2)
	srv := New(eng, Config{})
	jpath := filepath.Join(t.TempDir(), "jobs.log")
	if err := srv.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	sess, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}
	for i := 0; i < 20; i++ {
		before := srv.mJobsByState[JobDone].Value()
		job, serr := srv.StartJob(sess.ID(), "SELECT id FROM Pair")
		if serr != nil {
			t.Fatal(serr)
		}
		if st := waitState(t, job); st != JobDone {
			t.Fatalf("state = %s, err = %v", st, job.Err())
		}
		if got := srv.mJobsByState[JobDone].Value(); got != before+1 {
			t.Fatalf("job %d: done counter %v after retirement, want %v", i, got, before+1)
		}
		sess.mu.Lock()
		active := len(sess.jobs)
		sess.mu.Unlock()
		if active != 0 {
			t.Fatalf("job %d: session still lists %d active jobs", i, active)
		}
		srv.mu.Lock()
		last := srv.finished[len(srv.finished)-1]
		srv.mu.Unlock()
		if last != job.ID() {
			t.Fatalf("job %d: retention FIFO ends with %s", i, last)
		}
		ends := 0
		if err := storage.ReplayRecordLog(jpath, func(line json.RawMessage) error {
			var rec journalRec
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			if rec.T == recEnd && rec.Job == job.ID() {
				ends++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ends != 1 {
			t.Fatalf("job %d: %d end records journaled at retirement, want 1", i, ends)
		}
	}
}
