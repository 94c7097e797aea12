package server

// Submit-and-stream: POST /v1/queries answers with the job resource and
// the row stream in one exchange when the client accepts NDJSON, and is
// the unchanged 202 JSON otherwise. Every stream — this one, GET
// .../rows, SSE — ends in the terminal job resource.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/storage"
)

// ndjsonStream is one NDJSON stream split into its parts: the resource
// line a submit exchange leads with (nil on GET .../rows), the rows, and
// the trailer (nil when the stream ended without one).
type ndjsonStream struct {
	header  *JobInfo
	rows    [][]*string
	trailer *JobInfo
}

// readStream parses an NDJSON body; withHeader says line 1 is the job
// resource rather than a row or the trailer.
func readStream(t *testing.T, body *bufio.Scanner, withHeader bool) ndjsonStream {
	t.Helper()
	var st ndjsonStream
	for body.Scan() {
		line := bytes.TrimSpace(body.Bytes())
		switch {
		case len(line) == 0:
		case st.trailer != nil:
			t.Fatalf("line after the trailer: %s", line)
		case line[0] == '[':
			var row []*string
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("row line %q: %v", line, err)
			}
			st.rows = append(st.rows, row)
		default:
			var info JobInfo
			if err := json.Unmarshal(line, &info); err != nil {
				t.Fatalf("resource line %q: %v", line, err)
			}
			if withHeader && st.header == nil {
				if len(st.rows) > 0 {
					t.Fatalf("rows ahead of the job resource: %s", line)
				}
				st.header = &info
			} else {
				st.trailer = &info
			}
		}
	}
	return st
}

// submitStream POSTs sql asking for NDJSON and returns the open response.
func submitStream(t *testing.T, url, session, sql string) *http.Response {
	t.Helper()
	data, _ := json.Marshal(queryRequest{SQL: sql, Session: session}) //nolint:errcheck // strings marshal
	req, err := http.NewRequest(http.MethodPost, url+"/v1/queries", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getResource fetches GET /v1/queries/{id}.
func getResource(t *testing.T, url, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/queries/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestSubmitWithoutAcceptIsPlainJSON pins the pre-existing submit
// response byte for byte (recorded from the parent commit): a job held
// in the queued state behind a full execution slot, so the body does
// not depend on scheduling.
func TestSubmitWithoutAcceptIsPlainJSON(t *testing.T) {
	eng := pairEngine(t, 61, 1)
	srv := New(eng, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	l, r := pairStrings(t, 61, 1)
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	defer leader.Abandon()
	parked, serr := srv.StartJob("", "SELECT id FROM Pair WHERE a ~= b")
	if serr != nil {
		t.Fatal(serr)
	}
	defer srv.CancelJob(parked.ID()) //nolint:errcheck // teardown

	resp, body := postJSON(t, ts.URL+"/v1/queries", map[string]string{"sql": "SELECT id FROM Pair"})
	const golden = `{"id":"j000002","state":"queued","rows_emitted":0,"statements_done":0,` +
		`"stats":{"RowsScanned":0,"ProbeRequests":0,"NewTupleRequests":0,"Comparisons":0,"CacheHits":0,"SharedFlights":0,"BudgetDenied":0},` +
		`"spent_cents":0,"trace_id":"j000002"}` + "\n"
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if string(body) != golden {
		t.Fatalf("submit body changed:\n got %s\nwant %s", body, golden)
	}
}

var updateStreamGolden = flag.Bool("update-stream-golden", false,
	"rewrite testdata/parent/point_stream.ndjson from this tree (only for an intended change of the wire format)")

// TestSubmitStreamPointGolden pins a point answer's whole submit-and-stream
// body byte for byte — head, row and trailer — against the body the
// commit before the line appender wrote. The job is held behind a taken
// slot until its head is out, so the head does not depend on scheduling.
func TestSubmitStreamPointGolden(t *testing.T) {
	eng := pairEngine(t, 81, 3)
	srv := New(eng, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	srv.slots <- struct{}{}
	resp := submitStream(t, ts.URL, "", "SELECT a, b FROM Pair WHERE id = 1")
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	head, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	<-srv.slots
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	body := append(head, rest...)
	golden := filepath.Join("testdata", "parent", "point_stream.ndjson")
	if *updateStreamGolden {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("submit-and-stream body changed:\n got %s\nwant %s", body, want)
	}
}

// TestSubmitStreamOutcomes: with Accept: application/x-ndjson line 1 is
// the job resource, the rows follow, and the last line is the terminal
// resource — the same one GET /v1/queries/{id} serves afterwards — for
// a job that finishes, one that fails and one that is cancelled.
func TestSubmitStreamOutcomes(t *testing.T) {
	eng := pairEngine(t, 53, 3)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	check := func(t *testing.T, resp *http.Response, st ndjsonStream, want JobState, rows int) {
		t.Helper()
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if st.header == nil || st.header.ID == "" {
			t.Fatalf("line 1 is not a job resource: %+v", st.header)
		}
		if st.trailer == nil {
			t.Fatal("stream ended without a trailer")
		}
		if st.trailer.State != want || st.trailer.ID != st.header.ID {
			t.Fatalf("trailer = %+v, want state %s of job %s", st.trailer, want, st.header.ID)
		}
		if len(st.rows) != rows || st.trailer.RowsEmitted != rows {
			t.Fatalf("streamed %d rows, trailer rows_emitted %d, want %d", len(st.rows), st.trailer.RowsEmitted, rows)
		}
		if polled := getResource(t, ts.URL, st.header.ID); !reflect.DeepEqual(*st.trailer, polled) {
			t.Fatalf("trailer differs from the polled resource:\n%+v\n%+v", *st.trailer, polled)
		}
	}

	t.Run("done", func(t *testing.T) {
		resp := submitStream(t, ts.URL, "", "SELECT id FROM Pair WHERE a ~= b")
		defer resp.Body.Close()
		st := readStream(t, bufio.NewScanner(resp.Body), true)
		check(t, resp, st, JobDone, 3)
		if st.trailer.Stats.Comparisons != 3 || st.trailer.SpentCents <= 0 {
			t.Fatalf("trailer carries no spend: %+v", st.trailer)
		}
	})

	t.Run("failed", func(t *testing.T) {
		resp := submitStream(t, ts.URL, "", "SELECT id FROM Pair; SELECT id FROM NoSuchTable")
		defer resp.Body.Close()
		st := readStream(t, bufio.NewScanner(resp.Body), true)
		check(t, resp, st, JobFailed, 3)
		if st.trailer.Error == nil || st.trailer.Error.Code != CodeInternal {
			t.Fatalf("trailer error = %v, want %s", st.trailer.Error, CodeInternal)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		eng := pairEngine(t, 61, 1)
		srv := New(eng, Config{})
		inner := httptest.NewServer(srv.HTTPHandler())
		defer inner.Close()
		l, r := pairStrings(t, 61, 1)
		leader := eng.Cache().ClaimEqual("", l, r)
		if !leader.Leader {
			t.Fatal("test setup: expected to lead the claim")
		}
		defer leader.Abandon()

		resp := submitStream(t, inner.URL, "", "SELECT id FROM Pair WHERE a ~= b")
		defer resp.Body.Close()
		// The resource line arrives while the job is parked on the crowd.
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var accepted JobInfo
		if err := json.Unmarshal(line, &accepted); err != nil || accepted.State.Terminal() {
			t.Fatalf("line 1 = %s (%v), want a live job resource", line, err)
		}
		if _, cerr := srv.CancelJob(accepted.ID); cerr != nil {
			t.Fatal(cerr)
		}
		st := readStream(t, bufio.NewScanner(br), false)
		if st.trailer == nil || st.trailer.State != JobCancelled || st.trailer.ID != accepted.ID || len(st.rows) != 0 {
			t.Fatalf("stream after cancel = %+v", st)
		}
	})
}

// TestSubmitStreamRejectionIsPlainJSON: a submit the server refuses —
// here by budget-aware admission — never becomes a stream; the coded
// error arrives as the usual JSON body whatever the client accepts.
func TestSubmitStreamRejectionIsPlainJSON(t *testing.T) {
	eng := pairEngine(t, 19, 8)
	srv := New(eng, Config{AdmissionHeadroom: 1})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	capped, serr := srv.CreateSession(1)
	if serr != nil {
		t.Fatal(serr)
	}
	resp := submitStream(t, ts.URL, capped.ID(), "SELECT id FROM Pair WHERE a ~= b")
	defer resp.Body.Close()
	if resp.StatusCode != errf(CodeBudgetExhausted, "").HTTPStatus() || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == nil || body.Error.Code != CodeBudgetExhausted {
		t.Fatalf("body = %+v (%v), want %s", body, err, CodeBudgetExhausted)
	}
	if st := eng.Tasks().Stats(); st.GroupsPosted != 0 {
		t.Fatalf("rejected submit posted %d groups", st.GroupsPosted)
	}
}

// TestResumedJobStreamEndsInResource: a durable job interrupted by a
// crash and resumed on the restarted server serves GET .../rows?from=N
// with exactly the tail, then the terminal resource — rows_emitted is
// the whole job's count, N plus what this stream carried.
func TestResumedJobStreamEndsInResource(t *testing.T) {
	const seed, n, budget, from = 47, 4, 20, 2
	dir := t.TempDir()
	data, jpath := filepath.Join(dir, "data"), filepath.Join(dir, "jobs.log")
	jobID, _, _ := crashMidQuery(t, data, jpath, seed, n, budget, nil)

	eng2 := durableEngine(t, data, seed, n, storage.SyncAlways)
	defer eng2.Close()
	srv2 := New(eng2, Config{})
	if err := srv2.EnableJournal(jpath, storage.SyncAlways); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv2.HTTPHandler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%s/rows?from=%d", ts.URL, jobID, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := readStream(t, bufio.NewScanner(resp.Body), false)
	if st.trailer == nil || st.trailer.State != JobDone || st.trailer.ID != jobID {
		t.Fatalf("trailer = %+v, want the done resource of %s", st.trailer, jobID)
	}
	if len(st.rows) != n-from || st.trailer.RowsEmitted != n {
		t.Fatalf("tail has %d rows, rows_emitted %d, want %d and %d", len(st.rows), st.trailer.RowsEmitted, n-from, n)
	}
	job2, serr := srv2.Job(jobID)
	if serr != nil {
		t.Fatal(serr)
	}
	if want := renderedRows(job2)[from:]; len(want) != len(st.rows) || *st.rows[0][0] != want[0] {
		t.Fatalf("tail starts at %q, want %q", *st.rows[0][0], want[0])
	}
}

// TestSSEEndEventIsTheResource: the SSE framing carries the same
// trailer as NDJSON.
func TestSSEEndEventIsTheResource(t *testing.T) {
	eng := pairEngine(t, 59, 2)
	srv := New(eng, Config{})
	job, serr := srv.StartJob("", "SELECT id FROM Pair")
	if serr != nil {
		t.Fatal(serr)
	}
	waitState(t, job)
	req := httptest.NewRequest(http.MethodGet, "/v1/queries/"+job.ID()+"/rows", nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, req)
	_, end, ok := strings.Cut(rec.Body.String(), "event: end\ndata: ")
	if !ok {
		t.Fatalf("no end event:\n%s", rec.Body)
	}
	var info JobInfo
	if err := json.Unmarshal([]byte(strings.TrimSpace(end)), &info); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, job.Info()) {
		t.Fatalf("end event = %+v, want %+v", info, job.Info())
	}
}

// flushLog is a ResponseWriter that records how many bytes had been
// written at each Flush.
type flushLog struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes []int
}

func (f *flushLog) Header() http.Header { return f.header }
func (f *flushLog) WriteHeader(int)     {}
func (f *flushLog) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(p)
}
func (f *flushLog) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes = append(f.flushes, f.body.Len())
}
func (f *flushLog) snapshot() (string, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.String(), append([]int(nil), f.flushes...)
}

// TestStreamFlushesOnlyNewBytesBeforeBlocking: a stream flushes only once
// its job has waited on something outside the machine, and then only
// what is new before it blocks, never twice for the same bytes. The rows
// and trailer of a finished job, and the head, rows and trailer of a
// machine statement, leave in one write (no explicit flush at all — the
// server's own on return); a job queued behind a held slot, or parked on
// the crowd, has its head flushed while it waits.
func TestStreamFlushesOnlyNewBytesBeforeBlocking(t *testing.T) {
	eng := pairEngine(t, 61, 1)
	srv := New(eng, Config{MaxConcurrent: 1})
	h := srv.HTTPHandler()
	submit := func(sql string) (w *flushLog, served chan struct{}) {
		w, served = &flushLog{header: http.Header{}}, make(chan struct{})
		req := httptest.NewRequest(http.MethodPost, "/v1/queries", strings.NewReader(`{"sql":"`+sql+`"}`))
		req.Header.Set("Accept", "application/x-ndjson")
		go func() {
			defer close(served)
			h.ServeHTTP(w, req)
		}()
		return w, served
	}
	// headFlushed waits for the stream's first flush, which must carry the
	// head — a live job resource — and nothing else.
	headFlushed := func(w *flushLog, what string) JobInfo {
		t.Helper()
		var head JobInfo
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			body, flushes := w.snapshot()
			if len(flushes) > 0 {
				if flushes[0] != len(body) || json.Unmarshal([]byte(body), &head) != nil || head.State.Terminal() {
					t.Fatalf("%s: first flush at %d bytes of %q, want the whole resource line", what, flushes[0], body)
				}
				return head
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the resource line was never flushed", what)
			}
		}
	}
	// cancelAfterHead cancels the job whose head was flushed and checks the
	// stream ends in the cancelled trailer with no second flush.
	cancelAfterHead := func(w *flushLog, served chan struct{}, head JobInfo, what string) {
		t.Helper()
		if _, cerr := srv.CancelJob(head.ID); cerr != nil {
			t.Fatal(cerr)
		}
		<-served
		body, flushes := w.snapshot()
		if len(flushes) != 1 {
			t.Fatalf("%s: flushed at %v over %d bytes, want once (the resource line)", what, flushes, len(body))
		}
		if !strings.HasSuffix(strings.TrimSpace(body), `}`) || !strings.Contains(body[flushes[0]:], `"state":"cancelled"`) {
			t.Fatalf("%s: stream after the flush = %q, want the cancelled trailer", what, body[flushes[0]:])
		}
	}

	done, serr := srv.StartJob("", "SELECT id FROM Pair")
	if serr != nil {
		t.Fatal(serr)
	}
	waitState(t, done)
	w := &flushLog{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/queries/"+done.ID()+"/rows", nil))
	if body, flushes := w.snapshot(); len(flushes) != 0 || strings.Count(body, "\n") != 2 {
		t.Fatalf("finished job: %d flushes for %q, want none for row + trailer", len(flushes), body)
	}

	// A machine statement never waits: head, row and trailer, no flush.
	w, served := submit("SELECT id FROM Pair")
	<-served
	if body, flushes := w.snapshot(); len(flushes) != 0 || !strings.HasPrefix(body, `{"id":`) ||
		strings.Count(body, "\n") != 3 || !strings.Contains(body, "\n[\"0\"]\n") || !strings.Contains(body, `"state":"done"`) {
		t.Fatalf("machine statement: %d flushes for %q, want none for head + row + trailer", len(flushes), body)
	}

	// A job queued behind a held slot: its head goes out while it waits,
	// so a client has the id to cancel it with.
	srv.slots <- struct{}{}
	w, served = submit("SELECT id FROM Pair")
	head := headFlushed(w, "queued job")
	if head.State != JobQueued {
		t.Fatalf("queued job: head in state %s", head.State)
	}
	cancelAfterHead(w, served, head, "queued job")
	<-srv.slots

	// A job parked on the crowd: the head is flushed at its first wait.
	l, r := pairStrings(t, 61, 1)
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	defer leader.Abandon()
	w, served = submit("SELECT id FROM Pair WHERE a ~= b")
	head = headFlushed(w, "parked job")
	time.Sleep(20 * time.Millisecond) // progress broadcasts wake the loop with nothing to send
	cancelAfterHead(w, served, head, "parked job")
}
