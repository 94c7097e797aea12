package client_test

// One request per statement: the stream Submit opens is the one Rows
// reads and the one whose trailer answers Wait. Everything here runs
// against a real server.New(...).HTTPHandler(), with requests, dials
// and open connections counted from outside the SDK.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/server"
	"crowddb/internal/workload"
	"crowddb/pkg/client"
)

// wire counts what a client puts on the network.
type wire struct {
	requests, dials, open atomic.Int64
	mu                    sync.Mutex
	paths                 []string // "METHOD /path?query" per request, in order
	closeIdle             func()   // drops the transport's pooled connections
}

func (w *wire) seen() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.paths...)
}

type countedConn struct {
	net.Conn
	once sync.Once
	open *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingClient returns an SDK client over its own transport, with the
// counters that watch it.
func countingClient(t *testing.T, url string, opts ...client.Option) (*client.Client, *wire) {
	t.Helper()
	w := &wire{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			w.dials.Add(1)
			w.open.Add(1)
			return &countedConn{Conn: conn, open: &w.open}, nil
		},
	}
	w.closeIdle = tr.CloseIdleConnections
	t.Cleanup(w.closeIdle)
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		w.requests.Add(1)
		w.mu.Lock()
		w.paths = append(w.paths, r.Method+" "+r.URL.RequestURI())
		w.mu.Unlock()
		return tr.RoundTrip(r)
	})}
	return client.New(url, append([]client.Option{client.WithHTTPClient(hc)}, opts...)...), w
}

// drain reads every row off it and closes it.
func drain(t testing.TB, it *client.RowIter) []client.Row {
	t.Helper()
	defer it.Close()
	var rows []client.Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// park makes the one-pair query of testServer(t, seed, 1) block on a
// foreign in-flight comparison until the returned release is called.
func park(t *testing.T, eng *core.Engine, seed int64) (release func()) {
	t.Helper()
	c := workload.NewCompanies(1, seed).List[0]
	leader := eng.Cache().ClaimEqual("", c.Canonical, c.Variants[len(c.Variants)-1])
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	return leader.Abandon
}

const parkedQuery = "SELECT id FROM Pair WHERE a ~= b"

func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestStatementIsOneRequest: Submit → Rows → Wait is exactly one request
// on an already-open connection, and the resource Wait returns from the
// trailer is the one Status fetches, field for field.
func TestStatementIsOneRequest(t *testing.T) {
	ts, _ := testServer(t, 81, 3)
	ctx := testContext(t)
	c, w := countingClient(t, ts.URL)
	if _, err := c.Query(ctx, "SELECT id FROM Pair"); err != nil { // warm-up: opens the connection
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		requests, dials := w.requests.Load(), w.dials.Load()
		job, err := c.Submit(ctx, "SELECT id, a FROM Pair WHERE a ~= b")
		if err != nil {
			t.Fatal(err)
		}
		it, err := job.Rows(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows := drain(t, it)
		st, err := job.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.requests.Load() - requests; got != 1 {
			t.Fatalf("statement %d took %d requests, want 1: %v", i, got, w.seen())
		}
		if got := w.dials.Load() - dials; got != 0 {
			t.Fatalf("statement %d dialled %d new connections, want 0", i, got)
		}
		if st.State != "done" || len(rows) != 3 || st.RowsEmitted != 3 || it.FinalState() != "done" {
			t.Fatalf("rows=%d final=%q status=%+v", len(rows), it.FinalState(), st)
		}
		polled, err := job.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, polled) {
			t.Fatalf("Wait's stored resource differs from Status:\n%+v\n%+v", st, polled)
		}
		again, err := job.Wait(ctx)
		if err != nil || !reflect.DeepEqual(again, st) || again == st {
			t.Fatalf("second Wait = %+v (%v), want an equal copy", again, err)
		}
	}
	requests := w.requests.Load()
	if res, err := c.Query(ctx, "SELECT id FROM Pair"); err != nil || len(res.Rows) != 3 || res.Status.State != "done" {
		t.Fatalf("Query = %+v, %v", res, err)
	}
	if got := w.requests.Load() - requests; got != 1 {
		t.Fatalf("Query took %d requests, want 1: %v", got, w.seen())
	}
}

// TestWaitWithoutRows: Wait alone drains the stream Submit left on the
// handle and returns its trailer — also for a failed job, and for a job
// cancelled while parked on the crowd.
func TestWaitWithoutRows(t *testing.T) {
	ts, eng := testServer(t, 87, 1)
	ctx := testContext(t)
	c, w := countingClient(t, ts.URL)

	job, err := c.Submit(ctx, "SELECT id FROM Pair")
	if err != nil {
		t.Fatal(err)
	}
	st, err := job.Wait(ctx)
	if err != nil || st.State != "done" || st.RowsEmitted != 1 {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	job, err = c.Submit(ctx, "SELECT id FROM NoSuchTable")
	if err != nil {
		t.Fatal(err)
	}
	st, err = job.Wait(ctx)
	var coded *client.Error
	if err != nil || st.State != "failed" || !errors.As(st.Err(), &coded) || coded.Code != "internal" {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	if got := w.requests.Load(); got != 2 {
		t.Fatalf("two Submit → Wait took %d requests, want 2: %v", got, w.seen())
	}

	defer park(t, eng, 87)()
	job, err = c.Submit(ctx, parkedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	st, err = job.Wait(ctx)
	if err != nil || st.State != "cancelled" {
		t.Fatalf("Wait after Cancel = %+v, %v", st, err)
	}
	if got := w.seen(); len(got) != 4 || !strings.HasPrefix(got[3], "DELETE ") {
		t.Fatalf("Submit → Cancel → Wait issued %v, want POST then DELETE", got[2:])
	}
}

// TestCancelWhileIterating is the remote shell's use: one goroutine in
// Next on the taken stream, another cancelling through the same handle.
func TestCancelWhileIterating(t *testing.T) {
	ts, eng := testServer(t, 87, 1)
	ctx := testContext(t)
	c, w := countingClient(t, ts.URL)
	defer park(t, eng, 87)()

	job, err := c.Submit(ctx, parkedQuery)
	if err != nil {
		t.Fatal(err)
	}
	it, err := job.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	next := make(chan bool, 1)
	go func() { next <- it.Next() }()
	select {
	case <-next:
		t.Fatal("Next returned while the job was parked")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := job.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	if <-next || it.Err() != nil || it.FinalState() != "cancelled" {
		t.Fatalf("stream after cancel: err=%v final=%q", it.Err(), it.FinalState())
	}
	st, err := job.Wait(ctx)
	if err != nil || st.State != "cancelled" {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	if got := w.requests.Load(); got != 2 {
		t.Fatalf("%d requests, want 2 (submit, cancel): %v", got, w.seen())
	}
}

// TestRowsAfterSubmitContextDone: the stream reads under Submit's
// context, so once that is done Rows opens a new one under its own —
// every row arrives exactly once.
func TestRowsAfterSubmitContextDone(t *testing.T) {
	ts, _ := testServer(t, 81, 3)
	ctx := testContext(t)
	c, w := countingClient(t, ts.URL)

	sctx, cancel := context.WithCancel(ctx)
	job, err := c.Submit(sctx, "SELECT id FROM Pair")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	it, err := job.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, it)
	if len(rows) != 3 || rows[0].Cell(0) != "0" || rows[2].Cell(0) != "2" {
		t.Fatalf("rows = %v, want ids 0..2 once each", rows)
	}
	st, err := job.Wait(ctx)
	if err != nil || st.State != "done" {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	want := []string{"POST /v1/queries", "GET /v1/queries/" + job.ID() + "/rows?from=0"}
	if got := w.seen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("requests = %v, want %v", got, want)
	}
}

// TestRowsContextAbortsTakenStream: a context given to Rows that is not
// Submit's still bounds the iteration.
func TestRowsContextAbortsTakenStream(t *testing.T) {
	ts, eng := testServer(t, 87, 1)
	ctx := testContext(t)
	c, _ := countingClient(t, ts.URL)
	defer park(t, eng, 87)()

	job, err := c.Submit(ctx, parkedQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Cancel(ctx) //nolint:errcheck // teardown
	rctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	it, err := job.Rows(rctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Next() || !errors.Is(it.Err(), context.DeadlineExceeded) {
		t.Fatalf("Next under an expired context: err = %v", it.Err())
	}
}

// cutAfter wraps a handler so that the first submit-and-stream response
// breaks — flushed, then aborted without a trailer — right after its
// k-th row.
func cutAfter(k int, next http.Handler) http.Handler {
	var cut atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/queries" || !cut.CompareAndSwap(false, true) {
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(&cuttingWriter{ResponseWriter: w, left: k + 1}, r) // + the resource line
	})
}

type cuttingWriter struct {
	http.ResponseWriter
	left int // lines still to let through
}

// Write lets lines through until the last one it may, however many a
// write carries, then breaks the stream.
func (c *cuttingWriter) Write(p []byte) (int, error) {
	for i, b := range p {
		if b != '\n' {
			continue
		}
		if c.left--; c.left == 0 {
			c.ResponseWriter.Write(p[:i+1]) //nolint:errcheck // aborted next
			c.ResponseWriter.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
	}
	return c.ResponseWriter.Write(p)
}

func (c *cuttingWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestStreamCutResumesAtNextRow: a submit stream that breaks after row
// k surfaces through Err on a plain iterator, and StreamRows carries on
// with GET .../rows?from=k — no duplicates, no gaps.
func TestStreamCutResumesAtNextRow(t *testing.T) {
	const k = 2
	_, eng := testServer(t, 81, 5)
	ctx := testContext(t)
	newCutServer := func() *httptest.Server {
		ts := httptest.NewServer(cutAfter(k, server.New(eng, server.Config{}).HTTPHandler()))
		t.Cleanup(ts.Close)
		return ts
	}

	c, _ := countingClient(t, newCutServer().URL)
	job, err := c.Submit(ctx, "SELECT id FROM Pair")
	if err != nil {
		t.Fatal(err)
	}
	it, err := job.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	it.Close()
	if n != k || it.Err() == nil || it.FinalState() != "" {
		t.Fatalf("cut stream: %d rows, err=%v, final=%q; want %d rows and an error", n, it.Err(), it.FinalState(), k)
	}
	if st, err := job.Wait(ctx); err != nil || st.State != "done" { // no trailer seen: polls
		t.Fatalf("Wait after a cut stream = %+v, %v", st, err)
	}

	c, w := countingClient(t, newCutServer().URL, client.WithPollInterval(time.Millisecond))
	job, err = c.Submit(ctx, "SELECT id FROM Pair")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	state, jobErr, err := job.StreamRows(ctx, 0, 3, func(row client.Row) error {
		got = append(got, row.Cell(0))
		return nil
	})
	if err != nil || state != "done" || jobErr != nil {
		t.Fatalf("StreamRows = %q, %v, %v", state, jobErr, err)
	}
	if want := []string{"0", "1", "2", "3", "4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v", got, want)
	}
	want := []string{"POST /v1/queries", fmt.Sprintf("GET /v1/queries/%s/rows?from=%d", job.ID(), k)}
	if seen := w.seen(); !reflect.DeepEqual(seen, want) {
		t.Fatalf("requests = %v, want %v", seen, want)
	}
	if st, err := job.Wait(ctx); err != nil || st.State != "done" || w.requests.Load() != 2 {
		t.Fatalf("Wait after the resumed stream = %+v, %v (%d requests)", st, err, w.requests.Load())
	}
}

// TestReattachedHandlePolls: Client.Job(id) holds no stream, so Wait
// still polls the job resource.
func TestReattachedHandlePolls(t *testing.T) {
	ts, _ := testServer(t, 81, 2)
	ctx := testContext(t)
	c, w := countingClient(t, ts.URL)
	job, err := c.Submit(ctx, "SELECT id FROM Pair")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(job.ID()).Wait(ctx)
	if err != nil || st.State != "done" || st.RowsEmitted != 2 {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	if got := w.seen(); len(got) < 2 || got[len(got)-1] != "GET /v1/queries/"+job.ID() {
		t.Fatalf("requests = %v, want a poll of the job resource", got)
	}
}

// TestRowLineLimit: the scan buffer starts at bufio's size and grows,
// mid-stream, to the 1 MiB line limit — rows of 100 B to 900 KiB arrive
// whole and in order, a longer-than-1-MiB one fails with bufio.ErrTooLong
// as it always did.
func TestRowLineLimit(t *testing.T) {
	ts, eng := testServer(t, 81, 1)
	ctx := testContext(t)
	c, _ := countingClient(t, ts.URL)
	if _, err := eng.Exec(`CREATE TABLE Doc (id INTEGER PRIMARY KEY, body STRING)`); err != nil {
		t.Fatal(err)
	}
	sizes := []int{100, 5 << 10, 70 << 10, 900 << 10, 100, 1<<20 + 1}
	body := func(id int) string { return strings.Repeat(string(rune('a'+id)), sizes[id]) }
	for id := range sizes {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Doc VALUES (%d, '%s')", id, body(id))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(ctx, "SELECT id, body FROM Doc WHERE id < 5 ORDER BY id")
	if err != nil || len(res.Rows) != 5 {
		t.Fatalf("rows of %v bytes: %d rows, %v", sizes[:5], len(res.Rows), err)
	}
	for id, row := range res.Rows {
		if row.Cell(0) != fmt.Sprint(id) || row.Cell(1) != body(id) {
			t.Fatalf("row %d: id %s with %d bytes, want %d", id, row.Cell(0), len(row.Cell(1)), sizes[id])
		}
	}
	job, err := c.Submit(ctx, "SELECT body FROM Doc WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	it, err := job.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Next() || !errors.Is(it.Err(), bufio.ErrTooLong) {
		t.Fatalf("over-long row: err = %v, want %v", it.Err(), bufio.ErrTooLong)
	}
}

// pointStatement is one primary-key SELECT the way bench/perf's clients
// send it: Submit, every row, Wait.
func pointStatement(ctx context.Context, tb testing.TB, c *client.Client) {
	tb.Helper()
	job, err := c.Submit(ctx, "SELECT a, b FROM Pair WHERE id = 1")
	if err != nil {
		tb.Fatal(err)
	}
	it, err := job.Rows(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	rows := drain(tb, it)
	if st, err := job.Wait(ctx); err != nil || st.State != "done" || len(rows) != 1 {
		tb.Fatalf("point statement: %d rows, %+v, %v", len(rows), st, err)
	}
}

// TestStatementExchangeBytes: what a point statement allocates, client
// and server together, is a few buffers of net/http's size — not a scan
// buffer sized for the longest line the protocol allows.
func TestStatementExchangeBytes(t *testing.T) {
	ts, _ := testServer(t, 81, 3)
	ctx := testContext(t)
	c, _ := countingClient(t, ts.URL)
	for i := 0; i < 50; i++ {
		pointStatement(ctx, t, c)
	}
	const statements = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < statements; i++ {
		pointStatement(ctx, t, c)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / statements; per > 64<<10 {
		t.Fatalf("a point statement allocates %d KiB, want at most 64", per>>10)
	}
}

// BenchmarkClientStatement is the layer bench for the client half of the
// exchange: one point statement against an in-process server.
func BenchmarkClientStatement(b *testing.B) {
	ts, _ := testServer(b, 81, 3)
	ctx := context.Background()
	c := client.New(ts.URL)
	pointStatement(ctx, b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointStatement(ctx, b, c)
	}
}

// TestJobCloseReleasesUnclaimedStream: Close on a handle whose stream
// nobody took gives the connection up and leaves no goroutine behind —
// in the client or in the server's handler.
func TestJobCloseReleasesUnclaimedStream(t *testing.T) {
	ts, eng := testServer(t, 87, 1)
	ctx := testContext(t)
	c, w := countingClient(t, ts.URL)
	defer park(t, eng, 87)()
	settle := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d connections open, %d goroutines", what, w.open.Load(), runtime.NumGoroutine())
			}
		}
	}
	before := runtime.NumGoroutine()

	job, err := c.Submit(ctx, parkedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if w.open.Load() != 1 {
		t.Fatalf("%d connections open while the handle holds its stream, want 1", w.open.Load())
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil { // nothing held any more
		t.Fatal(err)
	}
	settle("after Close", func() bool { return w.open.Load() == 0 })

	// The job itself is untouched: stop it, then nothing may be left of
	// the exchange on either side.
	if _, err := job.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := job.Wait(ctx); err != nil || st.State != "cancelled" {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	settle("after the job ended", func() bool {
		w.closeIdle()
		return w.open.Load() == 0 && runtime.NumGoroutine() <= before
	})
}
