// Package client is the public Go SDK for the crowddbd Jobs API (v1).
//
// Queries run as asynchronous jobs: Submit returns a typed Job handle
// whose Rows iterator streams partial results while the crowd is still
// working, Wait returns the terminal job resource, and Cancel stops the
// query mid-crowd-wait (the server stops posting new HITs and settles
// the budget for work already paid).
//
// A statement is one HTTP exchange: Submit asks the server to answer
// with the job resource followed by the row stream, Rows hands that
// stream over instead of opening another request, and Wait returns the
// terminal resource the stream's trailer carried. The server sends the
// resource once the job first waits — for an execution slot or the
// crowd — or once its answer ends or fills the server's write buffer, so
// a machine statement's Submit returns with its whole answer buffered
// (or the first few KiB of a long one). Requests are only added when
// they are needed — Status, Cancel, a second Rows, a resumed RowsFrom,
// or Wait on a handle reattached with Client.Job, which polls.
//
// Ownership: a handle from Submit holds an open response until Rows,
// Wait or Close takes it — call one of them on every handle, and Close
// every RowIter. The held stream reads under the context given to
// Submit; cancelling that context aborts it.
//
// Quickstart:
//
//	c := client.New("http://localhost:8090")
//	job, _ := c.Submit(ctx, "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'better?');")
//	it, _ := job.Rows(ctx)
//	defer it.Close()
//	for it.Next() {
//	    fmt.Println(it.Row())
//	}
//	st, _ := job.Wait(ctx)
//	fmt.Println(st.State, st.SpentCents)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"crowddb/internal/jsonline"
)

// Client talks to one crowddbd server. It is safe for concurrent use
// once configured; CreateSession mutates the bound session and is not.
type Client struct {
	base    string
	hc      *http.Client
	session string
	// pollInterval paces Wait's job polling.
	pollInterval time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, tests).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithSession binds an existing server session id to the client.
func WithSession(id string) Option { return func(c *Client) { c.session = id } }

// WithPollInterval tunes Wait's poll pacing (default 50ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.pollInterval = d
		}
	}
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8090").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           &http.Client{},
		pollInterval: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Error is a coded server error (the wire contract's stable part).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Stats mirrors the server's per-statement crowd counters.
type Stats struct {
	RowsScanned      int `json:"RowsScanned"`
	ProbeRequests    int `json:"ProbeRequests"`
	NewTupleRequests int `json:"NewTupleRequests"`
	Comparisons      int `json:"Comparisons"`
	CacheHits        int `json:"CacheHits"`
	SharedFlights    int `json:"SharedFlights"`
	BudgetDenied     int `json:"BudgetDenied"`
}

// JobStatus is the v1 job resource.
type JobStatus struct {
	ID               string   `json:"id"`
	State            string   `json:"state"`
	Session          string   `json:"session"`
	Columns          []string `json:"columns"`
	RowsEmitted      int      `json:"rows_emitted"`
	Affected         int      `json:"affected"`
	Plan             string   `json:"plan"`
	Warnings         []string `json:"warnings"`
	StatementsDone   int      `json:"statements_done"`
	Stats            Stats    `json:"stats"`
	PredictedCents   float64  `json:"predicted_cents"`
	PredictedSeconds float64  `json:"predicted_seconds"`
	SpentCents       float64  `json:"spent_cents"`
	ActualCents      float64  `json:"actual_cents"`
	Error            *Error   `json:"error"`
}

// Terminal reports whether the job has reached a final state
// (interrupted is reached only across a server restart, when a job
// found mid-flight in the durable journal could not be resumed).
func (s *JobStatus) Terminal() bool {
	switch s.State {
	case "done", "failed", "cancelled", "interrupted":
		return true
	}
	return false
}

// Err returns the job's failure as an error (nil while running, done, or
// cancelled without a coded reason).
func (s *JobStatus) Err() error {
	if s.Error != nil {
		return s.Error
	}
	return nil
}

// SessionInfo mirrors the server's session resource.
type SessionInfo struct {
	ID         string `json:"id"`
	Queries    int    `json:"queries"`
	BudgetLeft int    `json:"budget_left"`
	Stats      Stats  `json:"stats"`
}

// The header values every request shares. A request's header map is its
// own, since a cookie jar on the http.Client writes into it; these slices
// are not written, and with cap == len an Add copies them. An empty
// User-Agent makes net/http send none, and asking for the identity
// encoding spares the transport its gzip negotiation: the server never
// compresses.
var (
	identity    = []string{"identity"}
	noUserAgent = []string{""}
	jsonType    = []string{"application/json"}
	ndjsonType  = []string{ndjson}
)

// send issues one request — body, when non-nil, as its JSON body, accept,
// when non-nil, as its Accept header — and returns the open response. A
// status >= 400 comes back as the body's coded *Error (or a plain error
// quoting it), transport failures as plain errors.
func (c *Client) send(ctx context.Context, method, path string, accept []string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		// NewRequestWithContext wraps a *bytes.Reader so that net/http
		// knows the body is in memory and writes it with the header.
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	h := req.Header
	h["Accept-Encoding"], h["User-Agent"] = identity, noUserAgent
	if body != nil {
		h["Content-Type"] = jsonType
	}
	if accept != nil {
		h["Accept"] = accept
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 400 {
		return resp, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var er struct {
		Error *Error `json:"error"`
	}
	if json.Unmarshal(data, &er) == nil && er.Error != nil {
		return nil, er.Error
	}
	return nil, fmt.Errorf("client: %s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
}

// read is send returning the whole response body.
func (c *Client) read(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.send(ctx, method, path, nil, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// do is a plain JSON exchange: in, when non-nil, is marshalled as the
// body, and the response body decodes into out (nil = discard it).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	data, err := c.read(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// CreateSession opens a server session with the given crowd-comparison
// budget (0 = server default, negative = unlimited) and binds it to the
// client: subsequent Submit calls run on it.
func (c *Client) CreateSession(ctx context.Context, budget int) (*SessionInfo, error) {
	var info SessionInfo
	if err := c.do(ctx, http.MethodPost, "/session", map[string]int{"budget": budget}, &info); err != nil {
		return nil, err
	}
	c.session = info.ID
	return &info, nil
}

// Session returns the bound session id ("" = anonymous).
func (c *Client) Session() string { return c.session }

// SessionStatus fetches the bound session's resource.
func (c *Client) SessionStatus(ctx context.Context) (*SessionInfo, error) {
	if c.session == "" {
		return nil, fmt.Errorf("client: no session bound")
	}
	var info SessionInfo
	if err := c.do(ctx, http.MethodGet, "/session/"+url.PathEscape(c.session), nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// CloseSession closes the bound session. The server cancels the
// session's in-flight jobs (they fail with session_closed).
func (c *Client) CloseSession(ctx context.Context) error {
	if c.session == "" {
		return nil
	}
	err := c.do(ctx, http.MethodDelete, "/session/"+url.PathEscape(c.session), nil, nil)
	if err == nil {
		c.session = ""
	}
	return err
}

// Healthy reports whether the server answers /healthz affirmatively.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil) == nil
}

// Stats fetches the server's full /stats report as raw JSON (its shape
// grows; callers pick what they need).
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// ---------------------------------------------------------------------------
// Jobs

// Job is a typed handle on one submitted query job, safe for concurrent
// use (Cancel or Status while another goroutine is in RowIter.Next).
//
// A handle from Submit owns the open response its row stream arrives
// on: call Rows, Wait or Close on it, or the connection stays checked
// out until the job ends. A handle from Client.Job owns nothing.
type Job struct {
	c  *Client
	id string

	mu sync.Mutex
	// stream is the row stream Submit's exchange left open, until Rows,
	// Wait or Close takes it; it reads under streamCtx.
	stream    *RowIter
	streamCtx context.Context
	// final is the terminal job resource a row stream's trailer carried.
	final *JobStatus
}

const ndjson = "application/x-ndjson"

// Submit starts a CrowdSQL script as an asynchronous job on the bound
// session and returns with its handle once the server has sent the job
// resource: as soon as the job waits on the crowd or for an execution
// slot, and for a machine statement, which never waits, with its whole
// answer buffered — resource, rows and trailer arrive together (a long
// answer's first few KiB do). The same exchange carries the job's row
// stream: the handle keeps it, reading under ctx, for Rows or Wait to
// consume (see Job).
func (c *Client) Submit(ctx context.Context, sql string) (*Job, error) {
	// The body json.Marshal writes for {"session": …, "sql": …}: keys in
	// order, no session key for the anonymous one.
	body := append(make([]byte, 0, 32+len(c.session)+len(sql)), '{')
	if c.session != "" {
		body = append(jsonline.AppendString(append(body, `"session":`...), c.session), ',')
	}
	body = append(jsonline.AppendString(append(body, `"sql":`...), sql), '}')
	resp, err := c.send(ctx, http.MethodPost, "/v1/queries", ndjsonType, body)
	if err != nil {
		return nil, err
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ndjson) {
		resp.Body.Close()
		return nil, fmt.Errorf("client: submit: the server answered %q, want %s", ct, ndjson)
	}
	job := &Job{c: c}
	var accepted JobStatus
	it := newRowIter(job, resp.Body)
	err = io.ErrUnexpectedEOF // a stream that ends before its first line
	if sc := &it.st.sc; sc.Scan() {
		err = decodeStatus(sc.Bytes(), &accepted)
	} else if sc.Err() != nil {
		err = sc.Err()
	}
	if err != nil {
		it.Close() //nolint:errcheck // the read error wins
		return nil, fmt.Errorf("client: submit: job resource: %w", err)
	}
	job.id, job.stream, job.streamCtx = accepted.ID, it, ctx
	return job, nil
}

// Job returns a handle for an already-submitted job id — reattaching to
// a query after a client or server restart (durable jobs keep the
// resource, its rows, and its offsets across both).
func (c *Client) Job(id string) *Job { return &Job{c: c, id: id} }

// ID returns the server-side job id.
func (j *Job) ID() string { return j.id }

// Status polls the job resource once.
func (j *Job) Status(ctx context.Context) (*JobStatus, error) {
	return j.resource(ctx, http.MethodGet)
}

// resource asks for the job resource with method: GET polls it, DELETE
// cancels the job.
func (j *Job) resource(ctx context.Context, method string) (*JobStatus, error) {
	data, err := j.c.read(ctx, method, "/v1/queries/"+url.PathEscape(j.id), nil)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := decodeStatus(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// take hands over the stream Submit left on the handle (nil when there
// is none, or it was taken already), to be read under ctx from here on.
// A stream whose own context is done is discarded instead.
func (j *Job) take(ctx context.Context) *RowIter {
	j.mu.Lock()
	it, sctx := j.stream, j.streamCtx
	j.stream, j.streamCtx = nil, nil
	j.mu.Unlock()
	if it == nil {
		return nil
	}
	if sctx.Err() != nil {
		it.Close() //nolint:errcheck // already broken
		return nil
	}
	if ctx.Done() != nil && ctx.Done() != sctx.Done() {
		it.ctx = ctx
		it.stop = context.AfterFunc(ctx, func() { it.body.Close() })
	}
	return it
}

// terminal returns a copy of the terminal resource a stream trailer
// delivered, nil before one did.
func (j *Job) terminal() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final == nil {
		return nil
	}
	st := *j.final
	return &st
}

// Wait blocks until the job reaches a terminal state (or ctx fires) and
// returns the final status. A failed job is not an error at the
// transport level — check status.State / status.Err().
//
// It costs no request once a row stream of this handle has read its
// trailer; if Rows was never called it drains (and discards) the stream
// Submit left on the handle. Only a handle with neither — reattached
// with Client.Job, or whose stream dropped — polls the job resource.
func (j *Job) Wait(ctx context.Context) (*JobStatus, error) {
	if it := j.take(ctx); it != nil {
		for it.Next() {
		}
		it.Close() //nolint:errcheck // drained, or dropped and polled below
	}
	if st := j.terminal(); st != nil {
		return st, nil
	}
	for {
		st, err := j.Status(ctx)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(j.c.pollInterval):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Cancel requests cancellation and returns the job's current snapshot;
// poll (or Wait) for the terminal state. Cancel is idempotent.
func (j *Job) Cancel(ctx context.Context) (*JobStatus, error) {
	return j.resource(ctx, http.MethodDelete)
}

// Close releases the stream Submit left on the handle, if Rows or Wait
// did not take it. The job itself keeps running on the server (Cancel
// stops it) and the handle stays usable: Rows re-opens the stream,
// Wait polls. Closing a handle that holds nothing is a no-op.
func (j *Job) Close() error {
	if it := j.take(context.Background()); it != nil {
		return it.Close()
	}
	return nil
}

// Row is one streamed result row; nil cells are SQL NULL / CNULL.
//
// Rows of one stream may share backing storage: the rows a read found
// buffered together are decoded into one allocation. A Row stays valid
// after later Next calls and after Close, an append to it never writes
// into another row, and neither does writing through one of its cells.
type Row []*string

// Cell renders the i-th cell ("NULL" for nil).
func (r Row) Cell(i int) string {
	if i >= len(r) || r[i] == nil {
		return "NULL"
	}
	return *r[i]
}

// RowIter streams a job's result rows as the server produces them
// (NDJSON over a chunked response). Always Close it; Err reports
// transport errors, FinalState/FinalError the job's outcome trailer.
type RowIter struct {
	job  *Job
	body io.ReadCloser
	// ctx and stop are set when the iterator reads under a context other
	// than its request's (Job.take): stop detaches the watcher that
	// closes body when ctx fires.
	ctx   context.Context
	stop  func() bool
	cur   Row
	err   error
	final *JobStatus
	done  bool

	// mu hands st back to the pool exactly once: Next does when it has
	// read the trailer or failed, Close does when no Next is running —
	// otherwise the Next it interrupted does.
	mu      sync.Mutex
	st      *stream // nil once returned
	reading bool    // a Next is running
	closed  bool
}

// maxLine bounds one NDJSON line (a row, or the job resource): the
// server bounds a request body at 1 MiB, so a statement cannot carry a
// larger literal in, and a row that comes back larger ends the stream
// with bufio.ErrTooLong instead of growing without limit on a server's
// say-so. It is a limit, not a size: the scan buffer starts at bufio's
// own and doubles only when a line does not fit.
const maxLine = 1 << 20

// streamBuf is the pooled scan buffer's size, bufio's own start size.
const streamBuf = 4096

// A stream is what reading one response body takes: the line scanner,
// its buffer and the batch decoder's scratch. It is pooled, so a stream
// costs none of them once the pool is warm.
type stream struct {
	sc  bufio.Scanner
	buf []byte // the scanner's buffer until a longer line grows its own
	batch
	long bool // a batch outgrew buf: its scratch is not kept
}

var streams = sync.Pool{New: func() any { return &stream{buf: make([]byte, streamBuf)} }}

func newRowIter(job *Job, body io.ReadCloser) *RowIter {
	st := streams.Get().(*stream)
	st.sc = *bufio.NewScanner(body)
	st.sc.Buffer(st.buf, maxLine)
	st.sc.Split(splitRows)
	return &RowIter{job: job, body: body, st: st}
}

// splitRows is bufio.ScanLines, except that a row line's token runs on
// over every complete line buffered behind it, up to the first that is
// neither a row nor blank, so Next decodes them as one batch. Like
// ScanLines it asks for more data only when data holds no whole line:
// a stream never waits for a row it would not have waited for one by one.
func splitRows(data []byte, atEOF bool) (int, []byte, error) {
	n, tok, err := bufio.ScanLines(data, atEOF)
	if line := bytes.TrimSpace(tok); len(line) == 0 || line[0] != '[' {
		return n, tok, err
	}
	end := n
	for {
		i := bytes.IndexByte(data[end:], '\n')
		if i < 0 {
			break
		}
		if line := bytes.TrimSpace(data[end : end+i]); len(line) > 0 && line[0] != '[' {
			break
		}
		end += i + 1
	}
	if end == n {
		return n, tok, err
	}
	return end, data[:end], nil
}

// release returns the iterator's stream to the pool; it.mu is held.
func (it *RowIter) release() {
	st := it.st
	if st == nil {
		return
	}
	it.st = nil
	st.sc = bufio.Scanner{} // drops the body and any grown buffer
	st.ptrs, st.ends, st.next, st.err = nil, st.ends[:0], 0, nil
	if st.long {
		st.batch, st.long = batch{}, false
	}
	streams.Put(st)
}

// Rows returns the job's partial-result stream from row 0. The iterator
// ends when the job reaches a terminal state. On a handle from Submit
// the first call takes over the stream that exchange opened and costs
// no request.
func (j *Job) Rows(ctx context.Context) (*RowIter, error) { return j.RowsFrom(ctx, 0) }

// RowsFrom is Rows starting at row index n (resuming a dropped stream);
// any n > 0 opens a new stream.
func (j *Job) RowsFrom(ctx context.Context, n int) (*RowIter, error) {
	if n == 0 {
		if it := j.take(ctx); it != nil {
			return it, nil
		}
	}
	resp, err := j.c.send(ctx, http.MethodGet,
		fmt.Sprintf("/v1/queries/%s/rows?from=%d", url.PathEscape(j.id), n), nil, nil)
	if err != nil {
		return nil, err
	}
	return newRowIter(j, resp.Body), nil
}

// Next advances to the next row, blocking until the server streams one
// (or the job ends). It returns false at the end of the stream.
func (it *RowIter) Next() bool {
	it.mu.Lock()
	st := it.st
	if st == nil {
		if it.closed && !it.done && it.err == nil {
			it.err = errClosed
		}
		it.mu.Unlock()
		return false
	}
	it.reading = true
	it.mu.Unlock()

	ok := it.next(st)
	it.mu.Lock()
	if it.reading = false; !ok || it.closed {
		it.release()
	}
	it.mu.Unlock()
	return ok
}

var errClosed = errors.New("client: Next on a closed RowIter")

// next is Next with the stream in hand: it hands out the rows of the
// batch the last row line started before it reads on.
func (it *RowIter) next(st *stream) bool {
	if row, ok := st.pop(); ok {
		it.cur = row
		return true
	}
	if st.err != nil {
		it.err = st.err
		return false
	}
	for st.sc.Scan() {
		tok := st.sc.Bytes()
		line := bytes.TrimSpace(tok)
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			st.long = st.long || len(tok) > streamBuf
			st.decode(tok)
			return it.next(st)
		}
		// Trailer object: the terminal job resource.
		var final JobStatus
		if err := decodeStatus(line, &final); err != nil {
			it.err = err
			return false
		}
		it.final, it.done = &final, true
		if final.ID == it.job.id {
			it.job.mu.Lock()
			it.job.final = &final
			it.job.mu.Unlock()
		}
		// Nothing follows the trailer; reading the end of the body is what
		// returns the connection to the pool.
		for st.sc.Scan() {
		}
		return false
	}
	it.err = st.sc.Err()
	if it.ctx != nil && it.ctx.Err() != nil {
		it.err = it.ctx.Err()
	}
	it.done = true
	return false
}

// Row returns the current row (valid after a true Next).
func (it *RowIter) Row() Row { return it.cur }

// Err reports a stream/transport error (nil on a clean end).
func (it *RowIter) Err() error { return it.err }

// FinalState returns the job's terminal state from the stream trailer
// ("" when the stream ended without one).
func (it *RowIter) FinalState() string {
	if it.final == nil {
		return ""
	}
	return it.final.State
}

// FinalError returns the job's coded error from the trailer, if any.
func (it *RowIter) FinalError() *Error {
	if it.final == nil {
		return nil
	}
	return it.final.Error
}

// Close releases the stream. It may run while Next blocks on another
// goroutine: closing the body ends that Next.
func (it *RowIter) Close() error {
	it.mu.Lock()
	if it.closed = true; !it.reading {
		it.release()
	}
	it.mu.Unlock()
	if it.stop != nil {
		it.stop()
	}
	return it.body.Close()
}

// StreamRows streams the job's rows from offset n through onRow, in
// order, transparently re-opening the stream with from=<next unseen
// offset> whenever it drops without a terminal trailer — a dropped
// connection, or a server restart mid-query. A durable-jobs server keeps
// row offsets stable across restarts, so the resumed stream carries no
// duplicates and no gaps. Up to attempts reconnects are made (<=0
// defaults to 3), paced by the client's poll interval; a coded server
// error (unknown job, unknown session) aborts immediately. It returns
// the job's terminal state and coded error from the trailer.
func (j *Job) StreamRows(ctx context.Context, n, attempts int, onRow func(Row) error) (string, *Error, error) {
	if attempts <= 0 {
		attempts = 3
	}
	next := n
	var lastErr error
	for try := 0; try <= attempts; try++ {
		if try > 0 {
			select {
			case <-time.After(j.c.pollInterval):
			case <-ctx.Done():
				return "", nil, ctx.Err()
			}
		}
		it, err := j.RowsFrom(ctx, next)
		if err != nil {
			var coded *Error
			if errors.As(err, &coded) {
				return "", nil, err
			}
			lastErr = err // transport-level: the server may still be restarting
			continue
		}
		for it.Next() {
			if err := onRow(it.Row()); err != nil {
				it.Close() //nolint:errcheck // caller abort wins
				return "", nil, err
			}
			next++
		}
		state, jobErr := it.FinalState(), it.FinalError()
		err = it.Err()
		it.Close() //nolint:errcheck // stream is already drained
		if state != "" {
			return state, jobErr, nil
		}
		if err == nil {
			err = fmt.Errorf("client: stream ended without a terminal state")
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return "", nil, cerr
		}
	}
	return "", nil, fmt.Errorf("client: stream did not recover after %d reconnects: %w", attempts, lastErr)
}

// ---------------------------------------------------------------------------
// Convenience

// Result is a fully collected query outcome.
type Result struct {
	Columns  []string
	Rows     []Row
	Affected int
	Plan     string
	Warnings []string
	Status   *JobStatus
}

// Query submits sql, collects every row off the submit exchange's
// stream and returns them with the terminal resource its trailer
// carried — one request. A failed (or session_closed) job comes back
// as its coded *Error.
func (c *Client) Query(ctx context.Context, sql string) (*Result, error) {
	job, err := c.Submit(ctx, sql)
	if err != nil {
		return nil, err
	}
	it, err := job.Rows(ctx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	st, err := job.Wait(ctx)
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		if st.Error != nil {
			return nil, st.Error
		}
		return nil, fmt.Errorf("client: job %s ended %s", job.ID(), st.State)
	}
	return &Result{
		Columns:  st.Columns,
		Rows:     rows,
		Affected: st.Affected,
		Plan:     st.Plan,
		Warnings: st.Warnings,
		Status:   st,
	}, nil
}
