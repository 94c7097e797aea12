package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"crowddb/internal/jsonline"
)

// HTTP/JSON API.
//
// v1 — the asynchronous jobs surface (docs/openapi.yaml describes it by
// hand, and the OpenAPI tests hold the two to each other):
//
//	POST   /v1/queries          {"sql": "...", "session": "s000001"?}
//	                            -> 202 job resource (id, state, ...);
//	                               with Accept: application/x-ndjson the
//	                               resource is line 1 of the rows stream
//	GET    /v1/queries          -> retained job resources, newest first
//	GET    /v1/queries/{id}     -> job resource (poll)
//	GET    /v1/queries/{id}/rows[?from=N]
//	                            -> partial-result stream: NDJSON rows
//	                               (one JSON array per line, then the
//	                               terminal job resource as trailer), or
//	                               SSE with Accept: text/event-stream
//	GET    /v1/queries/{id}/trace
//	                            -> the job's span tree (trace JSON)
//	DELETE /v1/queries/{id}     -> request cancellation (idempotent)
//	GET    /metrics             -> Prometheus text exposition (0.0.4)
//
// Sessions, stats and health — the resources pkg/client uses beside
// jobs:
//
//	POST   /session             {"budget": 25}?     -> session info
//	GET    /session/{id}                            -> session info
//	DELETE /session/{id}                            -> close
//	GET    /stats                                   -> StatsReport
//	GET    /healthz                                 -> liveness JSON (503 when draining)
//
// Every error body a handler writes is {"error": {"code": "...",
// "message": "..."}} with the code drawn from the Code constants; a path
// or method outside the table gets the mux's own 404 / 405.

// maxBodyBytes bounds a request body: a client is untrusted, and a
// CrowdSQL script or a session request has no business being larger.
const maxBodyBytes = 1 << 20

// queryRequest is the POST /v1/queries body.
type queryRequest struct {
	SQL string `json:"sql"`
	// Session names a registered session; empty runs an anonymous
	// one-shot session with the default budget.
	Session string `json:"session"`
}

type sessionRequest struct {
	// Budget caps the session's paid crowd comparisons
	// (0 = server default, negative = unlimited).
	Budget int `json:"budget"`
}

type errorResponse struct {
	Error *Error `json:"error"`
}

// route is one entry of the HTTP API: a method-qualified mux pattern and
// its handler.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the one table of what the server listens on, in
// documentation order: HTTPHandler registers it and the OpenAPI coverage
// tests walk it.
func (s *Server) routes() []route {
	return []route{
		{"POST /v1/queries", s.handleJobSubmit},
		{"GET /v1/queries", s.handleJobList},
		{"GET /v1/queries/{id}", s.handleJobGet},
		{"GET /v1/queries/{id}/rows", s.handleJobRows},
		{"GET /v1/queries/{id}/trace", s.handleJobTrace},
		{"DELETE /v1/queries/{id}", s.handleJobCancel},
		{"GET /metrics", s.handleMetrics},
		{"POST /session", s.handleSessionCreate},
		{"GET /session/{id}", s.handleSessionGet},
		{"DELETE /session/{id}", s.handleSessionClose},
		{"GET /stats", s.handleStats},
		{"GET /healthz", s.handleHealthz},
	}
}

// HTTPHandler returns the service's HTTP API.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	return mux
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *Error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		return errf(CodeParse, "bad request body: %v", err)
	}
	return nil
}

// The Content-Type values a handler sets by assigning the header's
// slice, which Header.Set would allocate; cap == len, so an Add copies.
var (
	jsonType   = []string{"application/json"}
	ndjsonType = []string{"application/x-ndjson"}
)

// bufs pools the byte buffers a submit body is read into and a stream's
// lines are written from. A buffer that grew past maxPooledBuf is left to
// the collector, so one large body or line does not stay resident.
var bufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledBuf = 4 << 10

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufs.Put(b)
	}
}

// readQueryRequest reads the POST /v1/queries body into req without
// reflection. It accepts exactly what decodeBody(w, r, req) accepts and
// sets the same fields: only the body's first JSON value counts, and no
// byte after it is read; keys match case-folded, as encoding/json folds
// them; the last of duplicate keys wins; null leaves a field as it is;
// a non-string sql or session is refused; any other member is skipped.
// The body is read through http.MaxBytesReader as decodeBody reads it,
// so one over maxBodyBytes is refused and closes the connection.
func readQueryRequest(w http.ResponseWriter, r *http.Request, req *queryRequest) *Error {
	buf := bufs.Get().(*[]byte)
	defer putBuf(buf)
	value, err := readFirstValue(http.MaxBytesReader(w, r.Body, maxBodyBytes), buf)
	if err == nil {
		err = parseQueryRequest(value, req)
	}
	if err != nil {
		return errf(CodeParse, "bad request body: %v", err)
	}
	return nil
}

// readFirstValue reads rd into *buf until the first JSON value in it is
// complete, as json.Decoder reads, and returns the bytes up to its end.
// It finds the end by counting brackets outside strings, which is exact
// for any valid value; whether the value is valid is for the parser to
// say. Only an object or null can decode into a request, so any other
// value ends at its first byte, where the parser refuses it. At the end
// of rd it returns what it read, which holds no complete value.
func readFirstValue(rd io.Reader, buf *[]byte) ([]byte, error) {
	b := *buf
	depth := 0 // open containers; 0 before the value
	str, esc := false, false
	i := 0 // the next byte to look at
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, cap(b))
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*buf = b
	scan:
		for ; i < len(b); i++ {
			switch c := b[i]; {
			case depth == 0:
				switch c {
				case ' ', '\t', '\n', '\r':
					continue
				case '{':
					depth = 1
					continue
				case 'n':
					if len(b)-i < 4 {
						break scan
					}
					return b[:i+4], nil
				}
				return b[:i+1], nil
			case str:
				switch {
				case esc:
					esc = false
				case c == '\\':
					esc = true
				case c == '"':
					str = false
				}
			case c == '"':
				str = true
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				if depth--; depth == 0 {
					return b[:i+1], nil
				}
			}
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseQueryRequest reads the request value readFirstValue found.
func parseQueryRequest(value []byte, req *queryRequest) error {
	s := jsonline.Scanner{B: value}
	s.WS()
	if null, err := s.Null(); null || err != nil {
		return err
	}
	return s.Object(1, func(key []byte) error {
		field := &req.SQL
		switch {
		case bytes.EqualFold(key, []byte("sql")):
		case bytes.EqualFold(key, []byte("session")):
			field = &req.Session
		default:
			return s.Skip(1)
		}
		if null, err := s.Null(); null || err != nil {
			return err
		}
		v, err := s.Str()
		if err == nil {
			*field = string(v)
		}
		return err
	})
}

// handleJobSubmit creates a query job: POST /v1/queries. The answer is
// the 202 job resource; a client that sends Accept: application/x-ndjson
// gets submit-and-stream instead — the job resource as the first NDJSON
// line, then exactly the stream GET /v1/queries/{id}/rows?from=0
// produces, so the common statement is one HTTP exchange, and one write
// when the job never waits (see streamJobRows). Either way the job's id
// reaches the client only once its submit record is durable.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := readQueryRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, errf(CodeParse, "empty sql"))
		return
	}
	job, serr := s.StartJob(req.Session, req.SQL)
	if serr != nil {
		writeError(w, serr)
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		s.journalSync() // barrier 1: the body names the job
		writeInfo(w, http.StatusAccepted, job)
		return
	}
	w.Header()["Content-Type"] = ndjsonType
	w.WriteHeader(http.StatusAccepted)
	s.streamJobRows(w, r, job, 0, false, true)
}

// handleJobList reports every retained job: GET /v1/queries. Every listed
// job's submit record was buffered before the job was listed, so one sync
// makes them all durable before their ids go out (journal barrier 1).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	s.journalSync()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleJobGet polls one job: GET /v1/queries/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, serr := s.Job(r.PathValue("id"))
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeInfo(w, http.StatusOK, job)
}

// handleJobCancel requests cancellation: DELETE /v1/queries/{id}. The
// response is the job's current snapshot — poll for the terminal state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, serr := s.CancelJob(r.PathValue("id"))
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeInfo(w, http.StatusOK, job)
}

// handleJobRows streams a job's result rows: GET /v1/queries/{id}/rows.
// Rows stream as they are produced; the connection stays open until the
// job reaches a terminal state (or the client goes away). With
// Accept: text/event-stream the response is SSE ("row" events followed
// by one "end" event); otherwise NDJSON — one JSON array per row, then
// the trailer: the terminal job resource, as one object.
func (s *Server) handleJobRows(w http.ResponseWriter, r *http.Request) {
	job, serr := s.Job(r.PathValue("id"))
	if serr != nil {
		writeError(w, serr)
		return
	}
	from := 0
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			writeError(w, errf(CodeParse, "bad from offset %q", f))
			return
		}
		from = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	s.streamJobRows(w, r, job, from, sse, false)
}

// streamJobRows writes the job's rows from index next on, then the
// trailer — the terminal job resource, whose state and error fields are
// what pre-resource trailer readers look for — and returns; with head it
// first writes the job resource as line 1 (submit-and-stream). The
// response's status and headers are already set on w.
//
// It flushes only once the job has waited on something outside the
// machine — an execution slot or the crowd — and from then on, before it
// blocks, only what is new. Until then what it writes stays in net/http's
// buffer, which goes out when it fills or when the handler returns: a job
// that never waits leaves as head, rows and trailer in one write. Only a
// flush that carries the head with no row behind it syncs the journal
// first (barrier 1); a row (barrier 2) or the trailer (barrier 3) has
// made the submit record durable already.
func (s *Server) streamJobRows(w http.ResponseWriter, r *http.Request, job *Job, next int, sse, head bool) {
	flusher, _ := w.(http.Flusher)
	buf := bufs.Get().(*[]byte)
	line := *buf // the head, an SSE event, the trailer
	defer func() {
		*buf = line
		putBuf(buf)
	}()
	if head {
		info := job.Info()
		line = append(appendInfo(line, &info), '\n')
		w.Write(line) //nolint:errcheck // client gone surfaces on flush
	}
	flushed := false
	for {
		lines, rows, state, waited, notify := job.rowsFrom(next)
		for sse && len(lines) > 0 {
			row, rest, _ := bytes.Cut(lines, []byte{'\n'})
			line = append(append(append(line[:0], "event: row\ndata: "...), row...), "\n\n"...)
			w.Write(line) //nolint:errcheck // client gone surfaces on flush
			lines = rest
		}
		if len(lines) > 0 {
			w.Write(lines) //nolint:errcheck // client gone surfaces on flush
		}
		next += rows
		if state.Terminal() {
			info := job.Info()
			if sse {
				line = append(appendInfo(append(line[:0], "event: end\ndata: "...), &info), "\n\n"...)
			} else {
				line = append(appendInfo(line[:0], &info), '\n')
			}
			w.Write(line) //nolint:errcheck // client gone is not our error
			return
		}
		if waited && (!flushed || rows > 0) {
			if !flushed && head && next == 0 {
				s.journalSync()
			}
			if flusher != nil {
				flusher.Flush()
			}
			flushed = true
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// writeInfo answers with the job resource as the JSON body.
func writeInfo(w http.ResponseWriter, status int, job *Job) {
	info := job.Info()
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	w.Write(append(appendInfo(make([]byte, 0, 512), &info), '\n')) //nolint:errcheck // client gone is not our error
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client gone is not our error
}

func writeError(w http.ResponseWriter, err *Error) {
	writeJSON(w, err.HTTPStatus(), errorResponse{Error: err})
}

// handleSessionCreate registers a session: POST /session. An empty body
// asks for the server's default budget.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
	}
	sess, serr := s.CreateSession(req.Budget)
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleSessionGet reports one session: GET /session/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleSessionClose closes a session, cancelling its in-flight jobs:
// DELETE /session/{id}.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.CloseSession(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
