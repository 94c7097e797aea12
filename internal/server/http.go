package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// HTTP/JSON API.
//
// v1 — the asynchronous jobs surface (docs/openapi.yaml is generated
// from this contract):
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

// handleJobSubmit creates a query job: POST /v1/queries. The answer is
// the 202 job resource; a client that sends Accept: application/x-ndjson
// gets submit-and-stream instead — the job resource as the first NDJSON
// line, then exactly the stream GET /v1/queries/{id}/rows?from=0
// produces, so the common statement is one HTTP exchange. Either way the
// job's id reaches the client only once its submit record is durable
// (journal barrier 1).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
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
		s.journalSync()
		writeJSON(w, http.StatusAccepted, job.Info())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusAccepted)
	w.Write(append(marshalLine(job.Info()), '\n')) //nolint:errcheck // client gone surfaces in the stream
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
	writeJSON(w, http.StatusOK, job.Info())
}

// handleJobCancel requests cancellation: DELETE /v1/queries/{id}. The
// response is the job's current snapshot — poll for the terminal state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, serr := s.CancelJob(r.PathValue("id"))
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, http.StatusOK, job.Info())
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

// marshalLine renders one stream line ("null" when v cannot marshal).
func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("null")
	}
	return b
}

// streamJobRows writes the job's rows from index next on, then the
// trailer — the terminal job resource, whose state and error fields are
// what pre-resource trailer readers look for — and returns; headers and
// anything the caller wrote ahead of the rows are already on w. It
// flushes only before it blocks, and only what is new, so the rows and
// trailer of an already-finished job leave in one write (the final
// flush is the server's, on return). named says the caller's line names
// a job the client did not name: if neither a row nor the trailer — each
// behind its own journal barrier — goes out with it, the journal syncs
// before the first flush (barrier 1).
func (s *Server) streamJobRows(w http.ResponseWriter, r *http.Request, job *Job, next int, sse, named bool) {
	flusher, _ := w.(http.Flusher)
	event := func(name string, v any) {
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, marshalLine(v))
		} else {
			w.Write(append(marshalLine(v), '\n')) //nolint:errcheck // client gone surfaces on flush
		}
	}
	pending := true // the response head, and the caller's first line if any
	for {
		batch, state, notify := job.rowsFrom(next)
		for _, row := range batch {
			event("row", row)
		}
		next += len(batch)
		if state.Terminal() {
			event("end", job.Info())
			return
		}
		if pending && named && len(batch) == 0 {
			s.journalSync()
		}
		if (pending || len(batch) > 0) && flusher != nil {
			flusher.Flush()
		}
		pending = false
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
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
