package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"crowddb/internal/exec"
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
// Legacy — kept byte-compatible, now thin shims over jobs (see the
// README deprecation policy):
//
//	POST /query            {"sql": "...", "session": "s000001"?}
//	POST /session          {"budget": 25}?          -> session info
//	GET/DELETE /session/{id}                        -> info / close
//	GET  /stats                                     -> StatsReport
//	GET  /healthz                                   -> liveness JSON (503 when draining)
//
// Every error body is {"error": {"code": "...", "message": "..."}} with
// the code drawn from the Code constants.

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// Session names a registered session; empty runs an anonymous
	// one-shot session with the default budget.
	Session string `json:"session"`
}

// queryResponse is the POST /query result. Values are rendered as
// strings; SQL NULL and CNULL become JSON null.
type queryResponse struct {
	Session  string      `json:"session,omitempty"`
	Columns  []string    `json:"columns,omitempty"`
	Rows     [][]*string `json:"rows,omitempty"`
	Affected int         `json:"affected"`
	Plan     string      `json:"plan,omitempty"`
	Warnings []string    `json:"warnings,omitempty"`
	Stats    exec.Stats  `json:"stats"`
	// Cost-model forecast vs measured spend for the statement.
	PredictedCents   float64 `json:"predicted_cents,omitempty"`
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	ActualCents      float64 `json:"actual_cents,omitempty"`
}

type sessionRequest struct {
	// Budget caps the session's paid crowd comparisons
	// (0 = server default, negative = unlimited).
	Budget int `json:"budget"`
}

type errorResponse struct {
	Error *Error `json:"error"`
}

// HTTPHandler returns the service's HTTP API.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/queries", s.handleJobList)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/queries/{id}/rows", s.handleJobRows)
	mux.HandleFunc("GET /v1/queries/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/session/", s.handleSessionID)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleJobSubmit creates a query job: POST /v1/queries. The answer is
// the 202 job resource; a client that sends Accept: application/x-ndjson
// gets submit-and-stream instead — the job resource as the first NDJSON
// line, then exactly the stream GET /v1/queries/{id}/rows?from=0
// produces, so the common statement is one HTTP exchange.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, errf(CodeParse, "bad request body: %v", err))
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
		writeJSON(w, http.StatusAccepted, job.Info())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusAccepted)
	w.Write(append(marshalLine(job.Info()), '\n')) //nolint:errcheck // client gone surfaces in the stream
	streamJobRows(w, r, job, 0, false)
}

// handleJobList reports every retained job: GET /v1/queries.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
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
	streamJobRows(w, r, job, from, sse)
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
// flush is the server's, on return).
func streamJobRows(w http.ResponseWriter, r *http.Request, job *Job, next int, sse bool) {
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

// handleQuery is the legacy synchronous endpoint, kept byte-compatible
// as a thin shim over jobs: it submits a job, waits for the terminal
// state, and renders the final statement's result in the v0 shape.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, errf(CodeParse, "use POST /query"))
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, errf(CodeParse, "bad request body: %v", err))
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
	state, err := job.waitTerminal(r.Context())
	if err != nil {
		return // client gone; the job keeps running (v0 parity)
	}
	if state != JobDone {
		writeError(w, job.terminalError())
		return
	}
	writeJSON(w, http.StatusOK, legacyResponse(job, req.Session))
}

// legacyResponse renders a finished job's last statement in the v0
// POST /query shape — byte-compatible with the pre-jobs server.
func legacyResponse(job *Job, session string) queryResponse {
	cols, rows, affected, planText, warnings, st, predicted, actual := job.lastResult()
	out := queryResponse{
		Session:  session,
		Columns:  cols,
		Affected: affected,
		Plan:     planText,
		Warnings: warnings,
		Stats:    st,
	}
	if !predicted.IsUnbounded() {
		out.PredictedCents = predicted.Cents
		out.PredictedSeconds = predicted.Seconds
	}
	out.ActualCents = actual
	if len(rows) > 0 {
		out.Rows = rows
	}
	return out
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, errf(CodeParse, "use POST /session"))
		return
	}
	var req sessionRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, errf(CodeParse, "bad request body: %v", err))
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

func (s *Server) handleSessionID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/session/")
	switch r.Method {
	case http.MethodDelete:
		if err := s.CloseSession(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": id})
	case http.MethodGet:
		sess, err := s.Session(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sess.Info())
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, errf(CodeParse, "use GET or DELETE /session/{id}"))
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
