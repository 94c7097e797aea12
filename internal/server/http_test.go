package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"crowddb/internal/core"
	"crowddb/pkg/client"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test buffer
	return resp, buf.Bytes()
}

// queryHTTP runs sql as one submit-and-stream exchange — what
// pkg/client.Query sends — and returns the parsed stream.
func queryHTTP(t *testing.T, url, session, sql string) ndjsonStream {
	t.Helper()
	resp := submitStream(t, url, session, sql)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/queries %q: %d", sql, resp.StatusCode)
	}
	st := readStream(t, bufio.NewScanner(resp.Body), true)
	if st.trailer == nil {
		t.Fatalf("POST /v1/queries %q: stream ended without a trailer", sql)
	}
	return st
}

func TestHTTPQuerySessionStatsHealthz(t *testing.T) {
	eng := pairEngine(t, 23, 4)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	// Create a session with a budget.
	resp, body := postJSON(t, ts.URL+"/session", map[string]int{"budget": 50})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /session: %d %s", resp.StatusCode, body)
	}
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.BudgetLeft != 50 {
		t.Fatalf("session info = %+v", info)
	}

	// A crowd query through the session.
	st := queryHTTP(t, ts.URL, info.ID, "SELECT id FROM Pair WHERE a ~= b")
	if st.trailer.State != JobDone || st.trailer.Session != info.ID ||
		len(st.trailer.Columns) != 1 || st.trailer.Stats.Comparisons != 4 || len(st.rows) != 4 {
		t.Fatalf("query stream: %+v", st.trailer)
	}

	// Anonymous query (no session field), NULL rendering.
	queryHTTP(t, ts.URL, "", "INSERT INTO Pair (id) VALUES (99)")
	st = queryHTTP(t, ts.URL, "", "SELECT a, id FROM Pair WHERE id = 99")
	if len(st.rows) != 1 || st.rows[0][0] != nil || st.rows[0][1] == nil || *st.rows[0][1] != "99" {
		t.Errorf("NULL not rendered as JSON null: %v", st.rows)
	}

	// Parse errors are coded 400s.
	resp, body = postJSON(t, ts.URL+"/v1/queries", map[string]string{"sql": "SELEC nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status: %d", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == nil || er.Error.Code != CodeParse {
		t.Fatalf("parse error body: %s", body)
	}

	// Budget exhaustion is a coded job failure.
	_, tinyBody := postJSON(t, ts.URL+"/session", map[string]int{"budget": 1})
	var tinyInfo SessionInfo
	json.Unmarshal(tinyBody, &tinyInfo) //nolint:errcheck // checked below
	queryHTTP(t, ts.URL, tinyInfo.ID, "SELECT a FROM Pair ORDER BY CROWDORDER(a, 'nicer name?')")
	st = queryHTTP(t, ts.URL, tinyInfo.ID, "SELECT a FROM Pair ORDER BY CROWDORDER(a, 'nicer name, again?')")
	if st.trailer.State != JobFailed || st.trailer.Error == nil || st.trailer.Error.Code != CodeBudgetExhausted {
		t.Fatalf("budget exhaustion trailer: %+v", st.trailer)
	}

	// /stats reflects the shared cache and sessions.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var report StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if report.Server.Queries < 2 || report.Cache.Size == 0 || report.Tasks == nil {
		t.Errorf("stats report: %+v", report)
	}
	if len(report.Sessions) != 2 {
		t.Errorf("sessions in report: %d, want 2", len(report.Sessions))
	}

	// Healthz flips on shutdown.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Closing a session frees it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/session/" + info.ID)
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET closed session: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestStatsIncludesCostModel: /stats surfaces the optimizer's aggregate
// predicted-vs-actual error, and query responses carry the per-statement
// forecast.
func TestStatsIncludesCostModel(t *testing.T) {
	eng := pairEngine(t, 29, 3)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	qr := queryHTTP(t, ts.URL, "", "SELECT id FROM Pair WHERE a ~= b").trailer
	if qr.PredictedCents <= 0 || qr.ActualCents <= 0 {
		t.Errorf("crowd query must report forecast and spend: %+v", qr)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %v %v", resp, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rep StatsReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.CostModel.Statements == 0 || rep.CostModel.ActualCents <= 0 {
		t.Errorf("cost model must be populated after a crowd query: %+v", rep.CostModel)
	}
	if !strings.Contains(string(body), `"cost_model"`) {
		t.Error("/stats must include the cost_model section")
	}
}

// TestOneFrontDoor: the synchronous POST /query is gone — the mux's 404,
// not a handler — and the path that replaced it settles precisely: a
// statement that fails after paying the crowd gives back exactly the
// part of its reservation it did not spend (the removed in-process
// Server.Query forfeited the whole reservation).
func TestOneFrontDoor(t *testing.T) {
	const nPairs, budget = 5, 8
	eng := pairEngine(t, 7, nPairs)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": "SELECT id FROM Pair"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /query: %d %s, want 404", resp.StatusCode, body)
	}
	if n := srv.Stats().Server.RetainedJobs; n != 0 {
		t.Fatalf("POST /query created %d jobs", n)
	}

	_, body = postJSON(t, ts.URL+"/session", map[string]int{"budget": budget})
	var sess SessionInfo
	if err := json.Unmarshal(body, &sess); err != nil || sess.BudgetLeft != budget {
		t.Fatalf("session: %s (%v)", body, err)
	}
	// The crowd filter pays one comparison per pair, then SUM over the
	// surviving strings fails the statement.
	st := queryHTTP(t, ts.URL, sess.ID, "SELECT SUM(a) FROM Pair WHERE a ~= b")
	if st.trailer.State != JobFailed || st.trailer.Error == nil || st.trailer.Error.Code != CodeInternal {
		t.Fatalf("trailer = %+v, want failed/internal", st.trailer)
	}
	if paid := st.trailer.Stats.Comparisons; paid != nPairs {
		t.Fatalf("failed statement paid %d comparisons, want %d", paid, nPairs)
	}
	resp, err := http.Get(ts.URL + "/session/" + sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	if sess.Stats.Comparisons != nPairs || sess.BudgetLeft != budget-nPairs {
		t.Errorf("session after the failed statement: paid %d, budget left %d; want %d and %d",
			sess.Stats.Comparisons, sess.BudgetLeft, nPairs, budget-nPairs)
	}
}

// TestOversizeBodyRejected: request bodies are bounded, so an oversize
// one is a coded 400 that creates neither a job nor a session.
func TestOversizeBodyRejected(t *testing.T) {
	eng := pairEngine(t, 9, 1)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	pad := strings.Repeat(" ", maxBodyBytes)
	for path, doc := range map[string]string{
		"/v1/queries": `{"sql":"SELECT id FROM Pair;` + pad + `"}`,
		"/session":    `{` + pad + `"budget":3}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || er.Error == nil || er.Error.Code != CodeParse {
			t.Errorf("POST %s with %d bytes: %d %+v (%v), want a coded 400", path, len(doc), resp.StatusCode, er.Error, err)
		}
	}
	if st := srv.Stats().Server; st.RetainedJobs != 0 || st.SessionsOpened != 0 {
		t.Errorf("oversize bodies had side effects: %+v", st)
	}
	// The same documents under the bound are served.
	if resp, body := postJSON(t, ts.URL+"/session", map[string]int{"budget": 3}); resp.StatusCode != http.StatusOK {
		t.Errorf("in-bound POST /session: %d %s", resp.StatusCode, body)
	}
}

// captureBody is a transport that keeps the request body and refuses the
// request with a coded error.
type captureBody struct{ sent *[]byte }

func (c captureBody) RoundTrip(r *http.Request) (*http.Response, error) {
	defer r.Body.Close()
	var err error
	if *c.sent, err = io.ReadAll(r.Body); err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusBadRequest, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader(`{"error":{"code":"parse_error","message":"captured"}}`)), Request: r}, nil
}

// decodeQueryRequest is how POST /v1/queries read its body before
// readQueryRequest, kept as the reference the reader is held to.
func decodeQueryRequest(body []byte) (queryRequest, error) {
	var req queryRequest
	rd := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxBodyBytes)
	err := json.NewDecoder(rd).Decode(&req)
	return req, err
}

// FuzzSubmitBody: whatever bytes are POSTed to /v1/queries, the answer
// is a job or a coded 4xx — never a panic or a 500; readQueryRequest
// accepts a body exactly when json.Decoder does, with the same sql and
// session, however the body's bytes arrive; and for any sql and session,
// the body pkg/client's Submit writes decodes with json.Decoder to what
// json.Marshal's body for the same pair decodes to, and readQueryRequest
// reads it the same.
func FuzzSubmitBody(f *testing.F) {
	// No crowd attached: whatever script a body smuggles in ends at
	// engine speed.
	eng, err := core.Open(core.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	for _, sql := range []string{
		"CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)",
		"INSERT INTO Pair VALUES (0, 'IBM', 'ibm'), (1, 'AT&T', '<at&t>')",
	} {
		if _, err := eng.Exec(sql); err != nil {
			f.Fatal(err)
		}
	}
	srv := New(eng, Config{})
	h := srv.HTTPHandler()
	read := func(body io.Reader) (queryRequest, *Error) {
		var req queryRequest
		serr := readQueryRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/queries", body), &req)
		return req, serr
	}
	decode := func(t *testing.T, body []byte) queryRequest {
		t.Helper()
		req, err := decodeQueryRequest(body)
		if err != nil {
			t.Fatalf("json.Decoder cannot decode %q: %v", body, err)
		}
		return req
	}
	f.Add([]byte(`{"sql":"SELECT a, b FROM Pair WHERE id = 1"}`), "SELECT a FROM Pair WHERE id = 1", "")
	f.Add([]byte(`{"sql":"SELECT id FROM Pair","session":"s000009"}`), "SELECT '\xff\xfe' <&>", "s000001")
	f.Add([]byte(`{"sql":"SELECT id FROM Pair", "sql": "SHOW TABLES", "extra": [1, {"x": null}]}`), "", "\x00\"\\\t")
	f.Add([]byte(`{"sql":`), "SELEC nope", "(anonymous)")
	f.Add([]byte(`{"sql":"","session":1}`), "\xed\xa0\x80", "é")
	// Keys fold as encoding/json folds them (U+017F is a long s), and
	// are unescaped before they are matched.
	f.Add([]byte(`{"SQL":"SELECT id FROM Pair","SESSION":null}`), "", "")
	f.Add([]byte(`{"ſql":"SELECT id FROM Pair","s\u0065ssion":"s000001"}`), "", "")
	f.Add([]byte(`{"sql":"SELECT id FROM Pair","SQL":"SELECT a FROM Pair"}`), "", "")
	f.Add([]byte(`{"sql":"SELECT id FROM Pair","sql":null}`), "", "")
	f.Add([]byte(`{"sql":1}`), "", "")
	f.Add([]byte(`{"sql":"SELECT id FROM Pair"}garbage`), "", "")
	f.Add([]byte(` null {`), "", "")
	// Only the first value is read: the rest of a 2 MiB body never is.
	f.Add(append([]byte(`{"sql":"SELECT id FROM Pair","pad":"`+strings.Repeat("x", 900)+`"}`),
		bytes.Repeat([]byte("garbage "), 2<<20/8)...), "", "")
	// encoding/json's depth limit, under an unknown key: 10 000 levels
	// with the request object are read, 10 001 are refused.
	for _, n := range []int{9999, 10001} {
		f.Add([]byte(`{"sql":"SELECT id FROM Pair","x":`+strings.Repeat(`[{"y":`, n/2)+strings.Repeat("[", n%2)+
			strings.Repeat("]", n%2)+strings.Repeat("}]", n/2)+`}`), "", "")
	}
	f.Add([]byte(`{"sql":"SELECT '\ud800\udc00\udbff' FROM Pair","session":"\udc00\xff"}`), "", "")
	f.Fuzz(func(t *testing.T, body []byte, sql, session string) {
		want, wantErr := decodeQueryRequest(body)
		split := iotest.OneByteReader
		if len(body) > 64<<10 {
			split = iotest.HalfReader
		}
		for _, rd := range []io.Reader{bytes.NewReader(body), split(bytes.NewReader(body))} {
			got, serr := read(rd)
			if (serr == nil) != (wantErr == nil) || serr == nil && got != want {
				t.Fatalf("body %.200q: readQueryRequest read %+v (%v), json.Decoder %+v (%v)", body, got, serr, want, wantErr)
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/queries", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusAccepted:
			var info JobInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID == "" {
				t.Fatalf("POST %q: 202 with %q (%v)", body, rec.Body, err)
			}
			job, serr := srv.Job(info.ID)
			if serr != nil {
				t.Fatal(serr)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := job.Wait(ctx); err != nil {
				t.Fatalf("POST %q: job %s never ended", body, info.ID)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code == "" {
				t.Fatalf("POST %q: %d with %q, want a coded error (%v)", body, rec.Code, rec.Body, err)
			}
		default:
			t.Fatalf("POST %q: %d %q, want a job or a coded 4xx", body, rec.Code, rec.Body)
		}

		var sent []byte
		c := client.New("http://crowddbd.invalid", client.WithSession(session),
			client.WithHTTPClient(&http.Client{Transport: captureBody{&sent}}))
		if _, err := c.Submit(context.Background(), sql); err == nil {
			t.Fatal("the refused submit succeeded")
		}
		fields := map[string]string{"sql": sql}
		if session != "" {
			fields["session"] = session
		}
		marshalled, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		ref := decode(t, marshalled)
		if got := decode(t, sent); got != ref {
			t.Fatalf("sql %q, session %q: the client's body %s decodes to %+v, json.Marshal's %s to %+v",
				sql, session, sent, got, marshalled, ref)
		}
		if got, serr := read(bytes.NewReader(sent)); serr != nil || got != ref {
			t.Fatalf("sql %q, session %q: the server reads the client's body %s as %+v (%v), want %+v",
				sql, session, sent, got, serr, ref)
		}
	})
}

// FuzzSessionBody: whatever bytes are POSTed to /session, the answer is a
// session or a coded 4xx — never a panic or a 500; and for any budget,
// the body json.Marshal writes for it decodes to that budget, and the
// session it opens starts with the budget that resolves to.
func FuzzSessionBody(f *testing.F) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	srv := New(eng, Config{SessionBudget: 7})
	h := srv.HTTPHandler()
	post := func(t *testing.T, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/session", bytes.NewReader(body)))
		return rec
	}
	// closeSession closes what a 200 opened, so the session cap is never
	// what refuses the next body.
	closeSession := func(t *testing.T, rec *httptest.ResponseRecorder) SessionInfo {
		t.Helper()
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID == "" {
			t.Fatalf("200 with %q (%v)", rec.Body, err)
		}
		if serr := srv.CloseSession(info.ID); serr != nil {
			t.Fatal(serr)
		}
		return info
	}
	f.Add([]byte(`{"budget":25}`), 25)
	f.Add([]byte(``), 0)
	f.Add([]byte(`{"budget":-1,"budget":3,"extra":[{"x":null}]}`), -1)
	f.Add([]byte(`{"budget":1e3}`), 1<<40)
	f.Add([]byte(`{"budget":"9"}`), -1<<62)
	f.Add([]byte(`{"budget":`), 7)
	f.Add([]byte("\xff\xfe{}"), 1)
	f.Fuzz(func(t *testing.T, body []byte, budget int) {
		switch rec := post(t, body); {
		case rec.Code == http.StatusOK:
			closeSession(t, rec)
		case rec.Code >= 400 && rec.Code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code == "" {
				t.Fatalf("POST %q: %d with %q, want a coded error (%v)", body, rec.Code, rec.Body, err)
			}
		default:
			t.Fatalf("POST %q: %d %q, want a session or a coded 4xx", body, rec.Code, rec.Body)
		}

		marshalled, err := json.Marshal(sessionRequest{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		var req sessionRequest
		if serr := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/session", bytes.NewReader(marshalled)), &req); serr != nil || req.Budget != budget {
			t.Fatalf("budget %d: json.Marshal's %s decodes to %d (%v)", budget, marshalled, req.Budget, serr)
		}
		rec := post(t, marshalled)
		if rec.Code != http.StatusOK {
			t.Fatalf("budget %d: %d %q", budget, rec.Code, rec.Body)
		}
		if info := closeSession(t, rec); info.BudgetLeft != srv.effectiveBudget(budget) {
			t.Fatalf("budget %d: the session starts with %d, want %d", budget, info.BudgetLeft, srv.effectiveBudget(budget))
		}
	})
}
