package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenAPISpecCoversSurface is the spec load check: the document must
// be structurally sound and cover every route, job state, and error code
// the server actually serves — the contract cannot drift silently.
func TestOpenAPISpecCoversSurface(t *testing.T) {
	spec := string(OpenAPISpec())
	if !strings.HasPrefix(spec, "openapi: 3.0.3\n") {
		t.Fatalf("spec must declare OpenAPI 3.0.3, got %q", spec[:40])
	}
	for _, section := range []string{"info:", "paths:", "components:", "schemas:"} {
		if !strings.Contains(spec, section) {
			t.Errorf("spec missing section %s", section)
		}
	}
	if strings.Contains(spec, "\t") {
		t.Error("spec contains tabs (invalid YAML indentation)")
	}
	for _, rt := range (&Server{}).routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		at := strings.Index(spec, "\n  "+path+":\n")
		if at < 0 {
			t.Errorf("spec missing path %s", path)
			continue
		}
		// The operation must sit inside the path's own block.
		block := spec[at+1:]
		if end := strings.Index(block, "\n  /"); end >= 0 {
			block = block[:end]
		}
		if !strings.Contains(block, "\n    "+strings.ToLower(method)+":\n") {
			t.Errorf("spec path %s missing operation %s", path, method)
		}
	}
	if strings.Contains(spec, "\n  /query:") {
		t.Error("spec still documents the removed POST /query")
	}
	for _, st := range jobStates() {
		if !strings.Contains(spec, "- "+string(st)) {
			t.Errorf("spec missing job state %s", st)
		}
	}
	for _, code := range errorCodes() {
		if !strings.Contains(spec, "- "+string(code)) {
			t.Errorf("spec missing error code %s", code)
		}
	}
}

// TestOpenAPIRoutesServed verifies the route table is what the mux
// serves: every pattern must be handled by our handlers (which answer
// JSON, a stream, or the Prometheus text exposition), never by the mux's
// plain-text 404.
func TestOpenAPIRoutesServed(t *testing.T) {
	eng := pairEngine(t, 43, 1)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	for _, rt := range srv.routes() {
		route := rt.pattern
		method, path, _ := strings.Cut(route, " ")
		path = strings.ReplaceAll(path, "{id}", "zzz")
		var body *bytes.Reader
		if method == http.MethodPost {
			body = bytes.NewReader([]byte(`{"sql":"SHOW TABLES;"}`))
		} else {
			body = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if !strings.Contains(ct, "json") && !strings.Contains(ct, "stream") &&
			!strings.Contains(ct, "version=0.0.4") {
			t.Errorf("%s: served %d with Content-Type %q — mux fallthrough? (route not registered)",
				route, resp.StatusCode, ct)
		}
	}
}

// TestWrongMethodIs405: every route is registered with its method, so a
// method the table does not list for a path is the mux's 405 with an
// Allow header — never a handler answering 200 or a coded 400 — and it
// has no side effect.
func TestWrongMethodIs405(t *testing.T) {
	eng := pairEngine(t, 43, 1)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	allowed := map[string]map[string]bool{}
	for _, rt := range srv.routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		if allowed[path] == nil {
			allowed[path] = map[string]bool{}
		}
		allowed[path][method] = true
	}
	for path, methods := range allowed {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut} {
			if methods[method] {
				continue
			}
			url := ts.URL + strings.ReplaceAll(path, "{id}", "zzz")
			req, err := http.NewRequest(method, url, strings.NewReader(`{"sql":"SHOW TABLES;"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
				t.Errorf("%s %s: status %d Allow %q, want 405 with an Allow header",
					method, path, resp.StatusCode, resp.Header.Get("Allow"))
			}
		}
	}
	if st := srv.Stats().Server; st.SessionsOpened != 0 || st.RetainedJobs != 0 {
		t.Errorf("wrong-method requests had side effects: %+v", st)
	}
}

// TestOpenAPIErrorCodesComplete pins errorCodes() against the Code
// constants: adding a code without documenting it fails here.
func TestOpenAPIErrorCodesComplete(t *testing.T) {
	want := []Code{
		CodeParse, CodeBudgetExhausted, CodeBusy, CodeShuttingDown,
		CodeUnknownSession, CodeTooManySessions, CodeInternal,
		CodeUnknownJob, CodeCancelled, CodeSessionClosed, CodeInterrupted,
	}
	have := map[Code]bool{}
	for _, c := range errorCodes() {
		have[c] = true
	}
	for _, c := range want {
		if !have[c] {
			t.Errorf("errorCodes() missing %s", c)
		}
	}
}

// TestOpenAPIDocFresh fails when the committed docs/openapi.yaml is
// stale relative to the generator (run `go run ./cmd/crowdopenapi` to
// refresh).
func TestOpenAPIDocFresh(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "openapi.yaml")
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (generate with `go run ./cmd/crowdopenapi`)", path, err)
	}
	if !bytes.Equal(disk, OpenAPISpec()) {
		t.Errorf("docs/openapi.yaml is stale; regenerate with `go run ./cmd/crowdopenapi`")
	}
}

// TestJobInfoFieldsDocumented keeps the Job schema in the spec aligned
// with the JobInfo JSON shape: every emitted key must appear in the
// document.
func TestJobInfoFieldsDocumented(t *testing.T) {
	info := JobInfo{
		ID: "j000001", State: JobRunning, Session: "s000001",
		Columns: []string{"a"}, RowsEmitted: 1, Affected: 1, Plan: "p",
		Warnings: []string{"w"}, StatementsDone: 1,
		PredictedCents: 1, PredictedSeconds: 1, SpentCents: 1, ActualCents: 1,
		Error: errf(CodeInternal, "x"),
	}
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	spec := string(OpenAPISpec())
	for key := range m {
		if !strings.Contains(spec, fmt.Sprintf("        %s:", key)) {
			t.Errorf("Job schema missing documented field %q", key)
		}
	}
}
