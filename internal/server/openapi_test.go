package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The HTTP API's contract is docs/openapi.yaml, written by hand. These
// tests hold it to the server: every route the mux serves, every job state
// and error code, and every JobInfo field. (No YAML loader is vendored, so
// the checks read the document's structure as text.)

// documentedStates and documentedCodes are every job state and every
// coded error the API can return, and exactly the enums the document lists
// for Job.state and Error.code.
var (
	documentedStates = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled, JobInterrupted}
	documentedCodes  = []Code{
		CodeParse, CodeBudgetExhausted, CodeBusy, CodeShuttingDown,
		CodeUnknownSession, CodeTooManySessions, CodeInternal,
		CodeUnknownJob, CodeCancelled, CodeSessionClosed, CodeInterrupted,
	}
)

// openAPISpec is docs/openapi.yaml.
func openAPISpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "openapi.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// specEnum returns the enum the document lists for a property of a schema
// under components.schemas, in document order.
func specEnum(t *testing.T, spec, schema, property string) []string {
	t.Helper()
	_, block, ok := strings.Cut(spec, "\n  schemas:\n")
	if ok {
		_, block, ok = strings.Cut("\n"+yamlBlock(block, 4), "\n    "+schema+":\n")
	}
	if ok {
		_, block, ok = strings.Cut("\n"+yamlBlock(block, 6), "\n        "+property+":\n")
	}
	if ok {
		_, block, ok = strings.Cut(yamlBlock(block, 10), "enum:\n")
	}
	if !ok {
		t.Fatalf("spec has no enum for %s.%s", schema, property)
	}
	var out []string
	for _, line := range strings.Split(block, "\n") {
		item, ok := strings.CutPrefix(strings.TrimLeft(line, " "), "- ")
		if !ok {
			break
		}
		out = append(out, item)
	}
	return out
}

// yamlBlock cuts text before its first line indented less than indent.
func yamlBlock(text string, indent int) string {
	for at := 0; at < len(text); {
		line, _, _ := strings.Cut(text[at:], "\n")
		if strings.TrimSpace(line) != "" && len(line)-len(strings.TrimLeft(line, " ")) < indent {
			return text[:at]
		}
		at += len(line) + 1
	}
	return text
}

// TestOpenAPISpecCoversSurface is the spec load check: the document must
// be structurally sound, cover every route the server serves, and list
// exactly the job states it returns — the contract cannot drift silently.
func TestOpenAPISpecCoversSurface(t *testing.T) {
	spec := openAPISpec(t)
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
	var states []string
	for _, st := range documentedStates {
		states = append(states, string(st))
	}
	if got := specEnum(t, spec, "Job", "state"); !slices.Equal(got, states) {
		t.Errorf("spec Job.state enum %v, want %v", got, states)
	}
}

// TestOpenAPIErrorCodesComplete pins the document's Error.code enum to the
// Code constants: adding a code without documenting it, or documenting one
// the server does not return, fails here.
func TestOpenAPIErrorCodesComplete(t *testing.T) {
	var codes []string
	for _, c := range documentedCodes {
		codes = append(codes, string(c))
	}
	if got := specEnum(t, openAPISpec(t), "Error", "code"); !slices.Equal(got, codes) {
		t.Errorf("spec Error.code enum %v, want %v", got, codes)
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
	spec := openAPISpec(t)
	for key := range m {
		if !strings.Contains(spec, fmt.Sprintf("        %s:", key)) {
			t.Errorf("Job schema missing documented field %q", key)
		}
	}
}
