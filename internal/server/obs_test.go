package server

// Observability surface tests: /metrics exposition validity and
// monotonicity, the per-job trace endpoint (full HIT-group lifecycle),
// the enriched healthz JSON, and concurrent scrape safety (run with
// -race).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/obs"
	"crowddb/internal/storage"
)

// scrapeMetrics fetches /metrics and parses every sample line into a
// map keyed by the full series name (labels included).
func scrapeMetrics(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		vals[line[:i]] = v
	}
	return string(body), vals
}

// runJobWait submits sql as a job and blocks until it finishes.
func runJobWait(t *testing.T, srv *Server, sql string) *Job {
	t.Helper()
	job, serr := runScript(srv, "", sql)
	if serr != nil {
		t.Fatalf("job %q: %v", sql, serr)
	}
	return job
}

// TestPlanCacheOverHTTP: a point SELECT repeated over HTTP with new keys
// is served from the plan cache — the hit counter moves, the miss counter
// does not.
func TestPlanCacheOverHTTP(t *testing.T) {
	eng := pairEngine(t, 62, 6)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	for id := 0; id < 2; id++ { // warm-up: the first run may move a statistic
		queryHTTP(t, ts.URL, "", fmt.Sprintf("SELECT a, b FROM Pair WHERE id = %d", id))
	}
	_, before := scrapeMetrics(t, ts.URL)
	for id := 0; id < 6; id++ {
		if st := queryHTTP(t, ts.URL, "", fmt.Sprintf("SELECT a, b FROM Pair WHERE id = %d", id)); len(st.rows) != 1 {
			t.Fatalf("id %d: %d rows", id, len(st.rows))
		}
	}
	_, after := scrapeMetrics(t, ts.URL)
	const hits, misses = "crowddb_plan_cache_hits_total", "crowddb_plan_cache_misses_total"
	if d := after[hits] - before[hits]; d != 6 {
		t.Errorf("%s moved by %v over 6 point SELECTs, want 6", hits, d)
	}
	if d := after[misses] - before[misses]; d != 0 {
		t.Errorf("%s moved by %v over 6 point SELECTs, want 0", misses, d)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	eng := pairEngine(t, 61, 4)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	runJobWait(t, srv, "SELECT id FROM Pair WHERE a ~= b")
	body, vals := scrapeMetrics(t, ts.URL)

	// The exposition is line-valid Prometheus text: every sample line
	// matches name{labels}? value, and # TYPE precedes its samples.
	sample := regexp.MustCompile(`^[a-z][a-z0-9_]*(\{[^}]*\})? (\+Inf|-?[0-9.e+-]+)$`)
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("invalid sample line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && typed[b] {
				base = b
			}
		}
		if !typed[base] {
			t.Errorf("sample %q precedes its # TYPE line", line)
		}
	}

	// The cross-stack families the issue pins are all present.
	for _, fam := range []string{
		"crowddb_statements_total",
		"crowddb_crowd_comparisons_total",
		"crowddb_crowd_spend_cents_total",
		"crowddb_cache_hits_total",
		"crowddb_cache_misses_total",
		"crowddb_wal_fsync_seconds",
		"crowddb_mvcc_retained_versions",
		"crowddb_mvcc_gc_reclaimed_versions_total",
		"crowddb_taskmgr_group_roundtrip_seconds",
		"crowddb_taskmgr_inflight_groups",
		"crowddb_jobs_total",
		"crowddb_jobs_streamed_rows_total",
		"crowddb_server_uptime_seconds",
		"crowddb_runtime_goroutines",
		"crowddb_runtime_gc_cycles_total",
		"crowddb_runtime_heap_alloc_bytes_total",
		"crowddb_runtime_heap_alloc_objects_total",
		"crowddb_runtime_heap_live_bytes",
		"crowddb_runtime_gc_pause_seconds_total",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	// The crowd query actually moved the needles.
	if vals[`crowddb_statements_total{kind="select"}`] < 1 {
		t.Errorf("select statements counter: %v", vals[`crowddb_statements_total{kind="select"}`])
	}
	if vals["crowddb_crowd_comparisons_total"] < 1 || vals["crowddb_crowd_spend_cents_total"] <= 0 {
		t.Errorf("crowd counters: comparisons=%v cents=%v",
			vals["crowddb_crowd_comparisons_total"], vals["crowddb_crowd_spend_cents_total"])
	}
	if vals[`crowddb_jobs_total{state="done"}`] < 1 {
		t.Errorf("done jobs counter: %v", vals[`crowddb_jobs_total{state="done"}`])
	}
	if vals["crowddb_jobs_streamed_rows_total"] < 1 {
		t.Errorf("streamed rows counter: %v", vals["crowddb_jobs_streamed_rows_total"])
	}
	// Histogram bucket consistency: +Inf cumulative bucket == _count.
	for _, h := range []string{
		"crowddb_taskmgr_group_roundtrip_seconds",
		"crowddb_wal_fsync_seconds",
	} {
		inf, count := vals[h+`_bucket{le="+Inf"}`], vals[h+"_count"]
		if inf != count {
			t.Errorf("%s: +Inf bucket %v != count %v", h, inf, count)
		}
	}
	if vals["crowddb_taskmgr_group_roundtrip_seconds_count"] < 1 {
		t.Errorf("roundtrip histogram recorded no groups")
	}

	// Counters are monotone across another query (cached → same
	// comparisons, but statements strictly grow).
	runJobWait(t, srv, "SELECT id FROM Pair WHERE a ~= b")
	_, vals2 := scrapeMetrics(t, ts.URL)
	for _, c := range []string{
		`crowddb_statements_total{kind="select"}`,
		"crowddb_crowd_comparisons_total",
		"crowddb_crowd_spend_cents_total",
		"crowddb_cache_hits_total",
		"crowddb_jobs_streamed_rows_total",
	} {
		if vals2[c] < vals[c] {
			t.Errorf("counter %s regressed: %v -> %v", c, vals[c], vals2[c])
		}
	}
	if vals2[`crowddb_statements_total{kind="select"}`] != vals[`crowddb_statements_total{kind="select"}`]+1 {
		t.Errorf("select statements did not advance by one: %v -> %v",
			vals[`crowddb_statements_total{kind="select"}`], vals2[`crowddb_statements_total{kind="select"}`])
	}
	if vals2["crowddb_cache_hits_total"] <= vals["crowddb_cache_hits_total"] {
		t.Errorf("repeat query should hit the comparison cache: %v -> %v",
			vals["crowddb_cache_hits_total"], vals2["crowddb_cache_hits_total"])
	}
}

// TestRuntimeMetricsShowAllocation: the daemon's own scrape says what
// statements cost the Go runtime — 100 of them move the allocation
// counters, and no runtime counter runs backwards.
func TestRuntimeMetricsShowAllocation(t *testing.T) {
	eng := pairEngine(t, 63, 4)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	_, before := scrapeMetrics(t, ts.URL)
	for i := 0; i < 100; i++ {
		runJobWait(t, srv, "SELECT a FROM Pair WHERE id = 1")
	}
	_, after := scrapeMetrics(t, ts.URL)
	for _, c := range []string{"crowddb_runtime_heap_alloc_bytes_total", "crowddb_runtime_heap_alloc_objects_total"} {
		if after[c] <= before[c] {
			t.Errorf("%s did not rise over 100 statements: %v -> %v", c, before[c], after[c])
		}
	}
	for _, c := range []string{"crowddb_runtime_gc_cycles_total", "crowddb_runtime_gc_pause_seconds_total"} {
		if after[c] < before[c] {
			t.Errorf("%s ran backwards: %v -> %v", c, before[c], after[c])
		}
	}
	if after["crowddb_runtime_goroutines"] < 1 {
		t.Errorf("goroutines = %v", after["crowddb_runtime_goroutines"])
	}
}

func TestJobTraceEndpoint(t *testing.T) {
	eng := pairEngine(t, 62, 4)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	job := runJobWait(t, srv, "SELECT id FROM Pair WHERE a ~= b")
	if got := job.Info().TraceID; got != job.ID() {
		t.Fatalf("job trace_id %q, want %q", got, job.ID())
	}
	resp, err := http.Get(ts.URL + "/v1/queries/" + job.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var tj obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	if tj.TraceID != job.ID() || tj.Spans < 4 {
		t.Fatalf("trace header: %+v", tj)
	}
	// The span taxonomy covers the whole statement lifecycle.
	for _, prefix := range []string{"parse", "statement", "optimize", "snapshot", "execute", "op:"} {
		if len(tj.FindSpans(prefix)) == 0 {
			t.Errorf("no %q span in trace", prefix)
		}
	}
	// A HIT group's full post→quorum lifecycle is on its crowd span.
	crowd := tj.FindSpans("crowd:")
	if len(crowd) == 0 {
		t.Fatal("no crowd spans in trace")
	}
	var posted *obs.SpanJSON
	for _, sp := range crowd {
		if sp.Attrs["posted_at"] != "" {
			posted = sp
			break
		}
	}
	if posted == nil {
		t.Fatalf("no crowd span carries scheduler telemetry: %+v", crowd[0])
	}
	for _, key := range []string{"queued", "posted_at", "resolved_at", "roundtrip", "answers", "quorum", "role"} {
		if _, ok := posted.Attrs[key]; !ok {
			t.Errorf("crowd span missing %q attr: %v", key, posted.Attrs)
		}
	}
	if n, _ := strconv.Atoi(posted.Attrs["answers"]); n < 1 {
		t.Errorf("crowd span answers = %q, want >= 1", posted.Attrs["answers"])
	}
	if n, _ := strconv.Atoi(posted.Attrs["quorum"]); n < 1 {
		t.Errorf("crowd span quorum = %q, want >= 1", posted.Attrs["quorum"])
	}
}

func TestTraceUnknownAndEvictedJobs(t *testing.T) {
	eng := pairEngine(t, 63, 1)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	first := runJobWait(t, srv, "SHOW TABLES")
	for i := 0; i < maxRetainedJobs; i++ { // the retention cap evicts the first
		runJobWait(t, srv, "SHOW TABLES")
	}

	for _, id := range []string{"zzz", first.ID()} {
		resp, err := http.Get(ts.URL + "/v1/queries/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("trace %s status %d, want 404", id, resp.StatusCode)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == nil || er.Error.Code != CodeUnknownJob {
			t.Fatalf("trace %s body: %s", id, body)
		}
	}
}

func TestHealthzJSON(t *testing.T) {
	eng := pairEngine(t, 64, 1)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	if _, serr := srv.CreateSession(0); serr != nil {
		t.Fatal(serr)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Version != Version || hz.Shards < 1 ||
		hz.ActiveSessions != 1 || hz.UptimeSeconds < 0 {
		t.Fatalf("healthz body: %+v", hz)
	}
}

// TestMetricsConcurrency hammers queries and scrapes together; run under
// -race it proves the scrape path takes no unsynchronized reads.
func TestMetricsConcurrency(t *testing.T) {
	eng := pairEngine(t, 65, 2)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, serr := runScript(srv, "", "SELECT id FROM Pair"); serr != nil {
					t.Error(serr)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				scrapeMetrics(t, ts.URL)
			}
		}()
	}
	wg.Wait()
}

// TestJournalMetrics: the jobs journal's fsyncs and failed appends are
// visible in /metrics once EnableJournal has run.
func TestJournalMetrics(t *testing.T) {
	eng := pairEngine(t, 61, 2)
	srv := New(eng, Config{})
	if err := srv.EnableJournal(filepath.Join(t.TempDir(), "jobs.log"), storage.SyncGroup); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	runJobWait(t, srv, "SELECT id FROM Pair")
	body, vals := scrapeMetrics(t, ts.URL)
	for fam, typ := range map[string]string{
		"crowddb_journal_fsync_seconds":       "histogram",
		"crowddb_journal_fsync_batch_records": "histogram",
		"crowddb_journal_append_errors_total": "counter",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" "+typ) {
			t.Errorf("family %s (%s) missing from /metrics", fam, typ)
		}
	}
	// submit, run and schema are buffered; the two rows and the end record
	// are barriers, each its own fsync with one closed-loop client.
	if n := vals["crowddb_journal_fsync_seconds_count"]; n != 3 {
		t.Errorf("journal fsyncs observed: %v, want 3 (two rows, the end record)", n)
	}
	if vals["crowddb_journal_fsync_batch_records_sum"] < vals["crowddb_journal_fsync_batch_records_count"] {
		t.Errorf("batch histogram: sum %v < count %v", vals["crowddb_journal_fsync_batch_records_sum"],
			vals["crowddb_journal_fsync_batch_records_count"])
	}
	if n := vals["crowddb_journal_append_errors_total"]; n != 0 {
		t.Errorf("append errors on a healthy journal: %v", n)
	}

	// A poisoned journal does not fail queries; it is counted.
	srv.journal.Load().Close()
	runJobWait(t, srv, "SELECT id FROM Pair")
	if _, vals = scrapeMetrics(t, ts.URL); vals["crowddb_journal_append_errors_total"] < 1 {
		t.Errorf("append errors after the journal file was closed: %v", vals["crowddb_journal_append_errors_total"])
	}
}
