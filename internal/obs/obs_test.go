package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("crowddb_things_total", "things")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := r.Gauge("crowddb_depth_rows", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	// Idempotent re-registration returns the same instrument.
	if r.Counter("crowddb_things_total", "things") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Nil instruments are safe no-ops.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("crowddb_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 56.05; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`crowddb_lat_seconds_bucket{le="0.1"} 1`,
		`crowddb_lat_seconds_bucket{le="1"} 3`,
		`crowddb_lat_seconds_bucket{le="10"} 4`,
		`crowddb_lat_seconds_bucket{le="+Inf"} 5`,
		`crowddb_lat_seconds_sum 56.05`,
		`crowddb_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsAndFuncs(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("crowddb_ops_total", "ops", "kind", "read")
	bc := r.Counter("crowddb_ops_total", "ops", "kind", "write")
	a.Add(2)
	bc.Add(3)
	r.GaugeFunc("crowddb_live_rows", "live", func() float64 { return 42 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`crowddb_ops_total{kind="read"} 2`,
		`crowddb_ops_total{kind="write"} 3`,
		`crowddb_live_rows 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// One family header per name, even with two labeled series.
	if n := strings.Count(out, "# TYPE crowddb_ops_total"); n != 1 {
		t.Errorf("family header rendered %d times, want 1", n)
	}
}

// TestPrometheusTextFormat line-validates a full exposition: every line
// is a comment or `name{labels} value`, HELP/TYPE precede samples, and
// histogram buckets are cumulative with the +Inf bucket equal to _count.
func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("crowddb_a_total", "a").Add(1)
	r.Gauge("crowddb_b_rows", "b with \"quotes\"").Set(2)
	h := r.Histogram("crowddb_c_seconds", "c", ExpBuckets(0.001, 10, 4), "shard", "0")
	h.Observe(0.5)
	h.Observe(99)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^[a-z][a-z0-9_]*(\{[^}]*\})? (\+Inf|-?[0-9.e+-]+)$`)
	seenType := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			seenType[f[2]] = true
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		base := line[:strings.IndexAny(line, "{ ")]
		base = strings.TrimSuffix(base, "_bucket")
		base = strings.TrimSuffix(base, "_sum")
		base = strings.TrimSuffix(base, "_count")
		if !seenType[base] {
			t.Fatalf("sample %q before its TYPE header", line)
		}
	}
	// Bucket cumulativity + count agreement.
	var last, count int64 = -1, 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "crowddb_c_seconds_bucket") {
			v, _ := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if v < last {
				t.Fatalf("bucket counts not cumulative: %d after %d", v, last)
			}
			last = v
		}
		if strings.HasPrefix(line, "crowddb_c_seconds_count") {
			count, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if last != count {
		t.Fatalf("+Inf bucket %d != count %d", last, count)
	}
}

func TestMetricNaming(t *testing.T) {
	ok := [][2]string{
		{"counter", "crowddb_crowd_spend_cents_total"},
		{"gauge", "crowddb_mvcc_retained_versions"},
		{"histogram", "crowddb_wal_fsync_seconds"},
		{"histogram", "crowddb_journal_fsync_batch_records"},
		{"gauge", "crowddb_overhead_ratio"},
		{"gauge", "crowddb_runtime_goroutines"},
	}
	for _, c := range ok {
		if err := CheckName(c[0], c[1]); err != nil {
			t.Errorf("CheckName(%s, %s) = %v, want nil", c[0], c[1], err)
		}
	}
	bad := [][2]string{
		{"counter", "crowddb_spend_cents"},    // counter without _total
		{"gauge", "crowddb_retained"},         // no unit suffix
		{"histogram", "crowddb_fsyncLatency"}, // camelCase
		{"counter", "CrowdDB_total"},          // uppercase
		{"counter", "crowddb__x_total"},       // double underscore
	}
	for _, c := range bad {
		if err := CheckName(c[0], c[1]); err == nil {
			t.Errorf("CheckName(%s, %s) = nil, want error", c[0], c[1])
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("crowddb_hits_total", "hits")
	h := r.Histogram("crowddb_wait_seconds", "wait", ExpBuckets(0.001, 2, 8))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 100)
				// Concurrent registration of the same + distinct series.
				r.Counter("crowddb_hits_total", "hits").Add(0)
				r.Gauge(fmt.Sprintf("crowddb_g%d_rows", i), "g").Set(float64(j))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestTracerRingAndSpans(t *testing.T) {
	tr := NewTracer(2)
	a := tr.Start("q1")
	sp := a.Span(nil, "statement")
	sp.SetAttr("kind", "select")
	child := a.Span(sp, "optimize")
	child.SetInt("rows", 7)
	child.End()
	sp.End()
	tr.Finish(a)
	if tr.Lookup("q1") != a {
		t.Fatal("lookup after finish failed")
	}
	tr.Start("q2")
	tr.Start("q3") // evicts q1
	if tr.Lookup("q1") != nil {
		t.Fatal("q1 not evicted from ring of 2")
	}
	js := a.JSON()
	if js.TraceID != "q1" || js.Spans != 3 {
		t.Fatalf("trace json = %+v", js)
	}
	got := js.FindSpans("optimize")
	if len(got) != 1 || got[0].Attrs["rows"] != "7" {
		t.Fatalf("optimize span = %+v", got)
	}
	// Nil-safety end to end.
	var nt *Tracer
	ntr := nt.Start("x")
	nsp := ntr.Span(nil, "y")
	nsp.SetAttr("a", "b")
	nsp.End()
	nt.Finish(ntr)
	if ntr.ID() != "" {
		t.Fatal("nil trace has an id")
	}
}

func TestTracerFinishClosesDanglingSpans(t *testing.T) {
	tr := NewTracer(4)
	a := tr.Start("q1")
	sp := a.Span(nil, "statement")
	a.Span(sp, "op:scan") // never ended — error path
	tr.Finish(a)
	js := a.JSON()
	for _, s := range js.FindSpans("op:scan") {
		if s.DurationMicros < 0 {
			t.Fatalf("dangling span has negative duration: %+v", s)
		}
	}
	if js.DurationMicros < 0 {
		t.Fatal("trace duration negative")
	}
}

func TestSlowQueryLog(t *testing.T) {
	tr := NewTracer(4)
	var b strings.Builder
	tr.SetSlowQueryLog(time.Nanosecond, &b)
	a := tr.Start("q9")
	sp := a.Span(nil, "statement")
	sp.SetAttr("stmt", "SELECT 1")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Finish(a)
	out := b.String()
	if !strings.Contains(out, "[slow query] trace=q9") || !strings.Contains(out, "statement") {
		t.Fatalf("slow log = %q", out)
	}
	// Below threshold: silent.
	b.Reset()
	tr.SetSlowQueryLog(time.Hour, &b)
	fast := tr.Start("q10")
	tr.Finish(fast)
	if b.Len() != 0 {
		t.Fatalf("fast trace logged: %q", b.String())
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer(1)
	a := tr.Start("big")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		a.Span(nil, "s")
	}
	if n := a.SpanCount(); n != maxSpansPerTrace {
		t.Fatalf("span count = %d, want cap %d", n, maxSpansPerTrace)
	}
	// Past-cap spans are nil and still safe.
	sp := a.Span(nil, "overflow")
	if sp != nil {
		t.Fatal("expected nil span past cap")
	}
	sp.SetAttr("a", "b")
	sp.End()
}
