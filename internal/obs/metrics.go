// Package obs is CrowdDB's zero-dependency observability layer: a
// Prometheus-text-format metrics registry (counters, gauges, histograms
// with atomic hot paths) and a per-statement trace-span recorder with a
// bounded retention ring and a threshold-triggered slow-query log.
//
// The package sits below every other internal package (it imports only
// the standard library), so storage, taskmgr, exec, core, and server can
// all register instruments without cycles. Instrument names are
// validated at registration time — snake_case, unit-suffixed, counters
// ending in _total — which doubles as the repo's metric-naming lint.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Naming rules (the metric-naming lint).

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// unitSuffixes are the accepted trailing units for gauges and histograms
// (counters must end in _total instead, per Prometheus convention).
var unitSuffixes = []string{
	"_seconds", "_micros", "_bytes", "_cents", "_rows", "_records", "_entries",
	"_versions", "_groups", "_jobs", "_sessions", "_queries", "_shards",
	"_goroutines", "_ratio",
}

// CheckName validates an instrument name against the repo's conventions:
// snake_case ASCII, counters suffixed _total, gauges and histograms
// suffixed with a recognized unit. typ is "counter", "gauge", or
// "histogram".
func CheckName(typ, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("obs: metric %q is not snake_case", name)
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: counter %q must end in _total", name)
		}
	case "gauge", "histogram":
		for _, s := range unitSuffixes {
			if strings.HasSuffix(name, s) {
				return nil
			}
		}
		return fmt.Errorf("obs: %s %q must end in a unit suffix (%s)",
			typ, name, strings.Join(unitSuffixes, ", "))
	default:
		return fmt.Errorf("obs: unknown instrument type %q", typ)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Value instruments.

// fval is an atomically updated float64 (bit-cast through a uint64).
type fval struct{ bits atomic.Uint64 }

func (v *fval) add(d float64) {
	for {
		old := v.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (v *fval) set(x float64) { v.bits.Store(math.Float64bits(x)) }
func (v *fval) get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing metric. All methods are safe on a
// nil receiver (instrumented code never has to guard for disabled
// observability).
type Counter struct{ v fval }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are ignored — counters are monotonic).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.v.add(d)
}

// Value reads the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.get()
}

// Gauge is a set-to-current-value metric. Nil-safe like Counter.
type Gauge struct{ v fval }

// Set stores the current value.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.v.set(x)
}

// SetMax raises the gauge to x if x is higher: a high watermark that
// concurrent writers keep without a lock.
func (g *Gauge) SetMax(x float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.bits.Load()
		if x <= math.Float64frombits(old) || g.v.bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// Add adjusts the gauge by d (either sign).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v.add(d)
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.get()
}

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free;
// the exposition renders Prometheus _bucket/_sum/_count series. Nil-safe.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    fval
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.sum.add(x)
	h.count.Add(1)
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Count reports the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.get()
}

// ExpBuckets builds n exponentially growing upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// ---------------------------------------------------------------------------
// Registry.

// instrument is one labeled series inside a family.
type instrument struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc
}

// family groups every series sharing one metric name.
type family struct {
	name, help, typ string
	insts           []*instrument
	byLabel         map[string]*instrument
}

// Registry holds the process's metric families and renders them in
// Prometheus text exposition format. Registration is idempotent: asking
// for an already-registered (name, labels) series returns the existing
// instrument, so independent subsystems (or repeated server construction
// over one engine) can share series safely.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns k,v pairs into a canonical {k="v",...} string.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	parts := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[i], escapeLabel(kv[i+1])))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// series fetches or creates the (name, labels) instrument, enforcing the
// naming rules and type consistency. Misuse is a programming error and
// panics.
func (r *Registry) series(typ, name, help string, kv []string) *instrument {
	if err := CheckName(typ, name); err != nil {
		panic(err)
	}
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*instrument)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Errorf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	inst, ok := f.byLabel[labels]
	if !ok {
		inst = &instrument{labels: labels}
		f.byLabel[labels] = inst
		f.insts = append(f.insts, inst)
	}
	return inst
}

// Counter registers (or returns) a counter series. kv is an alternating
// label key/value list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	inst := r.series("counter", name, help, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.counter == nil {
		inst.counter = &Counter{}
	}
	return inst.counter
}

// Gauge registers (or returns) a gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	inst := r.series("gauge", name, help, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.gauge == nil {
		inst.gauge = &Gauge{}
	}
	return inst.gauge
}

// Histogram registers (or returns) a histogram series with the given
// ascending upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	inst := r.series("histogram", name, help, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.hist == nil {
		inst.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return inst.hist
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time (for subsystems that already keep their own counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	inst := r.series("counter", name, help, kv)
	r.mu.Lock()
	inst.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	inst := r.series("gauge", name, help, kv)
	r.mu.Lock()
	inst.fn = fn
	r.mu.Unlock()
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel merges an extra k="v" pair into an already rendered label
// string (the histogram le label).
func withLabel(labels, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// WritePrometheus renders every family in Prometheus 0.0.4 text
// exposition format. Func-backed series are evaluated outside the
// registry lock, so their callbacks may take subsystem locks freely.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		help := strings.ReplaceAll(strings.ReplaceAll(f.help, `\`, `\\`), "\n", `\n`)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, help, f.name, f.typ); err != nil {
			return err
		}
		// Stable output: series sorted by label string.
		insts := append([]*instrument(nil), f.insts...)
		sort.Slice(insts, func(i, j int) bool { return insts[i].labels < insts[j].labels })
		for _, inst := range insts {
			var err error
			switch {
			case inst.hist != nil:
				err = writeHistogram(w, f.name, inst)
			case inst.fn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, inst.labels, fmtFloat(inst.fn()))
			case inst.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, inst.labels, fmtFloat(inst.counter.Value()))
			case inst.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, inst.labels, fmtFloat(inst.gauge.Value()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, inst *instrument) error {
	h := inst.hist
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(inst.labels, "le", fmtFloat(b)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(inst.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, inst.labels, fmtFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, inst.labels, h.Count())
	return err
}
