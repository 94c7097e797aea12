package obs

import (
	"encoding"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// maxSpansPerTrace caps a single trace's span tree so a runaway scan
// cannot hold the whole heap; past the cap new spans are dropped (nil).
const maxSpansPerTrace = 4096

// defaultTraceRing is how many finished traces the tracer retains for
// GET /v1/queries/{id}/trace when no capacity is given.
const defaultTraceRing = 256

// Tracer hands out traces and retains the newest ones in a fixed ring.
// It optionally mirrors traces slower than a threshold to a slow-query
// log. All methods are nil-receiver safe, so callers thread a possibly
// nil *Tracer without guards.
type Tracer struct {
	mu        sync.Mutex
	ring      []*Trace // fixed length; next is the slot the next trace takes
	next      int
	seq       int64 // numbers the traces started without an id
	threshold time.Duration
	slow      io.Writer
}

// NewTracer builds a tracer retaining up to capacity traces (<=0 means
// the default of 256).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceRing
	}
	return &Tracer{ring: make([]*Trace, capacity)}
}

// SetSlowQueryLog arms the slow-query log: any trace finishing with wall
// time >= threshold is rendered to w.
func (t *Tracer) SetSlowQueryLog(threshold time.Duration, w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threshold = threshold
	t.slow = w
	t.mu.Unlock()
}

// Start opens a new trace under id and retains it in the ring (evicting
// the oldest when full). Nil-safe: a nil tracer yields a nil trace, and
// every downstream span operation on it is a no-op.
func (t *Tracer) Start(id string) *Trace { return t.StartSized(id, true) }

// StartSized is Start for a caller that knows whether the trace will
// record a query (a SELECT or EXPLAIN). A trace is allocated together
// with the first chunks of its spans and attributes: a query's fit a
// point SELECT exactly, the others fit a write. An empty id names the
// trace "q" and a six-digit sequence number, formatted when read.
func (t *Tracer) StartSized(id string, query bool) *Trace {
	if t == nil {
		return nil
	}
	return t.start(id, query)
}

// A point SELECT through the jobs API records 8 spans (the root, parse,
// statement, optimize, snapshot, execute and two operators), 13
// attributes and about 70 bytes of text; a single-row write records 4
// spans, 3 attributes and about 60 bytes. The text chunks fill each
// shape's allocation to its size class (1152 and 576 bytes).
const (
	querySpans, queryAttrs, queryText = 8, 13, 168
	writeSpans, writeAttrs, writeText = 4, 4, 72
)

// queryTrace and writeTrace are a Trace and its first chunks as one
// allocation.
type queryTrace struct {
	Trace
	spans [querySpans]Span
	attrs [queryAttrs]attr
	text  [queryText]byte
}

type writeTrace struct {
	Trace
	spans [writeSpans]Span
	attrs [writeAttrs]attr
	text  [writeText]byte
}

func (t *Tracer) start(id string, query bool) *Trace {
	var tr *Trace
	if query {
		q := new(queryTrace)
		tr = &q.Trace
		tr.spans.cur, tr.attrs.cur, tr.text = q.spans[:0], q.attrs[:0], q.text[:0]
	} else {
		w := new(writeTrace)
		tr = &w.Trace
		tr.spans.cur, tr.attrs.cur, tr.text = w.spans[:0], w.attrs[:0], w.text[:0]
	}
	tr.id = id
	tr.start = time.Now()
	tr.end = openEnd
	*tr.spans.add() = Span{tr: tr, name: "root", end: openEnd}
	t.mu.Lock()
	if id == "" {
		t.seq++
		tr.seq = t.seq
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
	return tr
}

// Lookup returns the newest retained trace named id, or nil.
func (t *Tracer) Lookup(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.ring {
		tr := t.ring[(t.next-1-i+len(t.ring))%len(t.ring)]
		if tr != nil && tr.ID() == id {
			return tr
		}
	}
	return nil
}

// Finish seals a trace: the root span and any spans left dangling by
// error paths are ended at the current instant, and the slow-query log
// fires if the trace crossed the threshold. Idempotent and nil-safe.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.end == openEnd {
		tr.end = int64(time.Since(tr.start))
		tr.spans.each(func(sp *Span) {
			if sp.end == openEnd {
				sp.end = tr.end
			}
		})
	}
	dur := time.Duration(tr.end)
	tr.mu.Unlock()
	t.mu.Lock()
	threshold, slow := t.threshold, t.slow
	t.mu.Unlock()
	if slow != nil && threshold > 0 && dur >= threshold {
		var b strings.Builder
		fmt.Fprintf(&b, "[slow query] trace=%s duration=%s spans=%d\n", tr.ID(), dur.Round(time.Microsecond), tr.SpanCount())
		tr.renderText(&b)
		io.WriteString(slow, b.String())
	}
}

// ---------------------------------------------------------------------------
// Trace and Span.

// openEnd marks a span or trace that has not ended.
const openEnd = math.MinInt64

// Trace is one statement or job's span tree. It owns its spans, their
// attributes and the text of those in chunks it allocates itself, and
// renders them only when read. A single mutex guards the whole trace:
// spans are created on the query's hot path but far less often than rows
// flow, so contention is negligible.
type Trace struct {
	mu    sync.Mutex
	id    string
	seq   int64 // names the trace when id is empty
	start time.Time
	end   int64        // offset from start; openEnd until Finish
	spans chunks[Span] // the root is the first
	attrs chunks[attr] // every span's attributes, in order
	text  []byte       // the text of string attributes
}

// ID names the trace (the job or query id). Nil-safe.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	if tr.id == "" {
		return fmt.Sprintf("q%06d", tr.seq)
	}
	return tr.id
}

// SpanCount reports how many spans the trace holds.
func (tr *Trace) SpanCount() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans.len()
}

// Span opens a child span under parent (nil parent = under the root),
// started now. Returns nil past the per-trace span cap.
func (tr *Trace) Span(parent *Span, name string) *Span {
	if tr == nil {
		return nil
	}
	return tr.spanAt(parent, name, int64(time.Since(tr.start)), openEnd)
}

// SpanAt records a span with explicit bounds — used to stamp work that
// happened before the trace object existed (e.g. parsing a job's script
// before the job id was allocated). A zero end leaves the span open.
func (tr *Trace) SpanAt(parent *Span, name string, start, end time.Time) *Span {
	if tr == nil {
		return nil
	}
	e := int64(openEnd)
	if !end.IsZero() {
		e = int64(end.Sub(tr.start))
	}
	return tr.spanAt(parent, name, int64(start.Sub(tr.start)), e)
}

func (tr *Trace) spanAt(parent *Span, name string, start, end int64) *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.spans.len()
	if n >= maxSpansPerTrace {
		return nil
	}
	p := int32(0)
	if parent != nil && parent.tr == tr {
		p = parent.idx
	}
	sp := tr.spans.add()
	*sp = Span{tr: tr, name: name, start: start, end: end, idx: int32(n), parent: p}
	return sp
}

// Span is one timed region of a trace. All methods are nil-safe so
// instrumented code paths need no tracing-enabled guards.
type Span struct {
	tr     *Trace
	name   string
	start  int64 // offsets from the trace's start
	end    int64 // openEnd until ended
	idx    int32 // position in the trace's span list; the root is 0
	parent int32
}

// End closes the span at the current instant (idempotent).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	if sp.end == openEnd {
		sp.end = int64(time.Since(sp.tr.start))
	}
	sp.tr.mu.Unlock()
}

// attrKind says how an attribute's value is stored and rendered.
type attrKind uint8

const (
	kindText attrKind = iota // num locates the value in the trace's text
	kindInt
	kindBool
	kindDuration
)

// attr is one attribute of one span, in the trace's list.
type attr struct {
	key  string
	num  int64
	span int32
	kind attrKind
}

// textRef packs a value's position and length in the trace's text.
func textRef(pos, n int) int64 { return int64(pos)<<32 | int64(n) }

func (sp *Span) add(k string, kind attrKind, n int64) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	*sp.tr.attrs.add() = attr{key: k, num: n, span: sp.idx, kind: kind}
	sp.tr.mu.Unlock()
}

// SetAttr annotates the span with a string attribute, copied into the
// trace's text.
func (sp *Span) SetAttr(k, v string) { setText(sp, k, v) }

func setText[S string | []byte](sp *Span, k string, v S) {
	if sp == nil {
		return
	}
	tr := sp.tr
	tr.mu.Lock()
	pos := len(tr.text)
	tr.text = append(tr.text, v...)
	*tr.attrs.add() = attr{key: k, num: textRef(pos, len(v)), span: sp.idx}
	tr.mu.Unlock()
}

// maxText bounds the text SetText records for one value.
const maxText = 200

// textBufs holds the buffers SetText renders a value into before copying
// its text into the trace, so the value's code never runs under the
// trace's lock.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

// SetText annotates the span with a value that renders itself: v appends
// its text now, and the trace keeps the text but no reference to v. Text
// past maxText bytes is cut at a rune boundary and marked "…".
func (sp *Span) SetText(k string, v encoding.TextAppender) {
	if sp == nil {
		return
	}
	bp := textBufs.Get().(*[]byte)
	text, err := v.AppendText((*bp)[:0])
	if err != nil {
		text = append(text[:0], err.Error()...)
	}
	if len(text) > maxText {
		cut := maxText
		for cut > 0 && !utf8.RuneStart(text[cut]) {
			cut--
		}
		text = append(text[:cut], "…"...)
	}
	setText(sp, k, text)
	if cap(text) <= 4<<10 {
		*bp = text
		textBufs.Put(bp)
	}
}

// SetInt annotates the span with an integer attribute.
func (sp *Span) SetInt(k string, v int64) { sp.add(k, kindInt, v) }

// SetBool annotates the span with a boolean attribute ("true"/"false").
func (sp *Span) SetBool(k string, v bool) {
	n := int64(0)
	if v {
		n = 1
	}
	sp.add(k, kindBool, n)
}

// SetDuration annotates the span with a duration attribute, rendered as
// time.Duration.String renders it.
func (sp *Span) SetDuration(k string, v time.Duration) { sp.add(k, kindDuration, int64(v)) }

// value renders an attribute; the caller holds tr.mu.
func (tr *Trace) value(a *attr) string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(a.num, 10)
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	case kindDuration:
		return time.Duration(a.num).String()
	}
	pos, n := a.num>>32, a.num&(1<<32-1)
	return string(tr.text[pos : pos+n])
}

// chunks is an append-only list whose elements never move, so a *Span
// handed out stays valid and nothing is copied as a trace grows: the
// first chunk comes with the trace, and each later one holds half as many
// elements as the list already has.
type chunks[T any] struct {
	cur  []T   // being filled
	full [][]T // filled earlier, oldest first
}

func (c *chunks[T]) add() *T {
	if len(c.cur) == cap(c.cur) {
		c.full = append(c.full, c.cur)
		c.cur = make([]T, 0, max(c.len()/2, 4))
	}
	c.cur = c.cur[:len(c.cur)+1]
	return &c.cur[len(c.cur)-1]
}

func (c *chunks[T]) len() int {
	n := len(c.cur)
	for _, f := range c.full {
		n += len(f)
	}
	return n
}

func (c *chunks[T]) each(fn func(*T)) {
	for _, f := range c.full {
		for i := range f {
			fn(&f[i])
		}
	}
	for i := range c.cur {
		fn(&c.cur[i])
	}
}

// ---------------------------------------------------------------------------
// Rendering.

// SpanJSON is the wire form of one span, times in microseconds relative
// to the trace start.
type SpanJSON struct {
	Name           string            `json:"name"`
	StartMicros    int64             `json:"start_micros"`
	DurationMicros int64             `json:"duration_micros"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*SpanJSON       `json:"children,omitempty"`
}

// TraceJSON is the wire form of a whole trace (GET /v1/queries/{id}/trace).
type TraceJSON struct {
	TraceID        string    `json:"trace_id"`
	DurationMicros int64     `json:"duration_micros"`
	Spans          int       `json:"spans"`
	Root           *SpanJSON `json:"root"`
}

// tree is a read-time view of a trace: its spans in creation order, each
// span's children and attributes in the order they were added.
type tree struct {
	tr       *Trace
	spans    []*Span
	children [][]int32
	attrs    [][]*attr
	end      int64 // stands in for the end of spans still open
}

// treeLocked indexes the trace for rendering; the caller holds tr.mu.
func (tr *Trace) treeLocked() tree {
	t := tree{tr: tr, end: tr.end}
	if t.end == openEnd {
		t.end = int64(time.Since(tr.start))
	}
	tr.spans.each(func(sp *Span) { t.spans = append(t.spans, sp) })
	t.children = make([][]int32, len(t.spans))
	for _, sp := range t.spans[1:] {
		t.children[sp.parent] = append(t.children[sp.parent], sp.idx)
	}
	t.attrs = make([][]*attr, len(t.spans))
	tr.attrs.each(func(a *attr) { t.attrs[a.span] = append(t.attrs[a.span], a) })
	return t
}

func (t *tree) bounds(sp *Span) (start, dur time.Duration) {
	end := sp.end
	if end == openEnd {
		end = t.end
	}
	return time.Duration(sp.start), time.Duration(end - sp.start)
}

// JSON snapshots the trace for the HTTP trace endpoint. Safe to call on
// a live (unfinished) trace.
func (tr *Trace) JSON() TraceJSON {
	if tr == nil {
		return TraceJSON{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.treeLocked()
	return TraceJSON{
		TraceID:        tr.ID(),
		DurationMicros: time.Duration(t.end).Microseconds(),
		Spans:          len(t.spans),
		Root:           t.spanJSON(t.spans[0]),
	}
}

func (t *tree) spanJSON(sp *Span) *SpanJSON {
	start, dur := t.bounds(sp)
	out := &SpanJSON{
		Name:           sp.name,
		StartMicros:    start.Microseconds(),
		DurationMicros: dur.Microseconds(),
	}
	for _, a := range t.attrs[sp.idx] {
		if out.Attrs == nil {
			out.Attrs = make(map[string]string)
		}
		out.Attrs[a.key] = t.tr.value(a)
	}
	for _, c := range t.children[sp.idx] {
		out.Children = append(out.Children, t.spanJSON(t.spans[c]))
	}
	return out
}

// renderText writes the indented tree used by the slow-query log.
// Caller holds no locks; renderText takes the trace lock itself.
func (tr *Trace) renderText(w io.Writer) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.treeLocked()
	t.renderSpanText(w, t.spans[0], 1)
}

func (t *tree) renderSpanText(w io.Writer, sp *Span, depth int) {
	attrs := ""
	var parts []string
	for _, a := range t.attrs[sp.idx] {
		parts = append(parts, a.key+"="+strconv.Quote(t.tr.value(a)))
	}
	if len(parts) > 0 {
		attrs = " {" + strings.Join(parts, ", ") + "}"
	}
	_, dur := t.bounds(sp)
	fmt.Fprintf(w, "%s%s %s%s\n", strings.Repeat("  ", depth), sp.name, dur.Round(time.Microsecond), attrs)
	for _, c := range t.children[sp.idx] {
		t.renderSpanText(w, t.spans[c], depth+1)
	}
}

// FindSpans walks the tree depth-first and returns every span whose name
// has the given prefix — a test convenience.
func (tj TraceJSON) FindSpans(prefix string) []*SpanJSON {
	var out []*SpanJSON
	var walk func(sp *SpanJSON)
	walk = func(sp *SpanJSON) {
		if sp == nil {
			return
		}
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
		// Children sorted by start for deterministic test assertions.
		kids := append([]*SpanJSON(nil), sp.Children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].StartMicros < kids[j].StartMicros })
		for _, c := range kids {
			walk(c)
		}
	}
	walk(tj.Root)
	return out
}
