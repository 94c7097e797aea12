// Package exec implements CrowdDB's vectorized streaming executor.
//
// # Operator contract
//
// Operators compose into a pull-based pipeline that moves rows in
// batches (row vectors) instead of one row per virtual call:
//
//	Open(ctx)      acquires resources and (for blocking operators)
//	               consumes the input; it must leave the operator ready
//	               to produce.
//	NextBatch(ctx) returns the next batch of result rows. End of stream
//	               is (nil, nil); a non-nil batch holds at least one row.
//	               The *Batch and its Rows slice header are OWNED BY THE
//	               PRODUCER and are only valid until the next call to
//	               NextBatch or Close on that operator — consumers that
//	               need the set of rows must copy the headers out (see
//	               drainInput). The Row values inside are immutable once
//	               handed over and MAY be retained by the consumer.
//	Close(ctx)     releases resources and reports feedback (observed
//	               selectivities) to the catalog. Close must be called
//	               even after an error.
//
// A tree is built and bound once (Build) and may be opened again once it
// is closed, any number of times: the plan cache keeps trees and re-runs
// them. So Open starts every piece of run state afresh, and Close lets go
// of every row, span, crowd claim and snapshot the run held; only what the
// tree was built with — its bound expressions, its batch buffers emptied —
// is kept.
//
// A statement runs on the goroutine that called it: operators start none,
// so Ctx.Stats, operator buffers and the store's shared row images are
// touched by exactly one goroutine per statement.
//
// Every statement runs at DefaultBatchSize rows per batch (tests vary
// it). Operators reuse one batch buffer across NextBatch calls, so a
// steady-state pipeline allocates no per-batch memory.
//
// Streaming semantics: scans, filters, projections, joins (probe side),
// and limits produce rows incrementally. Blocking operators (sort,
// aggregate) consume their input in Open but stream their output.  The
// crowd operators stream as human work settles: CROWDORDER emits the
// settled prefix of the breadth-first quicksort after each comparison
// round (most-preferred rows appear before the full order is resolved),
// and a CROWDEQUAL filter emits each buffered row as soon as every
// comparison it depends on has a quorum — without waiting for the other
// rows' groups. The crowd *scheduling* order (claims, HIT-group posts,
// collections) is independent of batch size and emission timing, which
// keeps seeded replays bit-identical to the row-at-a-time executor.
package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// Row is an executor tuple.
type Row = storage.Row

// Operator is a batch-at-a-time streaming iterator. See the package
// comment for the full contract (ownership, reuse, EOF).
type Operator interface {
	Schema() []plan.Col
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx) (*Batch, error)
	Close(ctx *Ctx) error
}

// ---------------------------------------------------------------------------
// SeqScan: the stored-table scan operator, the only one — the table reader
// (reader.go) with the scan's pushed filter and stop-after, batched.
// Whether the shard cursors or a pinned key feed the reader is the
// reader's business; the operator is the same.

type seqScan struct {
	rd  tableReader // rd.node is the scan, from Build on
	buf Batch
	hdr *[]Row // the pooled backing of buf.Rows, from Open to Close
}

// batchHeaders recycles seqScan's batch headers across statements. A
// header is cleared as it goes back, so the pool holds no row.
var batchHeaders = sync.Pool{New: func() any { return new([]Row) }}

func (s *seqScan) Schema() []plan.Col { return s.rd.node.Schema() }

func (s *seqScan) Open(ctx *Ctx) error {
	if s.hdr == nil {
		s.hdr = batchHeaders.Get().(*[]Row)
		s.buf.Rows = (*s.hdr)[:0]
	}
	return s.rd.open(ctx)
}

func (s *seqScan) nextRow(ctx *Ctx) (Row, error) {
	_, row, err := s.rd.next(ctx)
	return row, err
}

func (s *seqScan) NextBatch(ctx *Ctx) (*Batch, error) { return fillBatch(ctx, &s.buf, s.nextRow) }

// Close returns the scan's scratch once; closing again returns nothing.
func (s *seqScan) Close(*Ctx) error {
	s.rd.close()
	if s.hdr != nil {
		rows := s.buf.Rows[:cap(s.buf.Rows)]
		clear(rows)
		if cap(rows) <= 2*DefaultBatchSize { // append rounds a full batch up past DefaultBatchSize
			*s.hdr = rows[:0]
			batchHeaders.Put(s.hdr)
		}
		s.hdr, s.buf.Rows = nil, nil
	}
	return nil
}

func (s *seqScan) bufferedRows() int64 { return s.rd.peakBuf }

// ---------------------------------------------------------------------------
// Filter (with CrowdCompare support for crowd predicates)

type filterOp struct {
	node   *plan.Filter
	input  Operator
	crowd  bool
	cond   expr
	pre    expr             // crowd mode: node.Pre, the crowd-free phase
	calls  []crowdEqualCall // crowd mode with a crowd attached: the CROWDEQUAL calls in cond
	stream *equalStream     // crowd mode: quorum-streaming CROWDEQUAL state
	env    evalEnv          // Open's: the context cond and pre reach subqueries and the crowd through
	buf    Batch
}

// newFilter binds x's condition over in's rows — and for a crowd filter
// its crowd-free phase and, when ctx has a crowd to ask, the operands of
// its CROWDEQUAL calls.
func newFilter(ctx *Ctx, x *plan.Filter, in Operator, b *binder) *filterOp {
	schema := in.Schema()
	f := &filterOp{node: x, input: in, crowd: parser.HasCrowdFunc(x.Cond)}
	if f.crowd && ctx.Tasks != nil && ctx.Cache != nil {
		b.eqs = &f.calls
	}
	f.cond, b.eqs = b.bind(x.Cond, schema), nil
	if f.crowd {
		f.pre = b.bind(x.Pre, schema)
	}
	return f
}

func (f *filterOp) Schema() []plan.Col { return f.input.Schema() }

func (f *filterOp) Open(ctx *Ctx) error {
	f.env = evalEnv{ctx: ctx}
	if err := f.input.Open(ctx); err != nil || !f.crowd {
		return err
	}
	// CrowdFilter: drain the input, batch-resolve every CROWDEQUAL pair
	// in pipelined HIT groups (CrowdCompare). Collection is deferred to
	// NextBatch so rows stream out as their quorums land.
	buffered, err := drainInput(ctx, f.input, nil)
	if err != nil {
		return err
	}
	// Cost-based phase ordering: when the optimizer split off a cheap
	// (crowd-free) phase, prune with it first — rows a machine predicate
	// rejects must never cost a paid comparison. AND semantics make this
	// exact: a row failing Pre fails Cond regardless of crowd verdicts.
	if !f.pre.none() {
		kept := buffered[:0]
		for _, r := range buffered {
			keep, err := f.pre.keeps(r, &f.env)
			if err != nil {
				return err
			}
			if keep {
				kept = append(kept, r)
			}
		}
		buffered = kept
	}
	stream, err := newEqualStream(ctx, f.cond, f.calls, buffered)
	if err != nil {
		return err
	}
	f.stream = stream
	return nil
}

func (f *filterOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if f.crowd {
		return f.stream.nextBatch(ctx)
	}
	for {
		b, err := f.input.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		f.buf.Rows = slices.Grow(f.buf.Rows[:0], len(b.Rows))
		for _, r := range b.Rows {
			keep, err := f.cond.keeps(r, &f.env)
			if err != nil {
				return nil, err
			}
			if keep {
				f.buf.Rows = append(f.buf.Rows, r)
			}
		}
		if len(f.buf.Rows) > 0 {
			return &f.buf, nil
		}
	}
}

func (f *filterOp) Close(ctx *Ctx) error {
	if f.stream != nil {
		f.stream.close()
		f.stream = nil
	}
	f.buf.release()
	return f.input.Close(ctx)
}

func (f *filterOp) bufferedRows() int64 {
	if f.stream != nil {
		return int64(len(f.stream.rows))
	}
	return 0
}

// ---------------------------------------------------------------------------
// Project

type projectOp struct {
	node  *plan.Project
	input Operator
	items []expr  // items[i] computes output column i
	env   evalEnv // Open's: the context the items reach subqueries and the crowd through
	buf   Batch
}

func (p *projectOp) Schema() []plan.Col { return p.node.Schema() }

func (p *projectOp) Open(ctx *Ctx) error {
	p.env = evalEnv{ctx: ctx}
	return p.input.Open(ctx)
}

func (p *projectOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := p.input.NextBatch(ctx)
	if err != nil {
		return nil, err
	}
	if b.Len() == 0 {
		return nil, nil
	}
	p.buf.Rows = slices.Grow(p.buf.Rows[:0], len(b.Rows))
	// One allocation holds the batch's output rows. The consumer may keep
	// them, so the next batch gets its own.
	w := len(p.items)
	vals := make([]sqltypes.Value, len(b.Rows)*w)
	for _, r := range b.Rows {
		out := Row(vals[:w:w])
		vals = vals[w:]
		for i := range p.items {
			if out[i], err = p.items[i].eval(r, &p.env); err != nil {
				return nil, err
			}
		}
		p.buf.Rows = append(p.buf.Rows, out)
	}
	return &p.buf, nil
}

func (p *projectOp) Close(ctx *Ctx) error {
	p.buf.release()
	return p.input.Close(ctx)
}

// ---------------------------------------------------------------------------
// Sort (plain and crowd-backed)

type sortOp struct {
	node  *plan.Sort
	input Operator
	keys  []expr // a plain sort's keys
	// A CROWDORDER sort shows each row to the crowd as label's value and
	// asks question; err is Open's for a crowd key it cannot sort by.
	label    expr
	question string
	err      error

	rows    []Row
	sorter  *crowdSorter // non-nil while a CROWDORDER sort is streaming
	emitted int
	buf     Batch
}

// newSort binds x's keys over in's rows. A CROWDORDER key delegates to the
// crowd sort and must be the only key; other keys sort conventionally. As
// binding an expression does, it defers what makes a key unsortable to
// Open.
func newSort(x *plan.Sort, in Operator, b *binder) *sortOp {
	s := &sortOp{node: x, input: in, question: "Which of the two items ranks higher?"}
	i := slices.IndexFunc(x.Keys, func(k parser.OrderItem) bool { return parser.HasCrowdFunc(k.Expr) })
	if i < 0 {
		s.keys = b.bindAll(len(x.Keys), func(i int) parser.Expr { return x.Keys[i].Expr }, in.Schema())
		return s
	}
	fc, ok := x.Keys[i].Expr.(*parser.FuncCall)
	var q *parser.Literal
	if ok && len(fc.Args) == 2 {
		q, _ = fc.Args[1].(*parser.Literal)
	}
	switch {
	case len(x.Keys) != 1:
		s.err = fmt.Errorf("exec: CROWDORDER cannot be combined with other sort keys")
	case !ok || fc.Name != "CROWDORDER":
		s.err = fmt.Errorf("exec: unsupported crowd sort key %s", x.Keys[i].Expr)
	case len(fc.Args) == 2 && q == nil:
		s.err = fmt.Errorf("exec: CROWDORDER question must be a string literal")
	default:
		if q != nil {
			s.question = q.Val.Str()
		}
		s.label = b.bind(fc.Args[0], in.Schema())
	}
	return s
}

func (s *sortOp) Schema() []plan.Col { return s.input.Schema() }

func (s *sortOp) Open(ctx *Ctx) error {
	s.rows, s.sorter, s.emitted = nil, nil, 0
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	switch {
	case s.err != nil:
		return s.err
	case !s.label.none():
		return s.crowdSort(ctx)
	}
	return s.plainSort(ctx)
}

func (s *sortOp) crowdSort(ctx *Ctx) error {
	rows, err := drainInput(ctx, s.input, nil)
	if err != nil {
		return err
	}
	s.rows = rows
	sorter := newCrowdSorter(ctx, s.rows, s.label, s.question)
	if s.node.Keys[0].Desc {
		// DESC reverses the final order, so the settled ASC prefix is the
		// *suffix* of the output: stream nothing until the sort completes
		// (matches the materializing executor exactly).
		if err := sorter.run(); err != nil {
			return err
		}
		s.rows = sorter.permuted()
		reverseRows(s.rows)
		return nil
	}
	// ASC streams: NextBatch drives comparison rounds and emits the settled
	// prefix as it grows.
	s.sorter = sorter
	return nil
}

func reverseRows(rows []Row) {
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
}

// plainSort consumes the input and leaves in s.rows, in output order, the
// first node.StopAfter rows of its stable sort — all of them when there is
// no bound (see topK).
func (s *sortOp) plainSort(ctx *Ctx) error {
	top := &topK{order: s.node.Keys, keys: s.keys, keep: s.node.StopAfter}
	var rows []Row // rows[slot]
	for {
		in, err := s.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if in.Len() == 0 {
			break
		}
		for _, r := range in.Rows {
			switch slot, err := top.offer(r); {
			case err != nil:
				return err
			case slot == len(rows):
				rows = append(rows, r)
			case slot >= 0:
				rows[slot] = r
			}
		}
	}
	order := top.sorted()
	s.rows = make([]Row, len(order))
	for i, at := range order {
		s.rows[i] = rows[at]
	}
	return nil
}

func (s *sortOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if s.sorter != nil {
		// Run comparison rounds until the settled prefix grows past what
		// has been emitted (or the sort completes). CROWDORDER's
		// breadth-first quicksort settles most-preferred rows first, so
		// the first rows leave while later partitions still wait on the
		// crowd.
		for !s.sorter.done() && s.sorter.settled() <= s.emitted {
			if err := s.sorter.step(); err != nil {
				return nil, err
			}
		}
		end := s.sorter.settled()
		if s.emitted >= end {
			return nil, nil // fully emitted (done, nothing left)
		}
		n := min(ctx.rowsPerBatch(), end-s.emitted)
		s.buf.reset()
		for i := s.emitted; i < s.emitted+n; i++ {
			s.buf.Rows = append(s.buf.Rows, s.rows[s.sorter.idx[i]])
		}
		s.emitted += n
		return &s.buf, nil
	}
	if s.emitted >= len(s.rows) {
		return nil, nil
	}
	n := min(ctx.rowsPerBatch(), len(s.rows)-s.emitted)
	s.buf.Rows = s.rows[s.emitted : s.emitted+n]
	s.emitted += n
	return &s.buf, nil
}

func (s *sortOp) Close(ctx *Ctx) error {
	s.rows, s.sorter, s.buf.Rows = nil, nil, nil
	return s.input.Close(ctx)
}

func (s *sortOp) bufferedRows() int64 { return int64(len(s.rows)) }

// ---------------------------------------------------------------------------
// Limit / Distinct

type limitOp struct {
	node    *plan.Limit
	input   Operator
	skipped int64
	emitted int64
	buf     Batch
}

func (l *limitOp) Schema() []plan.Col { return l.input.Schema() }

func (l *limitOp) Open(ctx *Ctx) error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open(ctx)
}

func (l *limitOp) NextBatch(ctx *Ctx) (*Batch, error) {
	for {
		if l.node.N >= 0 && l.emitted >= l.node.N {
			return nil, nil
		}
		b, err := l.input.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		rows := b.Rows
		if l.skipped < l.node.Offset {
			skip := l.node.Offset - l.skipped
			if skip > int64(len(rows)) {
				skip = int64(len(rows))
			}
			l.skipped += skip
			rows = rows[skip:]
		}
		if l.node.N >= 0 {
			if remaining := l.node.N - l.emitted; int64(len(rows)) >= remaining {
				rows = rows[:remaining]
				l.emitted = l.node.N
			} else {
				l.emitted += int64(len(rows))
			}
		}
		if len(rows) == 0 {
			continue
		}
		l.buf.Rows = rows // view into the input batch: valid until our next call
		return &l.buf, nil
	}
}

func (l *limitOp) Close(ctx *Ctx) error {
	l.buf.Rows = nil // a view into the input's batch
	return l.input.Close(ctx)
}

type distinctOp struct {
	input  Operator
	seen   keyTable
	keyBuf []byte
	buf    Batch
}

func (d *distinctOp) Schema() []plan.Col { return d.input.Schema() }

func (d *distinctOp) Open(ctx *Ctx) error {
	d.seen = newKeyTable(0)
	return d.input.Open(ctx)
}

func (d *distinctOp) NextBatch(ctx *Ctx) (*Batch, error) {
	for {
		b, err := d.input.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		d.buf.reset()
		for _, r := range b.Rows {
			d.keyBuf = sqltypes.AppendRowKey(d.keyBuf[:0], r)
			if _, isNew := d.seen.add(d.keyBuf); isNew {
				d.buf.Rows = append(d.buf.Rows, r)
			}
		}
		if len(d.buf.Rows) > 0 {
			return &d.buf, nil
		}
	}
}

func (d *distinctOp) Close(ctx *Ctx) error {
	d.seen = keyTable{}
	d.buf.release()
	return d.input.Close(ctx)
}

func (d *distinctOp) bufferedRows() int64 { return int64(d.seen.len()) }

// ---------------------------------------------------------------------------
// Aggregate: one pass, one running state per (group, aggregate call). No
// input row is kept beyond each group's first.

type aggregateOp struct {
	node        *plan.Aggregate
	input       Operator
	keys, items []expr // GROUP BY and the select list
	having      expr
	topKeys     []expr // node.TopKeys, over the output rows
	// calls are the aggregate calls (COUNT(*) aside: the group counts its
	// rows) the select list and HAVING read, in first-use order: a call's
	// index is its slot in a group's states.
	calls  []aggCall
	env    evalEnv // emit's: the table and the group the calls read
	out    batchEmitter
	groups int64
}

// aggCall is one aggregate call: its function and its argument compiled
// over the input rows.
type aggCall struct {
	fn  uint8
	arg expr
}

// newAggregate binds x's GROUP BY, select list and HAVING over in's rows,
// gathering the aggregate calls the last two read, and binds the sort keys
// pushed into it over its output rows.
func newAggregate(x *plan.Aggregate, in Operator, b *binder) *aggregateOp {
	a := &aggregateOp{node: x, input: in}
	schema := in.Schema()
	a.keys = b.bindAll(len(x.GroupBy), func(i int) parser.Expr { return x.GroupBy[i] }, schema)
	b.aggs = &a.calls
	a.items = b.bindAll(len(x.Items), func(i int) parser.Expr { return x.Items[i].Expr }, schema)
	a.having, b.aggs = b.bind(x.Having, schema), nil
	a.topKeys = b.bindAll(len(x.TopKeys), func(i int) parser.Expr { return x.TopKeys[i].Expr }, a.Schema())
	return a
}

const (
	aggCount uint8 = iota + 1
	aggSum
	aggAvg
	aggMin
	aggMax
)

var (
	aggFns   = map[string]uint8{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}
	aggNames = [...]string{aggSum: "SUM", aggAvg: "AVG", aggMin: "MIN", aggMax: "MAX"}
)

// aggTable is one aggregation's groups, numbered by their keys in
// arrival order, and everything they accumulate, indexed by group id.
type aggTable struct {
	keys   keyTable
	groups chunks[aggGroup]
	states chunks[aggState]       // a run of one per call for each group
	best   chunks[sqltypes.Value] // MIN/MAX: each state's best value so far
	errs   chunks[error]          // the states' deferred errors
	key    []byte                 // the row being folded's group key
}

// aggTables recycles GROUP BY's tables across statements. A table is
// cleared as it goes back, so the pool holds no row, value or error.
var aggTables = sync.Pool{New: func() any { return &aggTable{keys: newKeyTable(0)} }}

// aggTableCap is the most groups a table may have had to go back to the
// pool: a larger one is left to the collector.
const aggTableCap = 1 << 14

// newAggTable returns an empty table for calls aggregate calls.
func newAggTable(calls int) *aggTable {
	g := aggTables.Get().(*aggTable)
	g.states.reset(calls)
	return g
}

// release returns g to the pool unless it is too large to keep.
func (g *aggTable) release() {
	if g.clear() {
		aggTables.Put(g)
	}
}

// clear empties g for its next statement, keeping its storage, and
// reports whether g is small enough to keep.
func (g *aggTable) clear() bool {
	if g.keys.len() > aggTableCap {
		return false
	}
	g.keys.reset()
	g.groups.reset(0)
	g.states.reset(g.states.w)
	g.best.reset(0)
	g.errs.reset(0)
	if g.key = g.key[:0]; cap(g.key) > keyChunk {
		g.key = nil
	}
	return true
}

// aggGroup is one group's accumulated state beyond its calls'.
type aggGroup struct {
	first Row   // the group's first row: what non-aggregate expressions read
	rows  int64 // COUNT(*)
}

// aggState is the running state of one aggregate call over one group.
// Errors are deferred: they surface only if the call's value is read.
type aggState struct {
	n int64 // argument values that were not NULL/CNULL
	// acc is SUM's exact int64, or its float64 bits once sumFloat is set;
	// AVG's float64 bits; MIN/MAX's index in best. Once hasErr is set it
	// is the error's index in errs.
	acc   uint64
	flags uint8
}

const (
	sumFloat uint8 = 1 << iota // SUM: some value was not an integer, and acc is a float64
	hasErr                     // acc indexes errs: the first error evaluating the argument, else the first folding a value in
	evalErr                    // the error is an evaluation error
)

var errSumOverflow = errors.New("exec: SUM overflows INTEGER")

func (a *aggregateOp) Schema() []plan.Col { return a.node.Schema() }

func (a *aggregateOp) Open(ctx *Ctx) error {
	a.out, a.groups = batchEmitter{}, 0
	if err := a.input.Open(ctx); err != nil {
		return err
	}

	// The output rows are copied out of g before it goes back.
	g := newAggTable(len(a.calls))
	defer g.release()
	newGroup := func(first Row) {
		g.groups.at(g.groups.push()).first = first
		if len(a.calls) > 0 {
			g.states.push()
		}
	}
	for {
		batch, err := a.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if batch.Len() == 0 {
			break
		}
		for _, r := range batch.Rows {
			g.key = g.key[:0]
			for i := range a.keys {
				v, err := a.keys[i].eval(r, nil)
				if err != nil {
					return err
				}
				g.key = sqltypes.AppendKeyPart(g.key, v, len(a.keys))
			}
			id, isNew := g.keys.add(g.key)
			if isNew {
				newGroup(r)
			}
			g.groups.at(int(id)).rows++
			if len(a.calls) > 0 {
				states := g.states.run(int(id))
				for i := range a.calls {
					g.fold(&states[i], &a.calls[i], r)
				}
			}
		}
	}
	// A global aggregate over zero rows still produces one row; its
	// columns read NULL.
	if len(a.node.GroupBy) == 0 && g.groups.len() == 0 {
		newGroup(make(Row, len(a.input.Schema())))
	}
	a.groups = int64(g.groups.len())
	return a.emit(g)
}

// emit evaluates HAVING and the output items over every group, in group
// order, into one scratch row, and keeps the rows of the groups that pass:
// all of them, or under TopKeys only the TopK the Sort above keeps — the
// same ones, because ties in the keys go by group order as the Sort's go
// by arrival. Only kept rows are materialised. A sort key's error surfaces
// after the items' errors, where the Sort's own would.
func (a *aggregateOp) emit(g *aggTable) error {
	w, n := len(a.items), g.groups.len()
	var top *topK
	if a.node.TopKeys != nil {
		top = &topK{order: a.node.TopKeys, keys: a.topKeys, keep: a.node.TopK}
		n = int(min(int64(n), a.node.TopK))
	}
	vals := make([]sqltypes.Value, (n+1)*w) // n rows, then the scratch row
	scratch := Row(vals[n*w:])
	rows := make([]Row, 0, n)
	a.env = evalEnv{agg: g}
	defer func() { a.env = evalEnv{} }() // g goes back to its pool
	var keyErr error
	for id := range g.groups.len() {
		a.env.group = int32(id)
		first := g.groups.at(id).first
		keep, err := a.having.keeps(first, &a.env)
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		for i := range a.items {
			if scratch[i], err = a.items[i].eval(first, &a.env); err != nil {
				return err
			}
		}
		slot := len(rows)
		if top != nil {
			if slot, err = top.offer(scratch); err != nil && keyErr == nil {
				keyErr = err
			}
		}
		if slot < 0 {
			continue
		}
		if slot == len(rows) {
			rows = append(rows, vals[slot*w:][:w:w])
		}
		copy(rows[slot], scratch)
	}
	if keyErr != nil {
		return keyErr
	}
	a.out.rows = rows
	if top != nil {
		a.out.rows = make([]Row, len(rows))
		for i, slot := range top.inArrival() {
			a.out.rows[i] = rows[slot]
		}
	}
	return nil
}

func (a *aggregateOp) NextBatch(ctx *Ctx) (*Batch, error) { return a.out.next(ctx), nil }

func (a *aggregateOp) Close(ctx *Ctx) error {
	a.out = batchEmitter{}
	return a.input.Close(ctx)
}

func (a *aggregateOp) bufferedRows() int64 { return a.groups + int64(len(a.out.rows)) }

// fold folds the row's argument value into a state of c. SQL aggregates
// skip NULLs (and CNULLs).
func (g *aggTable) fold(s *aggState, c *aggCall, row Row) {
	v, err := c.arg.eval(row, nil)
	if err != nil {
		if s.flags&evalErr == 0 {
			g.fail(s, err)
			s.flags |= evalErr
		}
		return
	}
	if v.IsUnknown() {
		return
	}
	s.n++
	if s.flags&hasErr != 0 {
		return
	}
	switch c.fn {
	case aggSum, aggAvg:
		if c.fn == aggSum && s.flags&sumFloat == 0 && v.Kind() == sqltypes.KindInt {
			sum, i := int64(s.acc), v.Int()
			if i > 0 && sum > math.MaxInt64-i || i < 0 && sum < math.MinInt64-i {
				g.fail(s, errSumOverflow)
				return
			}
			s.acc = uint64(sum + i)
			return
		}
		f, err := v.Coerce(sqltypes.TypeFloat)
		if err != nil {
			g.fail(s, fmt.Errorf("exec: %s over non-numeric value %v", aggNames[c.fn], v))
			return
		}
		sum := math.Float64frombits(s.acc)
		if c.fn == aggSum && s.flags&sumFloat == 0 {
			sum = float64(int64(s.acc)) // the exact integer prefix
			s.flags |= sumFloat
		}
		s.acc = math.Float64bits(sum + f.Float())
	case aggMin, aggMax:
		if s.n == 1 {
			s.acc = uint64(g.best.push())
			*g.best.at(int(s.acc)) = v
			return
		}
		best := g.best.at(int(s.acc))
		c2, ok := sqltypes.Compare(v, *best)
		if !ok {
			g.fail(s, fmt.Errorf("exec: %s over incomparable values", aggNames[c.fn]))
			return
		}
		if (c.fn == aggMin && c2 < 0) || (c.fn == aggMax && c2 > 0) {
			*best = v
		}
	}
}

// fail records err as the state's error.
func (g *aggTable) fail(s *aggState, err error) {
	s.acc = uint64(g.errs.push())
	*g.errs.at(int(s.acc)) = err
	s.flags |= hasErr
}

// value is the result of call ord over group id's rows folded in so far:
// COUNT(*) when ord is negative.
func (g *aggTable) value(id, ord int32, fn uint8) (sqltypes.Value, error) {
	if ord < 0 {
		return sqltypes.NewInt(g.groups.at(int(id)).rows), nil
	}
	s := &g.states.run(int(id))[ord]
	if s.flags&evalErr != 0 {
		return sqltypes.Value{}, *g.errs.at(int(s.acc))
	}
	if fn == aggCount {
		return sqltypes.NewInt(s.n), nil
	}
	if s.n == 0 {
		return sqltypes.Null(), nil
	}
	if s.flags&hasErr != 0 {
		return sqltypes.Value{}, *g.errs.at(int(s.acc))
	}
	switch {
	case fn == aggAvg:
		return sqltypes.NewFloat(math.Float64frombits(s.acc) / float64(s.n)), nil
	case fn == aggSum && s.flags&sumFloat != 0:
		return sqltypes.NewFloat(math.Float64frombits(s.acc)), nil
	case fn == aggSum:
		return sqltypes.NewInt(int64(s.acc)), nil
	}
	return *g.best.at(int(s.acc)), nil
}
