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
}

func (s *seqScan) Schema() []plan.Col { return s.rd.node.Schema() }

func (s *seqScan) Open(ctx *Ctx) error {
	return s.rd.open(ctx, s.rd.node)
}

func (s *seqScan) nextRow(ctx *Ctx) (Row, error) {
	_, row, err := s.rd.next(ctx)
	return row, err
}

func (s *seqScan) NextBatch(ctx *Ctx) (*Batch, error) { return fillBatch(ctx, &s.buf, s.nextRow) }

func (s *seqScan) Close(*Ctx) error {
	s.rd.close()
	return nil
}

func (s *seqScan) bufferedRows() int64 { return s.rd.peakBuf }

// ---------------------------------------------------------------------------
// Filter (with CrowdCompare support for crowd predicates)

type filterOp struct {
	node   *plan.Filter
	input  Operator
	crowd  bool
	cond   *bound
	stream *equalStream // crowd mode: quorum-streaming CROWDEQUAL state
	buf    Batch
}

func (f *filterOp) Schema() []plan.Col { return f.input.Schema() }

func (f *filterOp) Open(ctx *Ctx) error {
	if err := f.input.Open(ctx); err != nil {
		return err
	}
	var b binder
	f.stream = nil
	if !f.crowd {
		f.cond = b.bind(f.node.Cond, f.Schema())
		return nil
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
	if pre := b.bind(f.node.Pre, f.Schema()); pre != nil {
		env := evalEnv{ctx: ctx}
		kept := buffered[:0]
		for _, r := range buffered {
			keep, err := pre.keeps(r, &env)
			if err != nil {
				return err
			}
			if keep {
				kept = append(kept, r)
			}
		}
		buffered = kept
	}
	stream, err := newEqualStream(ctx, f.node.Cond, buffered, f.Schema())
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
		env := evalEnv{ctx: ctx}
		for _, r := range b.Rows {
			keep, err := f.cond.keeps(r, &env)
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
	}
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
	items []bound // items[i] computes output column i
	buf   Batch
}

func (p *projectOp) Schema() []plan.Col { return p.node.Schema() }

func (p *projectOp) Open(ctx *Ctx) error {
	if err := p.input.Open(ctx); err != nil {
		return err
	}
	var b binder
	items := p.node.Items
	p.items = b.bindAll(len(items), func(i int) parser.Expr { return items[i].Expr }, p.input.Schema())
	return nil
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
	env := evalEnv{ctx: ctx}
	for _, r := range b.Rows {
		out := Row(vals[:w:w])
		vals = vals[w:]
		for i := range p.items {
			if out[i], err = p.items[i].eval(r, &env); err != nil {
				return nil, err
			}
		}
		p.buf.Rows = append(p.buf.Rows, out)
	}
	return &p.buf, nil
}

func (p *projectOp) Close(ctx *Ctx) error { return p.input.Close(ctx) }

// ---------------------------------------------------------------------------
// Sort (plain and crowd-backed)

type sortOp struct {
	node  *plan.Sort
	input Operator

	rows    []Row
	sorter  *crowdSorter // non-nil while a CROWDORDER sort is streaming
	emitted int
	buf     Batch
}

func (s *sortOp) Schema() []plan.Col { return s.input.Schema() }

func (s *sortOp) Open(ctx *Ctx) error {
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	s.rows, s.sorter, s.emitted = nil, nil, 0
	// Split keys: a CROWDORDER key delegates to the crowd sort; other keys
	// sort conventionally. A crowd key must be the only key.
	for _, k := range s.node.Keys {
		if parser.HasCrowdFunc(k.Expr) {
			if len(s.node.Keys) != 1 {
				return fmt.Errorf("exec: CROWDORDER cannot be combined with other sort keys")
			}
			return s.crowdSort(ctx, k)
		}
	}
	return s.plainSort(ctx)
}

func (s *sortOp) crowdSort(ctx *Ctx, k parser.OrderItem) error {
	rows, err := drainInput(ctx, s.input, nil)
	if err != nil {
		return err
	}
	s.rows = rows
	sorter, err := newCrowdSorter(ctx, s.rows, s.Schema(), k)
	if err != nil {
		return err
	}
	if k.Desc {
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
	top := newTopK(s.node.Keys, s.node.StopAfter, s.Schema())
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

func (s *sortOp) Close(ctx *Ctx) error { return s.input.Close(ctx) }

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

func (l *limitOp) Close(ctx *Ctx) error { return l.input.Close(ctx) }

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

func (d *distinctOp) Close(ctx *Ctx) error { return d.input.Close(ctx) }

func (d *distinctOp) bufferedRows() int64 { return int64(d.seen.len()) }

// ---------------------------------------------------------------------------
// Aggregate: one pass, one running state per (group, aggregate call). No
// input row is kept beyond each group's first.

type aggregateOp struct {
	node  *plan.Aggregate
	input Operator
	out   batchEmitter
	// calls are the bAgg nodes (COUNT(*) aside: the group counts its rows)
	// the select list and HAVING read, in first-use order: a call's index
	// is its slot in a group's states.
	calls  []*bound
	groups int64
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
	if err := a.input.Open(ctx); err != nil {
		return err
	}
	a.out, a.calls = batchEmitter{}, nil
	var b binder
	in := a.input.Schema()
	keys := b.bindAll(len(a.node.GroupBy), func(i int) parser.Expr { return a.node.GroupBy[i] }, in)
	items := b.bindAll(len(a.node.Items), func(i int) parser.Expr { return a.node.Items[i].Expr }, in)
	having := b.bind(a.node.Having, in)
	for i := range items {
		a.number(&items[i])
	}
	a.number(having)

	g := &aggTable{keys: newKeyTable(0), states: chunks[aggState]{w: len(a.calls)}}
	newGroup := func(first Row) {
		g.groups.at(g.groups.push()).first = first
		if len(a.calls) > 0 {
			g.states.push()
		}
	}
	var keyBuf []byte
	for {
		batch, err := a.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if batch.Len() == 0 {
			break
		}
		for _, r := range batch.Rows {
			keyBuf = keyBuf[:0]
			for i := range keys {
				v, err := keys[i].eval(r, nil)
				if err != nil {
					return err
				}
				keyBuf = sqltypes.AppendKeyPart(keyBuf, v, len(keys))
			}
			id, isNew := g.keys.add(keyBuf)
			if isNew {
				newGroup(r)
			}
			g.groups.at(int(id)).rows++
			if len(a.calls) > 0 {
				states := g.states.run(int(id))
				for i, c := range a.calls {
					g.fold(&states[i], c, r)
				}
			}
		}
	}
	// A global aggregate over zero rows still produces one row; its
	// columns read NULL.
	if len(a.node.GroupBy) == 0 && g.groups.len() == 0 {
		newGroup(make(Row, len(in)))
	}
	a.groups = int64(g.groups.len())
	return a.emit(g, items, having)
}

// emit evaluates HAVING and the output items over every group, in group
// order, into one scratch row, and keeps the rows of the groups that pass:
// all of them, or under TopKeys only the TopK the Sort above keeps — the
// same ones, because ties in the keys go by group order as the Sort's go
// by arrival. Only kept rows are materialised. A sort key's error surfaces
// after the items' errors, where the Sort's own would.
func (a *aggregateOp) emit(g *aggTable, items []bound, having *bound) error {
	w, n := len(items), g.groups.len()
	var top *topK
	if a.node.TopKeys != nil {
		top = newTopK(a.node.TopKeys, a.node.TopK, a.Schema())
		n = int(min(int64(n), a.node.TopK))
	}
	vals := make([]sqltypes.Value, (n+1)*w) // n rows, then the scratch row
	scratch := Row(vals[n*w:])
	rows := make([]Row, 0, n)
	var (
		env    = evalEnv{agg: g}
		keyErr error
	)
	for id := range g.groups.len() {
		env.group = int32(id)
		first := g.groups.at(id).first
		keep, err := having.keeps(first, &env)
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		for i := range items {
			if scratch[i], err = items[i].eval(first, &env); err != nil {
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

// number gives each aggregate call under n — not under another's
// argument, where it stays out of place — its slot in a group's states.
func (a *aggregateOp) number(n *bound) {
	switch {
	case n == nil:
	case n.kind != bAgg:
		for i := range n.kids {
			a.number(&n.kids[i])
		}
	case len(n.kids) > 0:
		n.ord = int32(len(a.calls))
		a.calls = append(a.calls, n)
	}
}

func (a *aggregateOp) NextBatch(ctx *Ctx) (*Batch, error) { return a.out.next(ctx), nil }

func (a *aggregateOp) Close(ctx *Ctx) error { return a.input.Close(ctx) }

func (a *aggregateOp) bufferedRows() int64 { return a.groups + int64(len(a.out.rows)) }

// fold folds the row's argument value into a state of c. SQL aggregates
// skip NULLs (and CNULLs).
func (g *aggTable) fold(s *aggState, c *bound, row Row) {
	v, err := c.kids[0].eval(row, nil)
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
	switch c.op {
	case aggSum, aggAvg:
		if c.op == aggSum && s.flags&sumFloat == 0 && v.Kind() == sqltypes.KindInt {
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
			g.fail(s, fmt.Errorf("exec: %s over non-numeric value %v", aggNames[c.op], v))
			return
		}
		sum := math.Float64frombits(s.acc)
		if c.op == aggSum && s.flags&sumFloat == 0 {
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
			g.fail(s, fmt.Errorf("exec: %s over incomparable values", aggNames[c.op]))
			return
		}
		if (c.op == aggMin && c2 < 0) || (c.op == aggMax && c2 > 0) {
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
