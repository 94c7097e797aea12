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
// Batch sizing is per-statement (Ctx.BatchSize, DefaultBatchSize when
// unset). Operators reuse one batch buffer across NextBatch calls, so a
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
	"fmt"
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
	node *plan.Scan
	rd   tableReader
	buf  Batch
}

func (s *seqScan) Schema() []plan.Col { return s.node.Schema() }

func (s *seqScan) Open(ctx *Ctx) error {
	return s.rd.open(ctx, s.node, s.node.Filter, s.node.StopAfter)
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
	stream *equalStream // crowd mode: quorum-streaming CROWDEQUAL state
	buf    Batch
}

func (f *filterOp) Schema() []plan.Col { return f.input.Schema() }

func (f *filterOp) Open(ctx *Ctx) error {
	if err := f.input.Open(ctx); err != nil {
		return err
	}
	f.stream = nil
	if !f.crowd {
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
	if f.node.Pre != nil {
		kept := buffered[:0]
		for _, r := range buffered {
			v, err := eval(f.node.Pre, &evalCtx{schema: f.Schema(), row: r, exec: ctx})
			if err != nil {
				return err
			}
			if b, unknown := boolOf(v); !unknown && b {
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
		f.buf.reset()
		for _, r := range b.Rows {
			v, err := eval(f.node.Cond, &evalCtx{schema: f.Schema(), row: r, crowdEqual: cachedEqualResolver(ctx), exec: ctx})
			if err != nil {
				return nil, err
			}
			if keep, unknown := boolOf(v); !unknown && keep {
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

// rowMatches evaluates a (crowd-free) predicate to a keep/drop decision.
func rowMatches(filter parser.Expr, row Row, schema []plan.Col) (bool, error) {
	if filter == nil {
		return true, nil
	}
	v, err := eval(filter, &evalCtx{schema: schema, row: row})
	if err != nil {
		return false, err
	}
	b, unknown := boolOf(v)
	return !unknown && b, nil
}

// ---------------------------------------------------------------------------
// Project

type projectOp struct {
	node  *plan.Project
	input Operator
	buf   Batch
}

func (p *projectOp) Schema() []plan.Col { return p.node.Schema() }

func (p *projectOp) Open(ctx *Ctx) error { return p.input.Open(ctx) }

func (p *projectOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := p.input.NextBatch(ctx)
	if err != nil {
		return nil, err
	}
	if b.Len() == 0 {
		return nil, nil
	}
	p.buf.reset()
	for _, r := range b.Rows {
		out := make(Row, len(p.node.Items))
		ectx := &evalCtx{schema: p.input.Schema(), row: r, crowdEqual: cachedEqualResolver(ctx), exec: ctx}
		for i, it := range p.node.Items {
			v, err := eval(it.Expr, ectx)
			if err != nil {
				return nil, err
			}
			out[i] = v
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
	rows, err := drainInput(ctx, s.input, nil)
	if err != nil {
		return err
	}
	s.rows = rows
	// Split keys: a CROWDORDER key delegates to the crowd sort; other keys
	// sort conventionally. A crowd key must be the only key.
	for _, k := range s.node.Keys {
		if parser.HasCrowdFunc(k.Expr) {
			if len(s.node.Keys) != 1 {
				return fmt.Errorf("exec: CROWDORDER cannot be combined with other sort keys")
			}
			sorter, err := newCrowdSorter(ctx, s.rows, s.Schema(), k)
			if err != nil {
				return err
			}
			if k.Desc {
				// DESC reverses the final order, so the settled ASC
				// prefix is the *suffix* of the output: stream nothing
				// until the sort completes (matches the materializing
				// executor exactly).
				if err := sorter.run(); err != nil {
					return err
				}
				s.rows = sorter.permuted()
				reverseRows(s.rows)
				return nil
			}
			// ASC streams: NextBatch drives comparison rounds and emits
			// the settled prefix as it grows.
			s.sorter = sorter
			return nil
		}
	}
	return s.plainSort(ctx)
}

func reverseRows(rows []Row) {
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
}

func (s *sortOp) plainSort(ctx *Ctx) error {
	// The keys are evaluated once into one flat array and the sort moves
	// row numbers, not rows: swapping integers needs no write barrier, so
	// what a sort costs does not depend on whether the collector happens
	// to be marking while it runs.
	nk := len(s.node.Keys)
	keys := make([]sqltypes.Value, len(s.rows)*nk)
	ectx := &evalCtx{schema: s.Schema()}
	for i, r := range s.rows {
		ectx.row = r
		for ki, k := range s.node.Keys {
			v, err := eval(k.Expr, ectx)
			if err != nil {
				return err
			}
			keys[i*nk+ki] = v
		}
	}
	order := make([]int32, len(s.rows))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		for ki, k := range s.node.Keys {
			c := sqltypes.SortCompare(keys[int(a)*nk+ki], keys[int(b)*nk+ki])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	sorted := make([]Row, len(s.rows))
	for i, at := range order {
		sorted[i] = s.rows[at]
	}
	s.rows = sorted
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
		n := min(ctx.batchSize(), end-s.emitted)
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
	n := min(ctx.batchSize(), len(s.rows)-s.emitted)
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
	input Operator
	seen  map[string]bool
	buf   Batch
}

func (d *distinctOp) Schema() []plan.Col { return d.input.Schema() }

func (d *distinctOp) Open(ctx *Ctx) error {
	d.seen = make(map[string]bool)
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
			k := storage.IndexKey(r...)
			if !d.seen[k] {
				d.seen[k] = true
				d.buf.Rows = append(d.buf.Rows, r)
			}
		}
		if len(d.buf.Rows) > 0 {
			return &d.buf, nil
		}
	}
}

func (d *distinctOp) Close(ctx *Ctx) error { return d.input.Close(ctx) }

func (d *distinctOp) bufferedRows() int64 { return int64(len(d.seen)) }

// ---------------------------------------------------------------------------
// Aggregate: one pass, one running state per (group, aggregate call). No
// input row is kept beyond each group's first.

type aggregateOp struct {
	node  *plan.Aggregate
	input Operator
	out   batchEmitter
	// calls are the aggregate calls (COUNT(*) aside: the group counts its
	// rows) the select list and HAVING read, in first-use order; callAt
	// maps each back to its slot in a group.
	calls  []*parser.FuncCall
	callAt map[*parser.FuncCall]int
	groups int64
}

// aggGroup is one group's accumulated state.
type aggGroup struct {
	first  Row   // the group's first row: what non-aggregate expressions read
	rows   int64 // COUNT(*)
	states []aggState
}

// aggState is the running state of one aggregate call over one group.
// Errors are deferred: they surface only if the call's value is read.
type aggState struct {
	n       int64          // argument values that were not NULL/CNULL
	sum     float64        // SUM/AVG: in arrival order
	nonInt  bool           // SUM: some value was not an integer
	best    sqltypes.Value // MIN/MAX
	evalErr error          // first error evaluating the argument
	err     error          // first error folding a value in
}

func (a *aggregateOp) Schema() []plan.Col { return a.node.Schema() }

// collectCalls registers the aggregate calls evalAgg will reach in e (the
// same descent: through operators, not into function arguments).
func (a *aggregateOp) collectCalls(e parser.Expr) {
	switch x := e.(type) {
	case *parser.FuncCall:
		if _, seen := a.callAt[x]; x.IsAggregate() && !x.Star && !seen {
			a.callAt[x] = len(a.calls)
			a.calls = append(a.calls, x)
		}
	case *parser.BinaryExpr:
		if parser.HasAggregate(e) {
			a.collectCalls(x.L)
			a.collectCalls(x.R)
		}
	case *parser.UnaryExpr:
		if parser.HasAggregate(e) {
			a.collectCalls(x.E)
		}
	}
}

func (a *aggregateOp) Open(ctx *Ctx) error {
	if err := a.input.Open(ctx); err != nil {
		return err
	}
	a.out = batchEmitter{}
	a.calls, a.callAt = nil, make(map[*parser.FuncCall]int)
	for _, it := range a.node.Items {
		a.collectCalls(it.Expr)
	}
	if a.node.Having != nil {
		a.collectCalls(a.node.Having)
	}
	newGroup := func(first Row) *aggGroup {
		return &aggGroup{first: first, states: make([]aggState, len(a.calls))}
	}
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var keyBuf []byte
	ectx := &evalCtx{schema: a.input.Schema()}
	for {
		b, err := a.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			ectx.row = r
			keyBuf = keyBuf[:0]
			for _, g := range a.node.GroupBy {
				v, err := eval(g, ectx)
				if err != nil {
					return err
				}
				keyBuf = storage.AppendIndexKey(keyBuf, v)
			}
			grp, ok := groups[string(keyBuf)]
			if !ok {
				grp = newGroup(r)
				groups[string(keyBuf)] = grp
				order = append(order, grp)
			}
			grp.rows++
			for i, fc := range a.calls {
				grp.states[i].add(fc, ectx)
			}
		}
	}
	// A global aggregate over zero rows still produces one row.
	if len(a.node.GroupBy) == 0 && len(order) == 0 {
		order = append(order, newGroup(nil))
	}
	a.groups = int64(len(order))
	for _, grp := range order {
		if a.node.Having != nil {
			hv, err := a.evalAgg(a.node.Having, grp)
			if err != nil {
				return err
			}
			if b, unknown := boolOf(hv); unknown || !b {
				continue
			}
		}
		out := make(Row, len(a.node.Items))
		for i, it := range a.node.Items {
			v, err := a.evalAgg(it.Expr, grp)
			if err != nil {
				return err
			}
			out[i] = v
		}
		a.out.rows = append(a.out.rows, out)
	}
	return nil
}

func (a *aggregateOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b := a.out.next(ctx)
	if b == nil {
		return nil, nil
	}
	return b, nil
}

func (a *aggregateOp) Close(ctx *Ctx) error { return a.input.Close(ctx) }

func (a *aggregateOp) bufferedRows() int64 { return a.groups + int64(len(a.out.rows)) }

// add folds the current row's argument value into the state. SQL
// aggregates skip NULLs (and CNULLs).
func (s *aggState) add(fc *parser.FuncCall, ectx *evalCtx) {
	v, err := eval(fc.Args[0], ectx)
	if err != nil {
		if s.evalErr == nil {
			s.evalErr = err
		}
		return
	}
	if v.IsUnknown() {
		return
	}
	s.n++
	if s.err != nil {
		return
	}
	switch fc.Name {
	case "SUM", "AVG":
		f, err := v.Coerce(sqltypes.TypeFloat)
		if err != nil {
			s.err = fmt.Errorf("exec: %s over non-numeric value %v", fc.Name, v)
			return
		}
		s.sum += f.Float()
		if v.Kind() != sqltypes.KindInt {
			s.nonInt = true
		}
	case "MIN", "MAX":
		if s.n == 1 {
			s.best = v
			return
		}
		c, ok := sqltypes.Compare(v, s.best)
		if !ok {
			s.err = fmt.Errorf("exec: %s over incomparable values", fc.Name)
			return
		}
		if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
			s.best = v
		}
	}
}

// value is the aggregate's result over the rows folded in so far.
func (s *aggState) value(fc *parser.FuncCall) (sqltypes.Value, error) {
	if s.evalErr != nil {
		return sqltypes.Value{}, s.evalErr
	}
	switch fc.Name {
	case "COUNT":
		return sqltypes.NewInt(s.n), nil
	case "SUM", "AVG", "MIN", "MAX":
	default:
		return sqltypes.Value{}, fmt.Errorf("exec: unknown aggregate %s", fc.Name)
	}
	if s.n == 0 {
		return sqltypes.Null(), nil
	}
	if s.err != nil {
		return sqltypes.Value{}, s.err
	}
	switch {
	case fc.Name == "AVG":
		return sqltypes.NewFloat(s.sum / float64(s.n)), nil
	case fc.Name == "SUM" && s.nonInt:
		return sqltypes.NewFloat(s.sum), nil
	case fc.Name == "SUM":
		return sqltypes.NewInt(int64(s.sum)), nil
	}
	return s.best, nil
}

// evalAgg evaluates an expression over a group: aggregates read their
// accumulated state, everything else the group's first row (legal because
// the planner enforced grouping).
func (a *aggregateOp) evalAgg(e parser.Expr, g *aggGroup) (sqltypes.Value, error) {
	if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
		if fc.Star { // COUNT(*)
			return sqltypes.NewInt(g.rows), nil
		}
		return g.states[a.callAt[fc]].value(fc)
	}
	switch x := e.(type) {
	case *parser.BinaryExpr:
		if parser.HasAggregate(e) {
			l, err := a.evalAgg(x.L, g)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := a.evalAgg(x.R, g)
			if err != nil {
				return sqltypes.Value{}, err
			}
			switch x.Op {
			case "AND", "OR":
				return evalLogic(x.Op, l, r)
			case "=", "<>", "<", "<=", ">", ">=":
				return evalBinary(&parser.BinaryExpr{Op: x.Op,
					L: &parser.Literal{Val: l}, R: &parser.Literal{Val: r}}, &evalCtx{})
			default:
				return evalArith(x.Op, l, r)
			}
		}
	case *parser.UnaryExpr:
		if parser.HasAggregate(e) {
			v, err := a.evalAgg(x.E, g)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return eval(&parser.UnaryExpr{Op: x.Op, E: &parser.Literal{Val: v}}, &evalCtx{})
		}
	}
	if g.first == nil {
		return sqltypes.Null(), nil
	}
	return eval(e, &evalCtx{schema: a.input.Schema(), row: g.first})
}
