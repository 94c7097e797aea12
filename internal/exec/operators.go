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
//	Close(ctx)     releases resources, stops any background workers, and
//	               reports feedback (observed selectivities) to the
//	               catalog. Close must be called even after an error.
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
//
// Early stop: operators that can cut upstream work short once a
// downstream quota is filled implement EarlyStopper; limitOp signals it
// the moment its Nth row is produced, which stops parallel scan workers
// instead of letting them fan out full shard scans whose rows would be
// discarded.
package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// Row is an executor tuple.
type Row = storage.Row

// Operator is a batch-at-a-time streaming iterator. See the package
// comment for the full contract (ownership, reuse, EOF, early stop).
type Operator interface {
	Schema() []plan.Col
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx) (*Batch, error)
	Close(ctx *Ctx) error
}

// ---------------------------------------------------------------------------
// SeqScan: stored-table scan with pushed filter and stop-after. Small
// tables snapshot in bulk (one lock acquisition per shard, no per-row
// store round-trips) and filter lazily per batch; large tables on a
// sharded store fan out one streaming worker per shard and merge by
// ascending row ID, which IS global insertion order (IDs are allocated
// from one per-table counter), so the parallel scan emits byte-identical
// output to the sequential one. Workers observe the early-stop signal:
// a filled LIMIT quota stops them mid-shard.

// DefaultParallelScanMinRows is the table size (catalog estimate) below
// which a scan stays sequential: fan-out overhead beats the win on small
// tables, and the paper's crowd workloads live well under it.
const DefaultParallelScanMinRows = 2048

type seqScan struct {
	node    *plan.Scan
	rows    []Row
	ids     []storage.RowID // lazy (stop-after) path only
	pos     int
	out     int64
	scanned int64
	stopped bool
	buf     Batch
	par     *parallelScanRun
	peakBuf int64
}

func (s *seqScan) Schema() []plan.Col { return s.node.Schema() }

func (s *seqScan) Open(ctx *Ctx) error {
	s.rows, s.ids, s.pos, s.out, s.scanned, s.stopped, s.par = nil, nil, 0, 0, 0, false, nil
	if parallelEligible(ctx, s.node) {
		// Lazy fan-out: workers start at the first NextBatch, so an
		// early stop that lands before any demand skips the scan work
		// entirely.
		s.par = newParallelScanRun(ctx, s.node)
		return nil
	}
	if s.node.StopAfter >= 0 {
		// The scan may stop far short of the table: fetch IDs only and
		// materialize rows lazily so a filled quota costs O(quota), not
		// O(table) clones.
		ids, err := ctx.Store.ScanAt(s.node.Table.Name, ctx.snapTS())
		if err != nil {
			return err
		}
		s.ids = ids
		s.peakBuf = int64(len(ids))
		return nil
	}
	_, rows, err := ctx.Store.ScanRowsAt(s.node.Table.Name, ctx.snapTS())
	if err != nil {
		return err
	}
	s.rows = rows
	s.peakBuf = int64(len(rows))
	return nil
}

// parallelEligible gates the fan-out: never when a stop-after could end
// the scan early (the sequential path stops scanning the moment the
// quota fills, and the selectivity feedback must see the same counts),
// and never below the size threshold.
func parallelEligible(ctx *Ctx, node *plan.Scan) bool {
	if node.StopAfter >= 0 || ctx.Store.NumShards() < 2 {
		return false
	}
	min := ctx.ParallelScanMinRows
	if min == 0 {
		min = DefaultParallelScanMinRows
	}
	return min > 0 && node.Table.RowCount() >= int64(min)
}

// StopEarly implements EarlyStopper: the sequential path simply stops
// producing (it is already lazy per batch); the parallel path signals
// the shard workers so in-flight filtering halts mid-shard.
func (s *seqScan) StopEarly() {
	s.stopped = true
	if s.par != nil {
		s.par.stop()
	}
}

func (s *seqScan) NextBatch(ctx *Ctx) (*Batch, error) {
	if s.stopped {
		return nil, nil
	}
	if s.par != nil {
		return s.par.nextBatch(ctx, &s.buf)
	}
	lazy := s.ids != nil
	s.buf.reset()
	limit := ctx.batchSize()
	for len(s.buf.Rows) < limit {
		if s.node.StopAfter >= 0 && s.out >= s.node.StopAfter {
			break
		}
		var row Row
		if lazy {
			if s.pos >= len(s.ids) {
				break
			}
			got, ok := ctx.Store.GetAt(s.node.Table.Name, s.ids[s.pos], ctx.snapTS())
			s.pos++
			if !ok {
				continue
			}
			row = got
		} else {
			if s.pos >= len(s.rows) {
				break
			}
			row = s.rows[s.pos]
			s.pos++
		}
		ctx.Stats.RowsScanned++
		s.scanned++
		keep, err := rowMatches(s.node.Filter, row, s.node.Schema())
		if err != nil {
			return nil, err
		}
		if keep {
			s.out++
			s.buf.Rows = append(s.buf.Rows, row)
		}
	}
	if len(s.buf.Rows) == 0 {
		return nil, nil
	}
	return &s.buf, nil
}

func (s *seqScan) Close(ctx *Ctx) error {
	if s.par != nil {
		scanned, kept, complete := s.par.finish()
		ctx.Stats.RowsScanned += int(scanned)
		s.scanned, s.out = scanned, kept
		// Feed the observed selectivity back only when every shard ran to
		// completion: a partial (early-stopped) scan's counts depend on
		// worker timing and would poison the EWMA nondeterministically.
		if complete && s.node.Filter != nil && scanned > 0 {
			s.node.Table.ObserveFilter(scanned, kept)
		}
		return nil
	}
	// Feed the observed predicate selectivity back to the cost model.
	if s.node.Filter != nil && s.scanned > 0 {
		s.node.Table.ObserveFilter(s.scanned, s.out)
	}
	return nil
}

func (s *seqScan) bufferedRows() int64 {
	if s.par != nil {
		return s.par.buffered()
	}
	return s.peakBuf
}

// ---------------------------------------------------------------------------
// Parallel scan fan-out: one streaming worker per shard, k-way merged by
// ascending row ID.

// parallelChunkRows is the granularity at which shard workers hand
// filtered rows to the merger and check the stop signal.
const parallelChunkRows = 256

type shardChunk struct {
	ids     []storage.RowID
	rows    []Row
	scanned int64
	kept    int64
	err     error
}

// shardCursor is the merger's view of one shard's stream.
type shardCursor struct {
	ch   chan shardChunk
	cur  shardChunk
	pos  int
	done bool
}

type parallelScanRun struct {
	node    *plan.Scan
	sch     []plan.Col
	at      int64
	store   *storage.Store
	started bool
	stopped atomic.Bool
	stopCh  chan struct{}
	stopOne sync.Once
	wg      sync.WaitGroup
	curs    []*shardCursor
	scanned atomic.Int64
	kept    atomic.Int64
	eofAll  bool
	maxBuf  atomic.Int64
}

func newParallelScanRun(ctx *Ctx, node *plan.Scan) *parallelScanRun {
	return &parallelScanRun{
		node:   node,
		sch:    node.Schema(), // resolved once; workers share it read-only
		at:     ctx.snapTS(),  // one timestamp for every shard: a consistent cut
		store:  ctx.Store,
		stopCh: make(chan struct{}),
	}
}

func (p *parallelScanRun) stop() {
	p.stopped.Store(true)
	p.stopOne.Do(func() { close(p.stopCh) })
}

func (p *parallelScanRun) start() {
	n := p.store.NumShards()
	p.curs = make([]*shardCursor, n)
	for i := 0; i < n; i++ {
		p.curs[i] = &shardCursor{ch: make(chan shardChunk, 2)}
		p.wg.Add(1)
		go p.worker(i, p.curs[i].ch)
	}
	p.started = true
}

// worker scans one shard, applies the pushed filter, and streams
// filtered chunks to the merger in ascending row-ID order. It checks the
// stop signal between chunks (and on every handoff), so a filled LIMIT
// quota halts the remaining filter work instead of producing rows that
// would be discarded.
func (p *parallelScanRun) worker(shard int, ch chan shardChunk) {
	defer p.wg.Done()
	defer close(ch)
	send := func(c shardChunk) bool {
		p.scanned.Add(c.scanned)
		p.kept.Add(c.kept)
		select {
		case ch <- c:
			return true
		case <-p.stopCh:
			return false
		}
	}
	ids, rows, err := p.store.ScanShardRowsAt(p.node.Table.Name, shard, p.at)
	if err != nil {
		send(shardChunk{err: err})
		return
	}
	p.maxBuf.Add(int64(len(rows)))
	var c shardChunk
	for j, row := range rows {
		c.scanned++
		keep, err := rowMatches(p.node.Filter, row, p.sch)
		if err != nil {
			c.err = err
			send(c)
			return
		}
		if keep {
			c.kept++
			c.ids = append(c.ids, ids[j])
			c.rows = append(c.rows, row)
		}
		if len(c.rows) >= parallelChunkRows {
			if !send(c) {
				return
			}
			c = shardChunk{}
		}
	}
	if c.scanned > 0 || len(c.rows) > 0 {
		send(c)
	}
}

// advance ensures the cursor holds a current row or is marked done.
func (c *shardCursor) advance() error {
	for !c.done && c.pos >= len(c.cur.rows) {
		chunk, ok := <-c.ch
		if !ok {
			c.done = true
			return nil
		}
		if chunk.err != nil {
			c.done = true
			return chunk.err
		}
		c.cur, c.pos = chunk, 0
	}
	return nil
}

// nextBatch merges the shard streams by ascending row ID into buf.
// Ascending ID across shards reconstructs insertion order exactly, so
// seeded replays stay bit-identical to the sequential scan.
func (p *parallelScanRun) nextBatch(ctx *Ctx, buf *Batch) (*Batch, error) {
	if !p.started {
		p.start()
	}
	buf.reset()
	limit := ctx.batchSize()
	for len(buf.Rows) < limit {
		best := -1
		var bestID storage.RowID
		for i, c := range p.curs {
			if err := c.advance(); err != nil {
				return nil, err
			}
			if c.done {
				continue
			}
			if id := c.cur.ids[c.pos]; best < 0 || id < bestID {
				best, bestID = i, id
			}
		}
		if best < 0 {
			p.eofAll = true
			break
		}
		c := p.curs[best]
		buf.Rows = append(buf.Rows, c.cur.rows[c.pos])
		c.pos++
	}
	if len(buf.Rows) == 0 {
		return nil, nil
	}
	return buf, nil
}

// finish stops the workers, waits them out (no goroutine leaks), and
// reports (scanned, kept, complete): complete is true only when every
// shard was filtered to the end and merged to EOF — the condition under
// which the counts are deterministic.
func (p *parallelScanRun) finish() (scanned, kept int64, complete bool) {
	if !p.started {
		return 0, 0, false
	}
	p.stopOne.Do(func() { close(p.stopCh) })
	p.wg.Wait()
	return p.scanned.Load(), p.kept.Load(), p.eofAll && !p.stopped.Load()
}

func (p *parallelScanRun) buffered() int64 { return p.maxBuf.Load() }

// ---------------------------------------------------------------------------
// Filter (with CrowdCompare support for crowd predicates)

type filterOp struct {
	node    *plan.Filter
	input   Operator
	crowd   bool
	stream  *equalStream // crowd mode: quorum-streaming CROWDEQUAL state
	stopped bool
	buf     Batch
}

func (f *filterOp) Schema() []plan.Col { return f.input.Schema() }

func (f *filterOp) Open(ctx *Ctx) error {
	if err := f.input.Open(ctx); err != nil {
		return err
	}
	f.stream, f.stopped = nil, false
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

func (f *filterOp) StopEarly() {
	f.stopped = true
	stopEarly(f.input)
}

func (f *filterOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if f.stopped {
		return nil, nil
	}
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

func (p *projectOp) StopEarly() { stopEarly(p.input) }

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
// Joins

// nlJoin is the general nested-loop join (inner, cross, left outer) with an
// arbitrary ON condition; the right side is buffered, the left streams.
type nlJoin struct {
	node  *plan.Join
	left  Operator
	right Operator

	rightRows []Row
	leftBatch *Batch
	lpos      int
	cur       Row
	rpos      int
	matched   bool
	buf       Batch
}

func (j *nlJoin) Schema() []plan.Col { return j.node.Schema() }

func (j *nlJoin) Open(ctx *Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	rows, err := drainInput(ctx, j.right, nil)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.leftBatch, j.lpos, j.cur, j.rpos, j.matched = nil, 0, nil, 0, false
	return nil
}

func (j *nlJoin) StopEarly() { stopEarly(j.left) }

// nextLeft pulls the next probe-side row through the batch pipeline.
func (j *nlJoin) nextLeft(ctx *Ctx) (Row, error) {
	for j.leftBatch == nil || j.lpos >= len(j.leftBatch.Rows) {
		b, err := j.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		j.leftBatch, j.lpos = b, 0
	}
	r := j.leftBatch.Rows[j.lpos]
	j.lpos++
	return r, nil
}

func (j *nlJoin) next(ctx *Ctx) (Row, error) {
	for {
		if j.cur == nil {
			l, err := j.nextLeft(ctx)
			if err != nil || l == nil {
				return nil, err
			}
			j.cur, j.rpos, j.matched = l, 0, false
		}
		for j.rpos < len(j.rightRows) {
			r := j.rightRows[j.rpos]
			j.rpos++
			combined := append(append(Row{}, j.cur...), r...)
			ok, err := rowMatches(j.node.On, combined, j.Schema())
			if err != nil {
				return nil, err
			}
			if ok {
				j.matched = true
				return combined, nil
			}
		}
		// Right side exhausted for this left row.
		if j.node.Type == parser.JoinLeft && !j.matched {
			out := append(Row{}, j.cur...)
			for range j.right.Schema() {
				out = append(out, sqltypes.Null())
			}
			j.cur = nil
			return out, nil
		}
		j.cur = nil
	}
}

func (j *nlJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	j.buf.reset()
	limit := ctx.batchSize()
	for len(j.buf.Rows) < limit {
		r, err := j.next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		j.buf.Rows = append(j.buf.Rows, r)
	}
	if len(j.buf.Rows) == 0 {
		return nil, nil
	}
	return &j.buf, nil
}

func (j *nlJoin) Close(ctx *Ctx) error {
	if err := j.left.Close(ctx); err != nil {
		return err
	}
	return j.right.Close(ctx)
}

func (j *nlJoin) bufferedRows() int64 { return int64(len(j.rightRows)) }

// hashJoin handles inner equi-joins: it hashes the right input on the join
// key and streams the left. The build table is pre-sized from the
// optimizer's cardinality estimate for the build side (plan.Join.BuildRows)
// so bulk builds do not rehash their way up from an empty map.
type hashJoin struct {
	node     *plan.Join
	left     Operator
	right    Operator
	leftKey  parser.Expr
	rightKey parser.Expr
	residual parser.Expr

	table map[string][]Row
	built int64
	cur   Row
	bkt   []Row
	bpos  int

	leftBatch *Batch
	lpos      int
	buf       Batch
}

func (j *hashJoin) Schema() []plan.Col { return j.node.Schema() }

// buildSizeHint converts the optimizer's build-side row estimate into a
// map pre-size, clamped so a wild estimate cannot pre-allocate
// unboundedly.
func (j *hashJoin) buildSizeHint() int {
	const maxHint = 1 << 20
	est := int(j.node.BuildRows)
	if est < 0 {
		return 0
	}
	if est > maxHint {
		return maxHint
	}
	return est
}

func (j *hashJoin) Open(ctx *Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string][]Row, j.buildSizeHint())
	j.built = 0
	for {
		b, err := j.right.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			v, err := eval(j.rightKey, &evalCtx{schema: j.right.Schema(), row: r})
			if err != nil {
				return err
			}
			if v.IsUnknown() {
				continue // unknown keys never join
			}
			k := storage.IndexKey(v)
			j.table[k] = append(j.table[k], r)
			j.built++
		}
	}
	j.leftBatch, j.lpos, j.cur, j.bkt, j.bpos = nil, 0, nil, nil, 0
	return nil
}

func (j *hashJoin) StopEarly() { stopEarly(j.left) }

func (j *hashJoin) nextLeft(ctx *Ctx) (Row, error) {
	for j.leftBatch == nil || j.lpos >= len(j.leftBatch.Rows) {
		b, err := j.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		j.leftBatch, j.lpos = b, 0
	}
	r := j.leftBatch.Rows[j.lpos]
	j.lpos++
	return r, nil
}

func (j *hashJoin) next(ctx *Ctx) (Row, error) {
	for {
		for j.bpos < len(j.bkt) {
			r := j.bkt[j.bpos]
			j.bpos++
			combined := append(append(Row{}, j.cur...), r...)
			ok, err := rowMatches(j.residual, combined, j.Schema())
			if err != nil {
				return nil, err
			}
			if ok {
				return combined, nil
			}
		}
		l, err := j.nextLeft(ctx)
		if err != nil || l == nil {
			return nil, err
		}
		v, err := eval(j.leftKey, &evalCtx{schema: j.left.Schema(), row: l})
		if err != nil {
			return nil, err
		}
		if v.IsUnknown() {
			continue
		}
		j.cur = l
		j.bkt = j.table[storage.IndexKey(v)]
		j.bpos = 0
	}
}

func (j *hashJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	j.buf.reset()
	limit := ctx.batchSize()
	for len(j.buf.Rows) < limit {
		r, err := j.next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		j.buf.Rows = append(j.buf.Rows, r)
	}
	if len(j.buf.Rows) == 0 {
		return nil, nil
	}
	return &j.buf, nil
}

func (j *hashJoin) Close(ctx *Ctx) error {
	if err := j.left.Close(ctx); err != nil {
		return err
	}
	return j.right.Close(ctx)
}

func (j *hashJoin) bufferedRows() int64 { return j.built }

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
	type keyed struct {
		row  Row
		keys []sqltypes.Value
	}
	ks := make([]keyed, len(s.rows))
	for i, r := range s.rows {
		ks[i] = keyed{row: r, keys: make([]sqltypes.Value, len(s.node.Keys))}
		for ki, k := range s.node.Keys {
			v, err := eval(k.Expr, &evalCtx{schema: s.Schema(), row: r})
			if err != nil {
				return err
			}
			ks[i].keys[ki] = v
		}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for ki, k := range s.node.Keys {
			c := sqltypes.SortCompare(ks[a].keys[ki], ks[b].keys[ki])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for i := range ks {
		s.rows[i] = ks[i].row
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

func (l *limitOp) StopEarly() { stopEarly(l.input) }

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
				// Quota filled: stop upstream production (parallel scan
				// workers, etc.) instead of discarding their rows.
				stopEarly(l.input)
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

func (d *distinctOp) StopEarly() { stopEarly(d.input) }

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
// Aggregate

type aggregateOp struct {
	node    *plan.Aggregate
	input   Operator
	out     batchEmitter
	grouped int64
}

func (a *aggregateOp) Schema() []plan.Col { return a.node.Schema() }

func (a *aggregateOp) Open(ctx *Ctx) error {
	if err := a.input.Open(ctx); err != nil {
		return err
	}
	a.out = batchEmitter{}
	a.grouped = 0
	groups := make(map[string][]Row)
	var order []string
	for {
		b, err := a.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			keyVals := make([]sqltypes.Value, len(a.node.GroupBy))
			for i, g := range a.node.GroupBy {
				v, err := eval(g, &evalCtx{schema: a.input.Schema(), row: r})
				if err != nil {
					return err
				}
				keyVals[i] = v
			}
			k := storage.IndexKey(keyVals...)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], r)
			a.grouped++
		}
	}
	// A global aggregate over zero rows still produces one row.
	if len(a.node.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "")
		groups[""] = nil
	}
	for _, k := range order {
		rows := groups[k]
		if a.node.Having != nil {
			hv, err := evalAggExpr(a.node.Having, rows, a.input.Schema())
			if err != nil {
				return err
			}
			if b, unknown := boolOf(hv); unknown || !b {
				continue
			}
		}
		out := make(Row, len(a.node.Items))
		for i, it := range a.node.Items {
			v, err := evalAggExpr(it.Expr, rows, a.input.Schema())
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

func (a *aggregateOp) bufferedRows() int64 { return a.grouped + int64(len(a.out.rows)) }

// evalAggExpr evaluates an expression over a group: aggregates compute over
// all rows, everything else over the group's first row (legal because the
// planner enforced grouping).
func evalAggExpr(e parser.Expr, rows []Row, schema []plan.Col) (sqltypes.Value, error) {
	if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
		return computeAggregate(fc, rows, schema)
	}
	switch x := e.(type) {
	case *parser.BinaryExpr:
		if exprHasAggregate(e) {
			l, err := evalAggExpr(x.L, rows, schema)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := evalAggExpr(x.R, rows, schema)
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
		if exprHasAggregate(e) {
			v, err := evalAggExpr(x.E, rows, schema)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return eval(&parser.UnaryExpr{Op: x.Op, E: &parser.Literal{Val: v}}, &evalCtx{})
		}
	}
	if len(rows) == 0 {
		return sqltypes.Null(), nil
	}
	return eval(e, &evalCtx{schema: schema, row: rows[0]})
}

func exprHasAggregate(e parser.Expr) bool {
	found := false
	parser.WalkExprs(e, func(x parser.Expr) {
		if fc, ok := x.(*parser.FuncCall); ok && fc.IsAggregate() {
			found = true
		}
	})
	return found
}

func computeAggregate(fc *parser.FuncCall, rows []Row, schema []plan.Col) (sqltypes.Value, error) {
	if fc.Star { // COUNT(*)
		return sqltypes.NewInt(int64(len(rows))), nil
	}
	var vals []sqltypes.Value
	for _, r := range rows {
		v, err := eval(fc.Args[0], &evalCtx{schema: schema, row: r})
		if err != nil {
			return sqltypes.Value{}, err
		}
		if !v.IsUnknown() { // SQL aggregates skip NULLs (and CNULLs)
			vals = append(vals, v)
		}
	}
	switch fc.Name {
	case "COUNT":
		return sqltypes.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, err := v.Coerce(sqltypes.TypeFloat)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("exec: %s over non-numeric value %v", fc.Name, v)
			}
			sum += f.Float()
			if v.Kind() != sqltypes.KindInt {
				allInt = false
			}
		}
		if fc.Name == "AVG" {
			return sqltypes.NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return sqltypes.NewInt(int64(sum)), nil
		}
		return sqltypes.NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := sqltypes.Compare(v, best)
			if !ok {
				return sqltypes.Value{}, fmt.Errorf("exec: %s over incomparable values", fc.Name)
			}
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown aggregate %s", fc.Name)
}
