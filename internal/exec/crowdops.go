package exec

import (
	"context"
	"fmt"
	"strings"

	"crowddb/internal/catalog"
	"crowddb/internal/obs"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
)

// Stats counts the executor's work; the benchmark harness reads it.
type Stats struct {
	RowsScanned int
	// ProbeRequests counts tuples whose CNULLs were sent to the crowd.
	ProbeRequests int
	// NewTupleRequests counts solicited candidate tuples.
	NewTupleRequests int
	// Comparisons counts crowd-answered comparisons this query paid for
	// (cache misses it led).
	Comparisons int
	// CacheHits counts comparisons answered from the memo.
	CacheHits int
	// SharedFlights counts comparisons resolved by adopting another
	// session's in-flight crowd question (singleflight) — answered without
	// paying the crowd again.
	SharedFlights int
	// BudgetDenied counts comparisons skipped because the budget ran out.
	BudgetDenied int
	// Memoized counts the comparison answers this query stored in the
	// memo table: what the jobs journal charges a session. It is not part
	// of any resource on the wire.
	Memoized int `json:"-"`
}

// Add returns the field-wise sum of two stats snapshots. Every
// aggregation site (session settlement, job resources, subquery merge)
// goes through it so a new counter cannot silently drop from one.
func (s Stats) Add(o Stats) Stats {
	s.RowsScanned += o.RowsScanned
	s.ProbeRequests += o.ProbeRequests
	s.NewTupleRequests += o.NewTupleRequests
	s.Comparisons += o.Comparisons
	s.CacheHits += o.CacheHits
	s.SharedFlights += o.SharedFlights
	s.BudgetDenied += o.BudgetDenied
	s.Memoized += o.Memoized
	return s
}

// Sub returns the field-wise difference s − o: the work done between two
// snapshots of the same counters.
func (s Stats) Sub(o Stats) Stats {
	s.RowsScanned -= o.RowsScanned
	s.ProbeRequests -= o.ProbeRequests
	s.NewTupleRequests -= o.NewTupleRequests
	s.Comparisons -= o.Comparisons
	s.CacheHits -= o.CacheHits
	s.SharedFlights -= o.SharedFlights
	s.BudgetDenied -= o.BudgetDenied
	s.Memoized -= o.Memoized
	return s
}

// Cents prices the crowd work the counters measured: every probe and
// comparison at the compare price, every solicited tuple at the tuple
// price. It is the only place measured work is turned into money.
func (s Stats) Cents(p taskmgr.Prices) float64 {
	return float64(s.Comparisons+s.ProbeRequests)*p.Compare + float64(s.NewTupleRequests)*p.Tuple
}

// Ctx is a tree's execution context, set again for each statement run on it.
type Ctx struct {
	Store *storage.Store
	Cat   *catalog.Catalog
	// Tasks is the Task Manager; nil runs the query against stored data
	// only (crowd operators degrade to their relational cores).
	Tasks *taskmgr.Manager
	// Cache memoizes crowd comparisons across queries.
	Cache *CompareCache
	// CompareBudget caps crowd comparisons per query (0 = unlimited,
	// negative = already exhausted by an enclosing query); beyond it,
	// CROWDORDER falls back to a deterministic label order.
	CompareBudget int
	// Subqueries runs the statement's uncorrelated IN-subqueries; the
	// engine installs it (nil = subqueries unsupported in this context).
	Subqueries SubqueryRunner
	// SnapshotTS pins every stored-data read (scans, index probes, point
	// gets) of this statement to one MVCC snapshot: the statement sees
	// exactly the rows committed at that timestamp, however long it runs
	// and whatever commits meanwhile. 0 means unpinned — each read sees
	// the latest committed data (legacy behavior for hand-built
	// contexts). Crowd write-backs during the statement commit at later
	// timestamps and are therefore invisible to the statement itself.
	SnapshotTS int64
	// Context carries the statement's cancellation signal end-to-end:
	// operators check it between rows, and the crowd operators stop
	// posting new HIT groups and unwind their crowd waits when it fires
	// (nil = never cancelled). Queued submissions are withdrawn; groups
	// already live on the platform are left to settle.
	Context context.Context
	// Progress, when set, receives a stats snapshot from the executing
	// goroutine each time a crowd operator commits to paid work (probe,
	// solicitation, or comparison batches) — the jobs API reports "cents
	// spent so far" from it without racing on Stats.
	Progress ProgressSink
	Stats    Stats

	// Trace, when set, records this statement's execution as a span
	// tree: Build wraps every operator in an instrumented shell, and the
	// crowd operators open a span per HIT-group interaction. Nil leaves
	// the raw operators in place — a traced run and an untraced run make
	// bit-identical crowd decisions.
	Trace *obs.Trace
	// Span is the parent new spans attach under; the instrumented
	// operator shells push/pop it around delegated calls so crowd spans
	// nest under the operator that caused them.
	Span *obs.Span
	// OpStats, when non-nil, collects per-plan-node actuals (rows out,
	// wall time, crowd work) for EXPLAIN ANALYZE. Counts are inclusive
	// of child operators.
	OpStats map[plan.Node]*OpStats

	// slots are the executing statement's slot values in slot order
	// (UseSlots), in slotBuf when they fit. A literal of the plan that
	// holds slot n binds to slots[n-1]: a plan compiled for another
	// statement of the same shape reads this statement's values. Nil binds
	// the plan's own literals.
	slots   slots
	slotBuf [4]sqltypes.Value

	// batchSize is the rows-per-batch target of the vectorized pipeline
	// (0 = DefaultBatchSize; only tests vary it). Batch size changes
	// emission granularity only, never results or crowd scheduling.
	batchSize int
	// OpMetrics, when non-nil, receives each instrumented operator's
	// final accounting at Close (rows/sec, peak buffered rows) — the
	// engine aggregates it into /metrics per operator type.
	OpMetrics OpMetricsSink
	// shells is the slab instrumented operator shells are taken from.
	shells []instrumentedOp

	// subqMemo holds the running statement's IN-subquery results; run
	// empties it as the statement ends.
	subqMemo map[*parser.InExpr][]sqltypes.Value
	// outer is the statement context an IN-subquery's context runs under
	// (nil at top level); depth counts the contexts above this one.
	outer *Ctx
	depth int
}

// ProgressSink receives a running statement's stats snapshots.
type ProgressSink interface {
	Progress(Stats)
}

// SubqueryRunner compiles and runs an uncorrelated IN-subquery under sub,
// the context subqueryValues prepared for it, and returns its single
// column's values.
type SubqueryRunner interface {
	RunSubquery(sub *Ctx, sel *parser.Select) ([]sqltypes.Value, error)
}

// maxSubqueryDepth bounds IN-subquery nesting.
const maxSubqueryDepth = 8

// snapTS is the MVCC read timestamp for stored-data access: the pinned
// snapshot when set, the store's current watermark otherwise.
func (c *Ctx) snapTS() int64 {
	if c.SnapshotTS != 0 {
		return c.SnapshotTS
	}
	return c.Store.VisibleTS()
}

// context returns the statement context (Background when unset).
func (c *Ctx) context() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

// Canceled reports the statement's cancellation error, if any.
func (c *Ctx) Canceled() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// noteProgress publishes a stats snapshot to the Progress observer. A
// subquery's counts are reported on top of every enclosing statement's —
// never alone, which would make reported spend regress mid-statement.
// The subquery runs on the calling goroutine, so reading the enclosing
// Stats is race-free.
func (c *Ctx) noteProgress() {
	st := c.Stats
	for c.outer != nil {
		c = c.outer
		st = c.Stats.Add(st)
	}
	if c.Progress != nil {
		c.Progress.Progress(st)
	}
}

// subqueryValues resolves an IN-subquery once per query (uncorrelated
// subqueries are loop-invariant) and memoizes the value list.
func (c *Ctx) subqueryValues(e *parser.InExpr) ([]sqltypes.Value, error) {
	if c.Subqueries == nil {
		return nil, fmt.Errorf("exec: IN (SELECT ...) is not supported in this context")
	}
	if vals, ok := c.subqMemo[e]; ok {
		return vals, nil
	}
	vals, err := c.runSubquery(e.Sub)
	if err != nil {
		return nil, err
	}
	if c.subqMemo == nil {
		c.subqMemo = make(map[*parser.InExpr][]sqltypes.Value)
	}
	c.subqMemo[e] = vals
	return vals, nil
}

// runSubquery runs sel as part of c's statement: on c's snapshot, charged
// to what is left of c's budget, its spans under the operator evaluating
// the IN predicate.
func (c *Ctx) runSubquery(sel *parser.Select) ([]sqltypes.Value, error) {
	if c.depth+1 >= maxSubqueryDepth {
		return nil, fmt.Errorf("exec: subqueries nested deeper than %d", maxSubqueryDepth)
	}
	// The subquery spends from the statement's remaining budget, not a
	// fresh copy — its Comparisons merge into c.Stats below, so the outer
	// query's later checks see the combined spend too.
	budget := c.CompareBudget
	if budget > 0 {
		if remaining := budget - c.Stats.Comparisons; remaining > 0 {
			budget = remaining
		} else {
			budget = -1 // exhausted: deny, do not grant unlimited
		}
	}
	sub := &Ctx{
		Store:         c.Store,
		Cat:           c.Cat,
		Tasks:         c.Tasks,
		Cache:         c.Cache,
		CompareBudget: budget,
		Subqueries:    c.Subqueries,
		SnapshotTS:    c.SnapshotTS, // one snapshot for the whole statement
		Context:       c.Context,
		Trace:         c.Trace,
		Span:          c.Span,
		outer:         c,
		depth:         c.depth + 1,
	}
	vals, err := c.Subqueries.RunSubquery(sub, sel)
	// Crowd work the subquery already paid for reaches the outer
	// statement's stats even when it fails or is cancelled mid-flight:
	// budget settlement reads the outer Stats.
	c.Stats = c.Stats.Add(sub.Stats)
	return vals, err
}

func (c *Ctx) budgetOK() bool {
	if c.CompareBudget < 0 {
		return false
	}
	return c.CompareBudget == 0 || c.Stats.Comparisons < c.CompareBudget
}

// ---------------------------------------------------------------------------
// CrowdCompare: CROWDEQUAL resolution

// resolveEqual answers one CROWDEQUAL pair: cache first, then a
// single-pair crowd task (CrowdFilter prefetches batches, so this is the
// cold fallback, e.g. CROWDEQUAL in a SELECT list, and the retry for pairs
// a batch got no quorum on). A follower whose leader abandons retries and,
// at the latest on the second pass, leads (or is denied) itself.
func resolveEqual(ctx *Ctx, question, l, r string) (sqltypes.Value, error) {
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctx.Canceled(); err != nil {
			return sqltypes.Value{}, err
		}
		b := newCompareBroker(ctx, kindEqual)
		switch verdict, outcome := b.claim(question, l, r); outcome {
		case claimHit:
			return sqltypes.NewBool(verdict == "yes"), nil
		case claimDenied:
			return sqltypes.Null(), nil
		case claimFollower:
			if err := b.adopt(); err != nil {
				return sqltypes.Value{}, err
			}
			if same, ok := ctx.Cache.GetEqual(question, l, r); ok {
				return sqltypes.NewBool(same), nil
			}
			continue
		}
		if err := b.post(question, []taskmgr.ComparePair{{Left: l, Right: r}}); err != nil {
			return sqltypes.Value{}, err
		}
		ds, err := b.collect()
		if err != nil {
			return sqltypes.Value{}, err
		}
		b.close() // no quorum leaves the claim unanswered: release it
		if ds[0].Total == 0 {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewBool(ds[0].Value == "yes"), nil
	}
	return sqltypes.Null(), nil
}

// crowdEqualCall is one CROWDEQUAL occurrence in an expression, its
// operands bound to the rows' schema.
type crowdEqualCall struct {
	question *bound // nil = default question
	l, r     *bound
}

func collectCrowdEqualCalls(b *binder, e parser.Expr, schema []plan.Col) []crowdEqualCall {
	var calls []crowdEqualCall
	parser.WalkExprs(e, func(x parser.Expr) {
		switch n := x.(type) {
		case *parser.BinaryExpr:
			if n.Op == "~=" {
				calls = append(calls, crowdEqualCall{l: b.bind(n.L, schema), r: b.bind(n.R, schema)})
			}
		case *parser.FuncCall:
			if n.Name == "CROWDEQUAL" {
				c := crowdEqualCall{l: b.bind(n.Args[0], schema), r: b.bind(n.Args[1], schema)}
				if len(n.Args) == 3 {
					c.question = b.bind(n.Args[2], schema)
				}
				calls = append(calls, c)
			}
		}
	})
	return calls
}

// equalStream is the CrowdFilter's quorum-streaming state machine. It
// batch-resolves every CROWDEQUAL pair the condition needs across the
// buffered rows — the CrowdCompare batching the paper's operators do —
// through one comparison broker, but instead of blocking until all groups
// settle it tracks which pairs each row depends on and emits the maximal
// ready prefix of rows after each group's quorum lands. Rows are
// evaluated strictly in input order; evaluating a ready row touches only
// the in-memory cache.
type equalStream struct {
	cond   *bound
	env    evalEnv
	rows   []Row
	broker compareBroker
	// resolved holds every pair key claimed so far, true once it needs no
	// more waiting (verdict memoized, or denied). rowKeys[i] lists the
	// keys row i needs that were unresolved at claim time; the row is
	// ready once all are (or after finalization, when eval-time retries
	// handle the leftovers).
	rowKeys  [][]Key
	resolved map[Key]bool
	// groupKeys are the pair keys of each posted group not yet collected,
	// aligned with its decisions.
	groupKeys [][]Key
	finalized bool
	nextRow   int
	buf       Batch
}

// eqBatch is the deduplicated comparisons this query leads on one
// question (a HIT group shares one question text), with their pair keys.
type eqBatch struct {
	pairs []taskmgr.ComparePair
	keys  []Key
}

// newEqualStream claims every comparison calls, the CROWDEQUAL calls in
// cond, need over rows in row-major order and posts the ones this query
// leads; quorum collection happens lazily in nextBatch.
func newEqualStream(ctx *Ctx, cond *bound, calls []crowdEqualCall, rows []Row) (*equalStream, error) {
	es := &equalStream{cond: cond, env: evalEnv{ctx: ctx}, rows: rows, resolved: map[Key]bool{},
		broker: newCompareBroker(ctx, kindEqual)}
	if len(calls) == 0 {
		es.finalized = true
		return es, nil
	}
	es.rowKeys = make([][]Key, len(rows))
	byQ := map[string]*eqBatch{}
	var qOrder []string // questions in first-use order
	for i, row := range rows {
		for _, call := range calls {
			question, l, r, skip, err := call.operands(row)
			if err != nil {
				es.broker.close()
				return nil, err
			}
			if skip {
				continue
			}
			k := newKey(kindEqual, question, l, r)
			done, claimed := es.resolved[k]
			if !claimed {
				_, outcome := es.broker.claim(question, l, r)
				// Denied pairs evaluate deterministically (CNULL) with no
				// crowd interaction: the row need not wait for them.
				done = outcome == claimHit || outcome == claimDenied
				es.resolved[k] = done
				if outcome == claimLeader {
					q := byQ[question]
					if q == nil {
						q = &eqBatch{}
						byQ[question] = q
						qOrder = append(qOrder, question)
					}
					q.pairs = append(q.pairs, taskmgr.ComparePair{Left: l, Right: r})
					q.keys = append(q.keys, k)
				}
			}
			if !done {
				es.rowKeys[i] = append(es.rowKeys[i], k)
			}
		}
	}
	for _, q := range qOrder {
		keys := byQ[q].keys
		for _, pairs := range chunkSlice(byQ[q].pairs, ctx.Tasks.Config().MaxInFlight) {
			if err := es.broker.post(q, pairs); err != nil {
				return nil, err
			}
			es.groupKeys = append(es.groupKeys, keys[:len(pairs)])
			keys = keys[len(pairs):]
		}
	}
	return es, nil
}

// operands evaluates one CROWDEQUAL occurrence over a row. skip reports
// a pair that needs no crowd: an unknown side or trivially equal values.
func (c crowdEqualCall) operands(row Row) (question, l, r string, skip bool, err error) {
	lv, err := c.l.eval(row, nil)
	if err != nil {
		return "", "", "", false, err
	}
	rv, err := c.r.eval(row, nil)
	if err != nil {
		return "", "", "", false, err
	}
	if lv.IsUnknown() || rv.IsUnknown() || sqltypes.Equal(lv, rv) {
		return "", "", "", true, nil
	}
	if c.question != nil {
		qv, err := c.question.eval(row, nil)
		if err != nil {
			return "", "", "", false, err
		}
		question = qv.String()
	}
	return question, lv.String(), rv.String(), false, nil
}

// nextBatch emits the next batch of passing rows, settling just enough
// crowd work to unblock the row at the front: rows whose pairs all have
// verdicts evaluate and stream out while later groups are still open on
// the platform.
func (es *equalStream) nextBatch(ctx *Ctx) (*Batch, error) {
	limit := ctx.rowsPerBatch()
	for {
		es.buf.reset()
		for es.nextRow < len(es.rows) && len(es.buf.Rows) < limit && es.rowReady(es.nextRow) {
			row := es.rows[es.nextRow]
			es.nextRow++
			keep, err := es.cond.keeps(row, &es.env)
			if err != nil {
				return nil, err
			}
			if keep {
				es.buf.Rows = append(es.buf.Rows, row)
			}
		}
		if len(es.buf.Rows) > 0 {
			return &es.buf, nil
		}
		if es.nextRow >= len(es.rows) {
			return nil, nil
		}
		// The front row is stalled on an open pair: settle more crowd work.
		if err := es.settleNext(); err != nil {
			es.finalized = true
			return nil, err
		}
	}
}

// rowReady reports whether every pair row i depends on has settled.
func (es *equalStream) rowReady(i int) bool {
	if es.finalized {
		return true
	}
	for _, k := range es.rowKeys[i] {
		if !es.resolved[k] {
			return false
		}
	}
	return true
}

// settleNext collects the oldest open HIT group and marks the pairs that
// got a verdict resolved. A pair without quorum stays open: its rows
// stall to the final phase, where eval retries it with a fresh
// single-pair group. Once every own group is in, the flights of other
// sessions are adopted, after which every row is ready.
func (es *equalStream) settleNext() error {
	if !es.broker.win.open() {
		es.finalized = true
		return es.broker.adopt()
	}
	ds, err := es.broker.collect()
	if err != nil {
		return err
	}
	keys := es.groupKeys[0]
	es.groupKeys = es.groupKeys[1:]
	for i, d := range ds {
		if d.Total != 0 {
			es.resolved[keys[i]] = true
		}
	}
	return nil
}

// close settles the stream's outstanding crowd state when the query ends
// before the stream drained (error, cancellation, early stop).
func (es *equalStream) close() { es.broker.close() }

// chunkSlice splits items into at most n contiguous, near-equal chunks.
// The pipelined operators pass the Task Manager's in-flight window: that
// many HIT groups overlap on the platform, the scheduler queues the rest.
func chunkSlice[T any](items []T, n int) [][]T {
	if len(items) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	size := (len(items) + n - 1) / n
	var out [][]T
	for lo := 0; lo < len(items); lo += size {
		out = append(out, items[lo:min(lo+size, len(items))])
	}
	return out
}

// ---------------------------------------------------------------------------
// CrowdCompare: CROWDORDER sorting

// newCrowdSorter builds the incremental CROWDORDER quicksort over rows,
// each shown to the crowd as label's value and compared under question:
// most-preferred first, one pivot-comparison HIT group per open segment
// per round, results memoized in the compare cache. The caller drives it
// with step() (one breadth-first round) and reads the settled prefix
// between rounds, or run()s it to completion.
func newCrowdSorter(ctx *Ctx, rows []Row, label *bound, question string) *crowdSorter {
	// Labels that fail to resolve (e.g. the paper's free variable `p`) fall
	// back to the row's first column rendering.
	labels := make([]string, len(rows))
	for i, r := range rows {
		v, err := label.eval(r, nil)
		if err != nil || v.IsUnknown() {
			labels[i] = rows[i][0].String()
		} else {
			labels[i] = v.String()
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	s := &crowdSorter{ctx: ctx, question: question, labels: labels, rows: rows, idx: idx}
	if len(idx) > 1 {
		s.frontier = []segRange{{0, len(idx)}}
	}
	return s
}

// segRange is one open quicksort segment: idx[lo:hi] still needs
// partitioning. The frontier holds open segments in ascending position
// order; everything before frontier[0].lo is in final sorted position.
type segRange struct{ lo, hi int }

type crowdSorter struct {
	ctx      *Ctx
	question string
	labels   []string
	rows     []Row
	idx      []int // permutation under construction: idx[i] = source row of sorted position i
	frontier []segRange
}

// done reports whether the permutation is fully sorted.
func (s *crowdSorter) done() bool { return len(s.frontier) == 0 }

// settled is the length of the finalized prefix of idx: positions before
// the first open segment can never change again (partitioning only
// permutes within a segment), so their rows are safe to emit while the
// rest of the sort is still waiting on the crowd.
func (s *crowdSorter) settled() int {
	if len(s.frontier) == 0 {
		return len(s.idx)
	}
	return s.frontier[0].lo
}

// run drives the sort to completion (the blocking DESC path).
func (s *crowdSorter) run() error {
	for !s.done() {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// permuted returns the rows in sorted order (valid once done).
func (s *crowdSorter) permuted() []Row {
	sorted := make([]Row, len(s.rows))
	for i, j := range s.idx {
		sorted[i] = s.rows[j]
	}
	return sorted
}

// step runs one breadth-first quicksort round through one comparison
// broker: it claims every open segment's pivot comparisons and posts one
// HIT group per segment before collecting any, so sibling partitions'
// crowd waits overlap (log n rounds, each a window of concurrent groups
// on the platform); verdicts other sessions are sourcing are adopted
// before any segment partitions.
func (s *crowdSorter) step() error {
	b := newCompareBroker(s.ctx, kindOrder)
	defer b.close()
	// roundSeen dedups label pairs across sibling segments: with repeated
	// labels two segments can need the same comparison in one round. The
	// duplicate is dropped and resolved from the cache once the sibling's
	// group is collected (collection always precedes the partition step).
	roundSeen := map[Key]bool{}
	pivots := make([]int, len(s.frontier))
	for k, sr := range s.frontier {
		// Cancellation stops the sort before another segment is claimed.
		if err := s.ctx.Canceled(); err != nil {
			return err
		}
		seg := s.idx[sr.lo:sr.hi]
		pivot := seg[len(seg)/2]
		pivots[k] = pivot
		var pairs []taskmgr.ComparePair // the comparisons this session leads
		for _, i := range seg {
			if i == pivot || s.labels[i] == s.labels[pivot] {
				continue
			}
			key := newKey(kindOrder, s.question, s.labels[i], s.labels[pivot])
			if roundSeen[key] {
				continue
			}
			switch _, outcome := b.claim(s.question, s.labels[i], s.labels[pivot]); outcome {
			case claimFollower:
				roundSeen[key] = true
			case claimLeader:
				roundSeen[key] = true
				pairs = append(pairs, taskmgr.ComparePair{Left: s.labels[i], Right: s.labels[pivot]})
			}
		}
		if len(pairs) > 0 {
			if err := b.post(s.question, pairs); err != nil {
				return err
			}
		}
	}
	for b.win.open() {
		if _, err := b.collect(); err != nil {
			return err
		}
	}
	// A flight whose leader abandoned it is not adopted; prefers then
	// falls back to the deterministic label order for that pair.
	if err := b.adopt(); err != nil {
		return err
	}
	// Partition every segment in place around its pivot. Children are
	// appended in position order, keeping the frontier sorted so
	// settled() is exactly the finalized prefix.
	var next []segRange
	for k, sr := range s.frontier {
		seg, pivot := s.idx[sr.lo:sr.hi], pivots[k]
		var before, after []int
		for _, i := range seg {
			if i == pivot {
				continue
			}
			if s.prefers(i, pivot) {
				before = append(before, i)
			} else {
				after = append(after, i)
			}
		}
		n := copy(seg, before)
		seg[n] = pivot
		copy(seg[n+1:], after)
		if n > 1 {
			next = append(next, segRange{sr.lo, sr.lo + n})
		}
		if sr.lo+n+1 < sr.hi-1 {
			next = append(next, segRange{sr.lo + n + 1, sr.hi})
		}
	}
	s.frontier = next
	return nil
}

// prefers reports whether item i ranks before item j: by crowd verdict when
// available, by label order otherwise (deterministic fallback for ties,
// missing answers, and exhausted budgets).
func (s *crowdSorter) prefers(i, j int) bool {
	li, lj := s.labels[i], s.labels[j]
	if li == lj {
		return i < j
	}
	if w, ok := s.ctx.Cache.GetOrder(s.question, li, lj); ok {
		if w == li {
			return true
		}
		if w == lj {
			return false
		}
	}
	return li < lj
}

// ---------------------------------------------------------------------------
// CrowdProbe: CNULL instantiation and tuple solicitation

// crowdProbe is the paper's CrowdProbe over the rows its scan reads through
// the table reader (reader.go) — through the primary key or an index when
// the scan's filter pins one: it instantiates the CNULLs of the asked
// columns, solicits new tuples for a CROWD table, and then applies the
// conjuncts that read a crowd column.
type crowdProbe struct {
	node   *plan.CrowdProbe
	rd     tableReader // the scan's
	filter *bound      // node.Filter
	out    batchEmitter
}

func (p *crowdProbe) Schema() []plan.Col { return p.node.Schema() }

func (p *crowdProbe) Open(ctx *Ctx) error {
	p.out = batchEmitter{}
	node, filter := p.node, p.filter
	rowIDs, rows, err := p.rd.readAll(ctx)
	if err != nil {
		return err
	}

	// CrowdProbe phase 1: instantiate CNULLs of the asked crowd columns.
	if ctx.Tasks != nil && len(node.AskColumns) > 0 {
		if err := probeCNulls(ctx, node, rows, rowIDs); err != nil {
			return err
		}
	}

	// CrowdProbe phase 2: solicit new tuples for CROWD tables (open world).
	if ctx.Tasks != nil && node.Scan.Table.Crowd {
		want, err := p.wantedTuples(filter, rows)
		if err != nil {
			return err
		}
		if want > 0 {
			// The probe keys pre-fill the form, at this statement's values.
			acquired, err := solicitTuples(ctx, node.Scan.Table, "crowd:new_tuples",
				[]taskmgr.TupleRequest{{Prefill: ctx.probeKeys(node.Scan, map[string]sqltypes.Value{}), Want: want}})
			// A solicited tuple never passed the scan: its filter applies here.
			if err == nil {
				acquired, err = keptRows(acquired, p.rd.filter)
			}
			if err != nil {
				return err
			}
			rows = append(rows, acquired...)
		}
	}

	// The crowd conjuncts have their say now that the CNULLs are filled.
	p.out.rows, err = keptRows(rows, filter)
	return err
}

// keptRows filters rows in place, keeping each that every filter keeps.
func keptRows(rows []Row, filters ...*bound) ([]Row, error) {
	kept := rows[:0]
	for _, row := range rows {
		keep := true
		for _, f := range filters {
			ok, err := f.keeps(row, nil)
			if err != nil {
				return nil, err
			}
			keep = keep && ok
		}
		if keep {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// probeCNulls sends batched HIT groups for every buffered row whose asked
// crowd columns hold CNULL, coerces the majority answers, writes them back
// to the row AND the store (memorization: one transaction per collected
// group, filling only what is still CNULL in the live row), and updates
// statistics. The request batch is split into up to MaxInFlight probe
// groups that are all submitted before any is collected, so their crowd
// waits overlap. Rows whose answers miss quorum are re-posted once (the
// operators' built-in quality control, §3.2.1).
func probeCNulls(ctx *Ctx, node *plan.CrowdProbe, rows []Row, rowIDs []storage.RowID) error {
	if err := probeCNullsOnce(ctx, node, rows, rowIDs); err != nil {
		return err
	}
	// Retry round for rows that still hold CNULL in an asked column.
	return probeCNullsOnce(ctx, node, rows, rowIDs)
}

func probeCNullsOnce(ctx *Ctx, node *plan.CrowdProbe, rows []Row, rowIDs []storage.RowID) error {
	t := node.Scan.Table
	var reqs []taskmgr.ProbeRequest
	var reqRow []int
	for i, row := range rows {
		var ask []string
		for _, col := range node.AskColumns {
			if ci := t.ColumnIndex(col); ci >= 0 && row[ci].IsCNull() {
				ask = append(ask, col)
			}
		}
		if len(ask) == 0 {
			continue
		}
		known := make(map[string]sqltypes.Value, len(t.Columns))
		for ci, c := range t.Columns {
			known[strings.ToLower(c.Name)] = row[ci]
		}
		reqs = append(reqs, taskmgr.ProbeRequest{Known: known, Ask: ask})
		reqRow = append(reqRow, i)
	}
	if len(reqs) == 0 {
		return nil
	}
	// Pipelined dispatch: post every chunk, then collect in order.
	w := window[[]taskmgr.ProbeResult]{ctx: ctx, span: "crowd:probe", counter: &ctx.Stats.ProbeRequests, tally: probeTally}
	defer w.close()
	w.charge(len(reqs))
	for _, chunk := range chunkSlice(reqs, ctx.Tasks.Config().MaxInFlight) {
		err := w.post(len(chunk), func(sp *obs.Span) (*taskmgr.Call[[]taskmgr.ProbeResult], error) {
			sp.SetAttr("table", t.Name)
			sp.SetInt("requests", int64(len(chunk)))
			return ctx.Tasks.ProbeValuesAsync(t.Name, chunk)
		})
		if err != nil {
			return err
		}
	}
	for next := 0; w.open(); { // results arrive in request order: reqRow[next] is the next one's row
		results, err := w.collect()
		if err != nil {
			return err
		}
		err = commitGroup(ctx, func(tx *storage.Txn) error {
			for _, res := range results {
				i := reqRow[next]
				next++
				seen, changed := rows[i], false
				for col, d := range res.Decisions {
					if d.Total == 0 || !d.Quorum {
						continue // no usable answer: the value stays CNULL
					}
					ci := t.ColumnIndex(col)
					v, err := sqltypes.NewString(strings.TrimSpace(d.Value)).Coerce(t.Columns[ci].Type)
					if err != nil {
						continue // untypable answer: stays CNULL
					}
					if !changed {
						// The scanned image is the store's, shared with every
						// other reader: copy it before the first write.
						rows[i] = seen.Clone()
						changed = true
					}
					rows[i][ci] = v
				}
				if changed {
					// Memorize: the crowd is never asked the same value twice.
					if err := writeBack(tx, t, rowIDs[i], seen, rows[i]); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// commitGroup runs one collected HIT group's writes in one transaction and
// commits it, error or not: the group's answers become visible (and, on a
// durable store, synced) together, and the transaction, which holds back
// the visibility watermark while open, never spans a crowd wait.
func commitGroup(ctx *Ctx, write func(tx *storage.Txn) error) error {
	tx := ctx.Store.Begin()
	err := write(tx)
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	return err
}

// writeBack stores the crowd's answers for the row at id: each column that
// was CNULL in the image the statement read (seen) and is answered now is
// filled in the row's live version, where it is still CNULL. A value
// committed meanwhile, by an UPDATE or by another statement's paid
// answer, is kept; nothing is written when no answered column is left.
func writeBack(tx *storage.Txn, t *catalog.Table, id storage.RowID, seen, answered Row) error {
	live, filled, err := tx.Update(t.Name, id, func(live Row) (Row, error) {
		var out Row
		for ci, v := range answered {
			if seen[ci].IsCNull() && !v.IsCNull() && live[ci].IsCNull() {
				if out == nil {
					out = live.Clone()
				}
				out[ci] = v
			}
		}
		return out, nil
	})
	if filled != nil {
		t.RowWritten(live, filled)
	}
	return err
}

// wantedTuples is how many new tuples CrowdProbe solicits: the probe
// keys' expected cardinality minus the stored tuples that match, and/or
// what the solicitation bound leaves room for.
func (p *crowdProbe) wantedTuples(filter *bound, existing []Row) (int, error) {
	want := -1
	if len(p.node.Scan.ProbeKeys) > 0 {
		matching := 0
		for _, row := range existing {
			ok, err := filter.keeps(row, nil)
			if err != nil {
				return 0, err
			}
			if ok {
				matching++
			}
		}
		want = int(p.node.Scan.Table.ExpectedCrowdCard()) - matching
	}
	if p.node.Solicit >= 0 {
		if byLimit := int(p.node.Solicit) - len(existing); want < 0 || byLimit < want {
			want = byLimit
		}
	}
	return want, nil
}

// solicitTuples asks the crowd for reqs' new tuples of CROWD table t and
// returns the ones it accepted. The requests are split into up to
// MaxInFlight groups that are all posted before any is collected, so the
// next group's HITs are already live while the previous group's
// candidates are being inserted.
func solicitTuples(ctx *Ctx, t *catalog.Table, span string, reqs []taskmgr.TupleRequest) ([]Row, error) {
	w := window[[][]map[string]string]{ctx: ctx, span: span, counter: &ctx.Stats.NewTupleRequests, tally: tupleTally}
	defer w.close()
	want := func(reqs []taskmgr.TupleRequest) (n int) {
		for _, r := range reqs {
			n += r.Want
		}
		return n
	}
	w.charge(want(reqs))
	for _, chunk := range chunkSlice(reqs, ctx.Tasks.Config().MaxInFlight) {
		units := want(chunk)
		err := w.post(units, func(sp *obs.Span) (*taskmgr.Call[[][]map[string]string], error) {
			sp.SetAttr("table", t.Name)
			sp.SetInt("want", int64(units))
			return ctx.Tasks.NewTuplesBatchAsync(t.Name, chunk)
		})
		if err != nil {
			return nil, err
		}
	}
	var accepted []Row
	for w.open() {
		batches, err := w.collect()
		if err != nil {
			return nil, err
		}
		err = commitGroup(ctx, func(tx *storage.Txn) error {
			for _, cands := range batches {
				if accepted, err = insertCandidates(tx, t, cands, accepted); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Cost-model feedback: accepted crowd tuples per solicited key. Only
	// key-driven requests are representative — a stop-after fill ("give me
	// 30 rows") would poison the per-key fanout EWMA.
	if len(reqs[0].Prefill) > 0 {
		t.ObserveCrowdFanout(int64(len(reqs)), int64(len(accepted)))
	}
	return accepted, nil
}

// insertCandidates coerces raw candidate tuples, inserts them in tx
// (primary key and unique indexes deduplicate crowd contributions), and
// appends the accepted rows to out.
func insertCandidates(tx *storage.Txn, t *catalog.Table, candidates []map[string]string, out []Row) ([]Row, error) {
	for _, cand := range candidates {
		row := make(Row, len(t.Columns))
		ok := true
		for ci, c := range t.Columns {
			raw, has := cand[strings.ToLower(c.Name)]
			if !has {
				raw = cand[c.Name]
			}
			v, err := sqltypes.NewString(strings.TrimSpace(raw)).Coerce(c.Type)
			if raw == "" || quality.IsGarbage(raw) || err != nil {
				if isPKColumn(t, c.Name) {
					ok = false // unusable key: drop candidate
					break
				}
				v = sqltypes.Null()
			}
			row[ci] = v
		}
		if !ok {
			continue
		}
		if _, err := tx.Insert(t.Name, row); err != nil {
			// Duplicate key: another worker (or an earlier query) already
			// contributed this entity — exactly the dedup the paper's PK
			// requirement exists for. Any other failure loses a paid
			// tuple: it is the statement's error.
			if _, dup := err.(*storage.DuplicateKeyError); dup {
				continue
			}
			return nil, err
		}
		t.RowWritten(nil, row)
		out = append(out, row)
	}
	return out, nil
}

func isPKColumn(t *catalog.Table, col string) bool {
	for _, pk := range t.PrimaryKey {
		if strings.EqualFold(pk, col) {
			return true
		}
	}
	return false
}

func (p *crowdProbe) NextBatch(ctx *Ctx) (*Batch, error) {
	return p.out.next(ctx), nil
}

func (p *crowdProbe) Close(*Ctx) error {
	p.out = batchEmitter{}
	p.rd.close()
	return nil
}

func (p *crowdProbe) bufferedRows() int64 { return int64(len(p.out.rows)) }

// ---------------------------------------------------------------------------
// CrowdJoin: index nested-loop join soliciting matching inner tuples

// crowdJoin implements the paper's CrowdJoin: an index nested-loop join
// whose inner is a CROWD table. For every distinct outer key it looks up
// stored matches and solicits the expected number of missing tuples with
// the join key pre-filled — all keys batched into ONE HIT group. The stored
// inner rows come from the table reader (reader.go), so a literal the inner
// scan's filter pins to its key or an index narrows what is read.
type crowdJoin struct {
	node                           *plan.Join
	left                           Operator
	probe                          *plan.CrowdProbe // the crowd inner
	rd                             tableReader      // the inner scan's
	rightCol                       string
	leftKey, residual, crowdFilter *bound // over the outer, the joined and the inner rows

	out batchEmitter
}

func (j *crowdJoin) Schema() []plan.Col { return j.node.Schema() }

func (j *crowdJoin) Open(ctx *Ctx) error {
	j.out = batchEmitter{}
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	leftRows, err := drainInput(ctx, j.left, nil)
	if err != nil {
		return err
	}
	keys := make([]sqltypes.Value, len(leftRows))
	for i, r := range leftRows {
		v, err := j.leftKey.eval(r, nil)
		if err != nil {
			return err
		}
		keys[i] = v
	}

	t := j.probe.Scan.Table
	rightColIdx := t.ColumnIndex(j.rightCol)

	// Index the stored inner rows by join key once their CNULLs are probed
	// and the crowd conjuncts have had their say.
	innerIDs, innerRows, err := j.rd.readAll(ctx)
	if err != nil {
		return err
	}
	if ctx.Tasks != nil && len(j.probe.AskColumns) > 0 {
		if err := probeCNulls(ctx, j.probe, innerRows, innerIDs); err != nil {
			return err
		}
	}
	if innerRows, err = keptRows(innerRows, j.crowdFilter); err != nil {
		return err
	}
	matches := newRowBuckets(0)
	for _, row := range innerRows {
		matches.add(row[rightColIdx], row)
	}

	if reqs := j.missingRequests(ctx, keys, &matches); ctx.Tasks != nil && len(reqs) > 0 {
		accepted, err := solicitTuples(ctx, t, "crowd:join_tuples", reqs)
		if err == nil {
			accepted, err = keptRows(accepted, j.rd.filter, j.crowdFilter)
		}
		if err != nil {
			return err
		}
		for _, row := range accepted {
			matches.add(row[rightColIdx], row)
		}
	}

	// Emit joined rows.
	for i, l := range leftRows {
		for _, r := range matches.get(keys[i]) {
			combined := concatRows(l, r)
			ok, err := j.residual.keeps(combined, nil)
			if err != nil {
				return err
			}
			if ok {
				j.out.rows = append(j.out.rows, combined)
			}
		}
	}
	return nil
}

// missingRequests asks for the inner tuples the stored data lacks: one
// request per distinct outer key, its join column prefilled, wanting the
// expected fan-out minus the stored matches.
func (j *crowdJoin) missingRequests(ctx *Ctx, keys []sqltypes.Value, matches *rowBuckets) []taskmgr.TupleRequest {
	var (
		reqs []taskmgr.TupleRequest
		seen = newKeyTable(0)
		key  []byte
	)
	for _, k := range keys {
		if k.IsUnknown() {
			continue
		}
		key = sqltypes.AppendKeyPart(key[:0], k, 1)
		if _, isNew := seen.add(key); !isNew {
			continue
		}
		want := int(j.probe.Scan.Table.ExpectedCrowdCard()) - len(matches.get(k))
		if want <= 0 {
			continue
		}
		prefill := ctx.probeKeys(j.probe.Scan, map[string]sqltypes.Value{strings.ToLower(j.rightCol): k})
		reqs = append(reqs, taskmgr.TupleRequest{Prefill: prefill, Want: want})
	}
	return reqs
}

func (j *crowdJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	return j.out.next(ctx), nil
}

func (j *crowdJoin) Close(ctx *Ctx) error {
	j.out = batchEmitter{}
	j.rd.close()
	return j.left.Close(ctx)
}

func (j *crowdJoin) bufferedRows() int64 { return int64(len(j.out.rows)) }
