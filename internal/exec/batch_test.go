package exec

// Tests for the vectorized batch pipeline: the batch-size invariance
// property (batchSize=1 IS the old row-at-a-time execution, so equality
// across sizes proves the redesign changed the unit of flow, not the
// results), a LIMIT stopping the scan below it, the
// legacy-operator adapter, and a -race stress of the quorum-streaming
// CROWDEQUAL path under concurrent statements.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// setupNums builds a table large enough that every batch size under test
// crosses batch boundaries (600 rows vs DefaultBatchSize=256), plus a
// small lookup table for join coverage.
func setupNums(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "nums",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "grp", Type: sqltypes.TypeString},
			{Name: "val", Type: sqltypes.TypeInt},
		},
	})
	h.createTable(t, &catalog.Table{
		Name: "lk",
		Columns: []catalog.Column{
			{Name: "grp", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "label", Type: sqltypes.TypeString},
		},
	})
	groups := []string{"red", "green", "blue"}
	for i := 0; i < 600; i++ {
		h.insert(t, "nums", Row{
			num(int64(i)),
			str(groups[i%len(groups)]),
			num(int64((i * 37) % 101)),
		})
	}
	for _, g := range groups {
		h.insert(t, "lk", Row{str(g), str("label-" + g)})
	}
	return h
}

// randomQuery draws one SELECT from a grammar covering every converted
// operator: scans, filters, projects, hash and nested-loop joins,
// aggregates (one call over three groups, and many calls over hundreds),
// distinct, sort, limit/offset.
func randomQuery(rng *rand.Rand) string {
	where := ""
	switch rng.Intn(4) {
	case 0:
		where = fmt.Sprintf(" WHERE nums.val > %d", rng.Intn(100))
	case 1:
		where = fmt.Sprintf(" WHERE nums.grp = '%s'", []string{"red", "green", "blue"}[rng.Intn(3)])
	case 2:
		where = fmt.Sprintf(" WHERE nums.val > %d AND nums.id < %d", rng.Intn(80), 50+rng.Intn(550))
	}
	tail := ""
	if rng.Intn(2) == 0 {
		dir := ""
		if rng.Intn(2) == 0 {
			dir = " DESC"
		}
		tail = " ORDER BY nums.val" + dir + ", nums.id"
		if rng.Intn(2) == 0 {
			tail += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(40))
			if rng.Intn(2) == 0 {
				tail += fmt.Sprintf(" OFFSET %d", rng.Intn(20))
			}
		}
	}
	switch rng.Intn(6) {
	case 0:
		return "SELECT id, grp, val FROM nums" + where + tail
	case 1:
		return "SELECT DISTINCT grp FROM nums" + where
	case 2:
		agg := []string{"COUNT(*)", "SUM(nums.val)", "MIN(nums.val)", "MAX(nums.val)", "AVG(nums.val)"}[rng.Intn(5)]
		return "SELECT grp, " + agg + " FROM nums" + where + " GROUP BY grp"
	case 3:
		return "SELECT nums.id, lk.label FROM nums JOIN lk ON lk.grp = nums.grp" + where + tail
	case 4:
		// The accumulator's whole surface: many groups (more than a
		// batch), several calls per group, HAVING on a call the select
		// list lacks, and a sort over an aggregate.
		return fmt.Sprintf("SELECT val, grp, COUNT(*), SUM(nums.id), AVG(nums.id), MIN(nums.id) FROM nums%s"+
			" GROUP BY val, grp HAVING MAX(nums.id) > %d ORDER BY AVG(nums.id) DESC, val, grp LIMIT %d",
			where, rng.Intn(600), 1+rng.Intn(300))
	default:
		return "SELECT nums.id, lk.label FROM nums, lk" + where + tail
	}
}

func rowsKey(rows []Row) string {
	var sb []byte
	for _, r := range rows {
		for _, v := range r {
			sb = append(sb, v.String()...)
			sb = append(sb, '|')
		}
		sb = append(sb, '\n')
	}
	return string(sb)
}

// runSized executes sql with an explicit batch size.
func (h *harness) runSized(t *testing.T, sql string, size int) []Row {
	t.Helper()
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache(), batchSize: size}
	return h.runCtxOpts(t, ctx, sql, optimizer.Options{})
}

// TestBatchSizeInvariance is the redesign's core property: 100 random
// plans produce row-for-row identical output at batchSize 1 (degenerate
// row-at-a-time), 7 (never divides anything evenly), and the default.
func TestBatchSizeInvariance(t *testing.T) {
	h := setupNums(t)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		sql := randomQuery(rng)
		want := h.runSized(t, sql, 1)
		for _, size := range []int{7, 0} { // 0 = DefaultBatchSize
			got := h.runSized(t, sql, size)
			if rowsKey(got) != rowsKey(want) {
				t.Fatalf("plan %d %q: batch size %d diverged from row-at-a-time\nwant %d rows\ngot  %d rows",
					i, sql, size, len(want), len(got))
			}
		}
	}
}

// TestLimitStopsScanAtWholeBatches: a LIMIT that no longer pulls is what
// stops a scan. With the stop-after push-down disabled, LIMIT 5 over a
// filter that keeps every row examines exactly the quota rounded up to
// whole scan batches — not a row of the other 20 000 on any of the shards.
func TestLimitStopsScanAtWholeBatches(t *testing.T) {
	st, err := storage.NewStoreOptions("", storage.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{cat: catalog.New(), store: st}
	h.createTable(t, &catalog.Table{
		Name: "big",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "val", Type: sqltypes.TypeInt},
		},
	})
	for i := 0; i < 20000; i++ {
		h.insert(t, "big", Row{num(int64(i)), num(int64(i % 7))})
	}
	for batch, examined := range map[int]int{1: 5, 7: 7, 256: 256} {
		ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache(), batchSize: batch}
		rows := h.runCtxOpts(t, ctx, "SELECT id FROM big WHERE val >= 0 LIMIT 5",
			optimizer.Options{DisableStopAfter: true})
		if len(rows) != 5 {
			t.Fatalf("batch size %d: %d rows", batch, len(rows))
		}
		if ctx.Stats.RowsScanned != examined {
			t.Errorf("batch size %d: examined %d rows, want %d", batch, ctx.Stats.RowsScanned, examined)
		}
	}
}

// TestCrowdEqualConcurrentStreams stresses the quorum-streaming
// CROWDEQUAL path under -race: several statements run the same crowd
// filter concurrently over a shared task manager and comparison cache,
// so leaders, followers, and cache adoption interleave across
// goroutines while each stream emits rows. Every statement must agree:
// each pair reaches quorum exactly once globally (one leader; everyone
// else adopts), so the verdicts — and therefore the row sets — are
// shared.
func TestCrowdEqualConcurrentStreams(t *testing.T) {
	h, base := crowdFilterFixture(t, 99)
	for i := 5; i <= 24; i++ {
		h.insert(t, "v", Row{num(int64(i)), str(fmt.Sprintf("l%02d", i)), str(fmt.Sprintf("r%02d", i))})
	}
	const workers = 4
	results := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := &Ctx{Store: h.store, Cat: h.cat, Tasks: base.Tasks, Cache: base.Cache, batchSize: 3}
			rows, err := h.collectStreamed(ctx, `SELECT id FROM v WHERE a ~= b`)
			if err != nil {
				errs[w] = err
				return
			}
			var ids []string
			for _, r := range rows {
				ids = append(ids, r[0].String())
			}
			sort.Strings(ids)
			results[w] = fmt.Sprint(ids)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Errorf("worker %d disagreed:\n%s\nvs\n%s", w, results[w], results[0])
		}
	}
}

// TestCrowdOrderStreamsSettledPrefix pins the streaming behavior of both
// crowd operators: an ascending CROWDORDER emits its settled prefix while
// later segments are still being compared, and a CROWDEQUAL filter emits
// each row once the quorum of its pair lands. Streaming changes when rows
// leave, not what the crowd is asked: through RunSink and through Run, on
// fresh harnesses at the same seed, a statement returns the same rows for
// the same comparisons, and the sink's first row arrives while crowd
// decisions are still uncollected. Decisions, not Stats.Comparisons, mark
// the progress: a filter charges every pair when it claims it, before the
// first group is collected. The harness oracle never answers "yes" to an
// equality, so the filter keeps the pairs `NOT (a ~= b)`: all four rows.
func TestCrowdOrderStreamsSettledPrefix(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		rows      int
		fixture   func(t *testing.T) (*harness, *Ctx)
	}{
		{"crowdorder", `SELECT label FROM item ORDER BY CROWDORDER(label, 'rank')`, 16, func(t *testing.T) (*harness, *Ctx) {
			h, ctx := crowdHarness(t, 7)
			for i := 0; i < 16; i++ {
				h.insert(t, "item", Row{str(fmt.Sprintf("i%02d", (i*7)%16))})
			}
			return h, ctx
		}},
		{"crowdequal", `SELECT id FROM v WHERE NOT (a ~= b)`, 4, func(t *testing.T) (*harness, *Ctx) {
			return crowdFilterFixture(t, 7)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, ctx := tc.fixture(t)
			want := h.runCtx(t, ctx, tc.sql)

			h, ctx2 := tc.fixture(t)
			op, err := h.compile(ctx2, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			firstRowDecisions := -1
			var got []Row
			err = RunSink(op, ctx2, sinkFunc(func(r Row) error {
				if firstRowDecisions < 0 {
					firstRowDecisions = ctx2.Tasks.Stats().Decisions
				}
				got = append(got, r)
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != tc.rows || rowsKey(got) != rowsKey(want) {
				t.Fatalf("streamed rows diverge from Run's:\n%v\nvs\n%v", got, want)
			}
			if ctx2.Stats.Comparisons != ctx.Stats.Comparisons {
				t.Errorf("comparisons: %d streamed, %d through Run", ctx2.Stats.Comparisons, ctx.Stats.Comparisons)
			}
			if final := ctx2.Tasks.Stats().Decisions; firstRowDecisions >= final {
				t.Errorf("no streaming: %d decisions at first row, %d total", firstRowDecisions, final)
			}
		})
	}
}

// sinkFunc adapts a function to RowSink.
type sinkFunc func(Row) error

func (f sinkFunc) Row(r Row) error { return f(r) }

// collectStreamed runs sql through RunSink (the streaming seam) rather
// than Run, so the test exercises the per-batch emission path.
func (h *harness) collectStreamed(ctx *Ctx, sql string) ([]Row, error) {
	op, err := h.compile(ctx, sql)
	if err != nil {
		return nil, err
	}
	var rows []Row
	err = RunSink(op, ctx, sinkFunc(func(r Row) error {
		rows = append(rows, r)
		return nil
	}))
	return rows, err
}

// compile parses, plans, optimizes, and builds sql into an operator.
func (h *harness) compile(ctx *Ctx, sql string) (Operator, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		return nil, err
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		return nil, err
	}
	return Build(opt.Root, ctx)
}
