package exec

import (
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/ui"
)

// orderOracle prefers reverse-lexicographic labels ("z" beats "a").
type orderOracle struct{}

func (orderOracle) ProbeTruth(string, map[string]sqltypes.Value, []string) *crowd.SimTruth {
	return nil
}

func (orderOracle) NewTupleTruth(string, map[string]sqltypes.Value, int) *crowd.SimTruth {
	return nil
}

func (orderOracle) CompareTruth(kind crowd.TaskKind, q, l, r string) *crowd.SimTruth {
	win := l
	if r > l {
		win = r
	}
	return &crowd.SimTruth{Truth: map[string]string{ui.AnswerField: win}, Difficulty: 0.05}
}

// crowdHarness is the exec harness plus a live task manager.
func crowdHarness(t *testing.T, seed int64) (*harness, *Ctx) {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "item",
		Columns: []catalog.Column{
			{Name: "label", Type: sqltypes.TypeString, PrimaryKey: true},
		},
	})
	uim := ui.NewManager(h.cat)
	uim.GenerateAll()
	tracker := quality.NewTracker()
	tm := taskmgr.New(amt.NewDefault(seed), uim, tracker, nil, orderOracle{}, taskmgr.DefaultConfig())
	ctx := &Ctx{Store: h.store, Cat: h.cat, Tasks: tm, Cache: NewCompareCache()}
	return h, ctx
}

func (h *harness) runCtx(t *testing.T, ctx *Ctx, sql string) []Row {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(opt.Root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCrowdOrderSortAscAndDesc(t *testing.T) {
	h, ctx := crowdHarness(t, 61)
	for _, l := range []string{"banana", "apple", "cherry", "date"} {
		h.insert(t, "item", Row{str(l)})
	}
	asc := h.runCtx(t, ctx, `SELECT label FROM item ORDER BY CROWDORDER(label, 'which is better?')`)
	// The oracle prefers reverse-lex: the winner must come from the top
	// half despite per-comparison crowd noise.
	if first := asc[0][0].Str(); first != "date" && first != "cherry" {
		t.Errorf("asc (most preferred first): %v", asc)
	}
	// DESC with a warm cache is the exact reverse of ASC, at no new cost.
	before := ctx.Stats.Comparisons
	desc := h.runCtx(t, ctx, `SELECT label FROM item ORDER BY CROWDORDER(label, 'which is better?') DESC`)
	for i := range desc {
		if desc[i][0].Str() != asc[len(asc)-1-i][0].Str() {
			t.Fatalf("desc must reverse asc:\nasc:  %v\ndesc: %v", asc, desc)
		}
	}
	if ctx.Stats.Comparisons != before {
		t.Errorf("repeat sort must be fully cached: %d -> %d", before, ctx.Stats.Comparisons)
	}
}

func TestCrowdOrderDuplicateLabels(t *testing.T) {
	h, ctx := crowdHarness(t, 62)
	h.createTable(t, &catalog.Table{
		Name: "pair",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "label", Type: sqltypes.TypeString},
		},
	})
	h.insert(t, "pair", Row{num(1), str("same")}, Row{num(2), str("same")}, Row{num(3), str("other")})
	rows := h.runCtx(t, ctx, `SELECT id FROM pair ORDER BY CROWDORDER(label, 'q')`)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Duplicate labels must not be compared against each other.
	for _, r := range rows {
		_ = r
	}
}

func TestCrowdOrderRejectsMixedKeys(t *testing.T) {
	h, ctx := crowdHarness(t, 63)
	h.insert(t, "item", Row{str("a")})
	stmt, _ := parser.Parse(`SELECT label FROM item ORDER BY CROWDORDER(label, 'q'), label`)
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(opt.Root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(op, ctx); err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Errorf("mixed crowd sort keys must fail: %v", err)
	}
}

func TestCrowdOrderQuestionMustBeLiteral(t *testing.T) {
	h, ctx := crowdHarness(t, 64)
	h.insert(t, "item", Row{str("a")}, Row{str("b")})
	stmt, _ := parser.Parse(`SELECT label FROM item ORDER BY CROWDORDER(label, label)`)
	root, _ := plan.Build(stmt.(*parser.Select), h.cat)
	opt, _ := optimizer.Optimize(root, h.cat, optimizer.Options{})
	op, _ := Build(opt.Root, ctx)
	if _, err := Run(op, ctx); err == nil || !strings.Contains(err.Error(), "literal") {
		t.Errorf("non-literal question must fail: %v", err)
	}
}

func TestCompareBudgetDegradesToLabelOrder(t *testing.T) {
	h, ctx := crowdHarness(t, 65)
	ctx.CompareBudget = 1
	for _, l := range []string{"b", "a", "d", "c"} {
		h.insert(t, "item", Row{str(l)})
	}
	rows := h.runCtx(t, ctx, `SELECT label FROM item ORDER BY CROWDORDER(label, 'q')`)
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	if ctx.Stats.Comparisons > 1 {
		t.Errorf("budget exceeded: %+v", ctx.Stats)
	}
	if ctx.Stats.BudgetDenied == 0 {
		t.Errorf("denials expected: %+v", ctx.Stats)
	}
}

func TestPrefetchSkipsTrivialAndUnknownPairs(t *testing.T) {
	h, ctx := crowdHarness(t, 66)
	h.createTable(t, &catalog.Table{
		Name: "v",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "a", Type: sqltypes.TypeString},
			{Name: "b", Type: sqltypes.TypeString},
		},
	})
	h.insert(t, "v",
		Row{num(1), str("x"), str("x")},         // trivially equal: no task
		Row{num(2), str("x"), sqltypes.Null()},  // unknown side: no task
		Row{num(3), sqltypes.CNull(), str("y")}, // unknown side: no task
	)
	rows := h.runCtx(t, ctx, `SELECT id FROM v WHERE a ~= b`)
	if ctx.Stats.Comparisons != 0 {
		t.Errorf("no crowd tasks expected: %+v", ctx.Stats)
	}
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("only the trivially-equal row qualifies: %v", rows)
	}
}

// personOracle contributes the i-th person to every solicitation, with the
// prefilled columns as shown.
type personOracle struct{ orderOracle }

func (personOracle) NewTupleTruth(_ string, prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
	truth := map[string]string{"name": fmt.Sprintf("person-%d", i)}
	for col, v := range prefill {
		truth[col] = v.String()
	}
	return &crowd.SimTruth{Truth: truth}
}

// TestSolicitedTupleInsertErrorFailsStatement: a crowd tuple the store
// cannot write — for any reason but a duplicate key — is the statement's
// error, not a silently dropped answer the crowd was paid for. Both
// tuple-soliciting operators go through the one insert.
func TestSolicitedTupleInsertErrorFailsStatement(t *testing.T) {
	for _, tc := range []struct{ name, sql string }{
		{"CrowdProbe", "SELECT name FROM person LIMIT 2"},
		{"CrowdJoin", "SELECT t.title, p.name FROM talk t JOIN person p ON p.title = t.title"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := storage.NewStoreOptions(t.TempDir(), storage.Options{Shards: 1, Sync: storage.SyncGroup})
			if err != nil {
				t.Fatal(err)
			}
			h := &harness{cat: catalog.New(), store: st}
			h.createTable(t, &catalog.Table{
				Name:    "talk",
				Columns: []catalog.Column{{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true}},
			})
			h.createTable(t, &catalog.Table{
				Name:  "person",
				Crowd: true,
				Columns: []catalog.Column{
					{Name: "name", Type: sqltypes.TypeString, PrimaryKey: true},
					{Name: "title", Type: sqltypes.TypeString},
				},
			})
			h.insert(t, "talk", Row{str("CrowdDB")})
			uim := ui.NewManager(h.cat)
			uim.GenerateAll()
			tm := taskmgr.New(&scriptCrowd{}, uim, quality.NewTracker(), nil, personOracle{}, taskmgr.DefaultConfig())
			ctx := &Ctx{Store: st, Cat: h.cat, Tasks: tm, Cache: NewCompareCache()}
			op, err := h.compile(ctx, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			st.Close() // the next sync writes to a closed file
			rows, err := Run(op, ctx)
			if ctx.Stats.NewTupleRequests == 0 {
				t.Fatalf("the statement solicited no tuples (rows %v, error %v)", rows, err)
			}
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("rows %v, error %v: want the I/O error", rows, err)
			}
		})
	}
}
