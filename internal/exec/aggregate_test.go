package exec

// Tests for the accumulating GROUP BY: equivalence with the evaluator it
// replaced (buffer every group's rows, then compute each aggregate over
// the buffer), kept below as the reference, and the allocation pin — a
// statement's allocations grow with its groups, not with its input rows.

import (
	"fmt"
	"math"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// --- the reference: the buffer-then-compute evaluator ---

func refAggregate(node *plan.Aggregate, input []Row, schema []plan.Col) ([]Row, error) {
	groups := make(map[string][]Row)
	var order []string
	for _, r := range input {
		keyVals := make([]sqltypes.Value, len(node.GroupBy))
		for i, g := range node.GroupBy {
			v, err := refEval(g, &refCtx{schema: schema, row: r})
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		k := string(sqltypes.AppendRowKey(nil, keyVals))
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	if len(node.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "")
		groups[""] = nil
	}
	var out []Row
	for _, k := range order {
		rows := groups[k]
		if node.Having != nil {
			hv, err := refEvalAggExpr(node.Having, rows, schema)
			if err != nil {
				return nil, err
			}
			if b, unknown := refBoolOf(hv); unknown || !b {
				continue
			}
		}
		row := make(Row, len(node.Items))
		for i, it := range node.Items {
			v, err := refEvalAggExpr(it.Expr, rows, schema)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// refEvalAggExpr evaluates an expression of the aggregate's output over
// one group: every aggregate call becomes a literal of its value over the
// group's rows, then the name-resolving evaluator runs over the group's
// first row — an all-NULL row when the group is empty.
func refEvalAggExpr(e parser.Expr, rows []Row, schema []plan.Col) (sqltypes.Value, error) {
	folded, err := refFoldAggregates(e, rows, schema)
	if err != nil {
		return sqltypes.Value{}, err
	}
	first := make(Row, len(schema))
	if len(rows) > 0 {
		first = rows[0]
	}
	return refEval(folded, &refCtx{schema: schema, row: first, coerce: true})
}

// refFoldAggregates copies e with each aggregate call replaced by a literal
// of its value; an aggregate's own argument is left alone, so one nested in
// it fails in refEval as it does per row.
func refFoldAggregates(e parser.Expr, rows []Row, schema []plan.Col) (parser.Expr, error) {
	var err error
	fold := func(x parser.Expr) parser.Expr {
		if err != nil || x == nil {
			return x
		}
		var out parser.Expr
		out, err = refFoldAggregates(x, rows, schema)
		return out
	}
	folds := func(xs []parser.Expr) []parser.Expr {
		out := make([]parser.Expr, len(xs))
		for i, x := range xs {
			out[i] = fold(x)
		}
		return out
	}
	switch x := e.(type) {
	case *parser.FuncCall:
		if x.IsAggregate() {
			v, err := refComputeAggregate(x, rows, schema)
			return &parser.Literal{Val: v}, err
		}
		e = &parser.FuncCall{Name: x.Name, Args: folds(x.Args), Star: x.Star}
	case *parser.BinaryExpr:
		e = &parser.BinaryExpr{Op: x.Op, L: fold(x.L), R: fold(x.R)}
	case *parser.UnaryExpr:
		e = &parser.UnaryExpr{Op: x.Op, E: fold(x.E)}
	case *parser.IsNullExpr:
		e = &parser.IsNullExpr{E: fold(x.E), CNull: x.CNull, Neg: x.Neg}
	case *parser.InExpr:
		e = &parser.InExpr{E: fold(x.E), List: folds(x.List), Sub: x.Sub, Neg: x.Neg}
	case *parser.BetweenExpr:
		e = &parser.BetweenExpr{E: fold(x.E), Lo: fold(x.Lo), Hi: fold(x.Hi), Neg: x.Neg}
	}
	return e, err
}

func refComputeAggregate(fc *parser.FuncCall, rows []Row, schema []plan.Col) (sqltypes.Value, error) {
	if fc.Star { // COUNT(*)
		return sqltypes.NewInt(int64(len(rows))), nil
	}
	var vals []sqltypes.Value
	for _, r := range rows {
		v, err := refEval(fc.Args[0], &refCtx{schema: schema, row: r})
		if err != nil {
			return sqltypes.Value{}, err
		}
		if !v.IsUnknown() {
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
		// SUM is an exact int64 while every value is an INTEGER, and goes
		// on in float64 from that prefix at the first that is not; AVG
		// sums in float64 throughout.
		var (
			isum  int64
			sum   float64
			float = fc.Name == "AVG"
		)
		for _, v := range vals {
			if !float && v.Kind() == sqltypes.KindInt {
				if i := v.Int(); i > 0 && isum > math.MaxInt64-i || i < 0 && isum < math.MinInt64-i {
					return sqltypes.Value{}, fmt.Errorf("exec: SUM overflows INTEGER")
				}
				isum += v.Int()
				continue
			}
			f, err := v.Coerce(sqltypes.TypeFloat)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("exec: %s over non-numeric value %v", fc.Name, v)
			}
			if !float {
				sum, float = float64(isum), true
			}
			sum += f.Float()
		}
		if fc.Name == "AVG" {
			return sqltypes.NewFloat(sum / float64(len(vals))), nil
		}
		if !float {
			return sqltypes.NewInt(isum), nil
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

// --- the fixture ---

// setupMeasures builds a table whose columns exercise every accumulator
// branch: g/k group keys (k's encodings contain 0x00 and collide unless
// parts are delimited), i all-int with NULL and CNULL, n ints and floats
// mixed, f floats, s strings (numeric in group "num", not elsewhere), x
// values no ordering compares, z all NULL. Table w holds sums a float64
// cannot: 2^53 + 1 in group "exact", MaxInt64 + 1 in "wrap", and in
// "prefix" 2^53 + 1 + 1 followed by a FLOAT.
func setupMeasures(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "m",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "k", Type: sqltypes.TypeString},
			{Name: "i", Type: sqltypes.TypeInt},
			{Name: "n", Type: sqltypes.TypeFloat},
			{Name: "f", Type: sqltypes.TypeFloat},
			{Name: "s", Type: sqltypes.TypeString},
			{Name: "x", Type: sqltypes.TypeString},
			{Name: "z", Type: sqltypes.TypeInt},
		},
	})
	flt := sqltypes.NewFloat
	groups := []string{"a", "a\x00", "b", "num", "lonely"}
	keys := []string{"", "\x00", "a\x00b", "a", "\x00b"}
	for id := 0; id < 60; id++ {
		g := groups[id%4]
		if id == 59 {
			g = "lonely" // a one-row group
		}
		row := Row{num(int64(id)), str(g), str(keys[(id/4)%len(keys)]),
			num(int64(id%7 - 3)), num(int64(id)), flt(float64(id) * 0.1), str(fmt.Sprintf("w%02d", id%9)),
			str("only strings"), sqltypes.Null()}
		switch id % 5 {
		case 1:
			row[3] = sqltypes.Null()
		case 2:
			row[3] = sqltypes.CNull()
			row[4] = flt(float64(id) + 0.5)
		}
		if g == "num" {
			row[6] = str(fmt.Sprint(id))
		}
		if id%11 == 0 {
			row[7] = num(int64(id)) // a number among strings: MIN/MAX cannot order them
		}
		h.insert(t, "m", row)
	}
	h.createTable(t, &catalog.Table{
		Name: "w",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "v", Type: sqltypes.TypeFloat},
		},
	})
	for id, r := range []struct {
		g string
		v sqltypes.Value
	}{
		{"exact", num(1 << 53)}, {"exact", num(1)},
		{"wrap", num(math.MaxInt64)}, {"wrap", num(1)},
		{"prefix", num(1 << 53)}, {"prefix", num(1)}, {"prefix", num(1)}, {"prefix", flt(0.5)},
	} {
		h.insert(t, "w", Row{num(int64(id)), str(r.g), r.v})
	}
	return h
}

// bothAggregates runs sql's Aggregate node through aggregateOp and through
// the reference over the same input rows.
func (h *harness) bothAggregates(t *testing.T, sql string) (got []Row, gotErr error, want []Row, wantErr error) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	var node *plan.Aggregate
	var find func(n plan.Node)
	find = func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			node = a
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(opt.Root)
	if node == nil {
		t.Fatalf("%q plans no Aggregate", sql)
	}
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	in, err := Build(node.Input, ctx)
	if err != nil {
		t.Fatal(err)
	}
	input, err := Run(in, ctx)
	if err != nil {
		t.Fatalf("input of %q: %v", sql, err)
	}
	want, wantErr = refAggregate(node, input, node.Input.Schema())
	op, err := Build(node, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr = Run(op, ctx)
	return got, gotErr, want, wantErr
}

// identicalRows compares kind for kind: SUM's int-or-float result matters.
func identicalRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Kind() != b[i][j].Kind() || a[i][j].String() != b[i][j].String() {
				return false
			}
		}
	}
	return true
}

func TestAggregateMatchesBufferedReference(t *testing.T) {
	h := setupMeasures(t)
	for _, tc := range []struct {
		name, sql string
		rows      int    // expected result rows (-1: whatever the reference says)
		err       string // expected error text ("" = none)
	}{
		{"count star and column over NULL and CNULL", "SELECT g, COUNT(*), COUNT(i), COUNT(z) FROM m GROUP BY g", 5, ""},
		{"sum all-int", "SELECT g, SUM(i), SUM(id) FROM m GROUP BY g", 5, ""},
		{"sum mixed int and float", "SELECT g, SUM(n) FROM m GROUP BY g", 5, ""},
		{"sum and avg over all-NULL", "SELECT g, SUM(z), AVG(z), MIN(z), MAX(z) FROM m GROUP BY g", 5, ""},
		{"avg", "SELECT g, AVG(i), AVG(f), AVG(n) FROM m GROUP BY g", 5, ""},
		{"float sum in arrival order", "SELECT SUM(f), AVG(f) FROM m", 1, ""},
		{"min max strings and numbers", "SELECT g, MIN(s), MAX(s), MIN(i), MAX(f) FROM m GROUP BY g", 5, ""},
		{"aggregates in arithmetic", "SELECT g, SUM(i) * 2 + COUNT(*), -SUM(i), MAX(f) - MIN(f), SUM(id) / COUNT(*) FROM m GROUP BY g", 5, ""},
		{"aggregates in comparisons", "SELECT g, SUM(i) > 0, COUNT(*) = 15 OR MAX(f) < 1 FROM m GROUP BY g", 5, ""},
		{"having on an aggregate not selected", "SELECT g FROM m GROUP BY g HAVING MAX(f) > 5.75 AND COUNT(i) >= 9", -1, ""},
		{"having mixes key and aggregate", "SELECT g, COUNT(*) FROM m GROUP BY g HAVING g <> 'b' AND COUNT(*) > 1", 3, ""},
		{"same call twice", "SELECT g, SUM(i), SUM(i) + 1 FROM m GROUP BY g HAVING SUM(i) <> 99", 5, ""},
		{"global aggregate over zero rows", "SELECT COUNT(*), COUNT(i), SUM(i), AVG(f), MIN(s), MAX(s) FROM m WHERE id > 9999", 1, ""},
		{"group by over zero rows", "SELECT g, COUNT(*) FROM m WHERE id > 9999 GROUP BY g", 0, ""},
		{"keys whose encodings contain 0x00", "SELECT g, k, COUNT(*), SUM(id) FROM m GROUP BY g, k", -1, ""},
		{"group by an expression", "SELECT id % 3, COUNT(*), MAX(id) FROM m GROUP BY id % 3", 3, ""},
		{"sum over a non-numeric value", "SELECT g, SUM(s) FROM m GROUP BY g", 0, "exec: SUM over non-numeric value w00"},
		{"avg over a non-numeric value", "SELECT AVG(s) FROM m", 0, "exec: AVG over non-numeric value w00"},
		{"min over incomparable values", "SELECT MIN(x) FROM m", 0, "exec: MIN over incomparable values"},
		{"max over incomparable values", "SELECT g, MAX(x) FROM m GROUP BY g", 0, "exec: MAX over incomparable values"},
		{"having drops the failing group", "SELECT g, SUM(s) FROM m GROUP BY g HAVING g = 'num'", 1, ""},
		{"having drops every failing group", "SELECT g, COUNT(*), MIN(x) FROM m GROUP BY g HAVING COUNT(*) < 2", 1, ""},
		{"unread failing aggregate behind a false having", "SELECT SUM(s) FROM m HAVING COUNT(*) < 0", 0, ""},
		{"having between over an aggregate", "SELECT g, COUNT(*) FROM m GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 15", 4, ""},
		{"having in over an aggregate", "SELECT g, MAX(i) FROM m GROUP BY g HAVING MAX(i) IN (0, 5)", 1, ""},
		{"scalar function of an aggregate", "SELECT g, UPPER(MIN(s)) FROM m GROUP BY g", 5, ""},
		{"coalesce of an aggregate", "SELECT g, COALESCE(SUM(z), 0), COALESCE(SUM(i), 0) FROM m GROUP BY g", 5, ""},
		{"having is not null over an aggregate", "SELECT g FROM m GROUP BY g HAVING MIN(s) IS NOT NULL", 5, ""},
		{"concatenation of an aggregate", "SELECT g, MIN(s) || '!' FROM m GROUP BY g", 5, ""},
		{"having like over an aggregate", "SELECT g FROM m GROUP BY g HAVING MIN(s) LIKE 'w0%'", 4, ""},
		{"aggregate of an aggregate", "SELECT SUM(COUNT(i)) FROM m", 0, "exec: aggregate COUNT outside aggregation context"},
		{"literal under a global aggregate over zero rows", "SELECT COUNT(*), 5 FROM m WHERE id > 9999", 1, ""},
		{"integer sum past 2^53 is exact", "SELECT g, SUM(v), AVG(v) FROM w WHERE g <> 'wrap' GROUP BY g", 2, ""},
		{"integer sum past MaxInt64", "SELECT SUM(v) FROM w WHERE g = 'wrap'", 0, "exec: SUM overflows INTEGER"},
		{"overflow is deferred like any aggregate error", "SELECT COUNT(v) FROM w WHERE g = 'wrap'", 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, gotErr, want, wantErr := h.bothAggregates(t, tc.sql)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, the reference says %v", gotErr, wantErr)
			}
			if tc.err != fmt.Sprint(wantErr) && !(tc.err == "" && wantErr == nil) {
				t.Fatalf("reference error %v, the case expects %q", wantErr, tc.err)
			}
			if !identicalRows(got, want) {
				t.Fatalf("rows differ from the reference\ngot  %v\nwant %v", got, want)
			}
			if tc.rows >= 0 && len(got) != tc.rows {
				t.Fatalf("%d rows, the case expects %d: %v", len(got), tc.rows, got)
			}
		})
	}
	// The zero-row global group has an all-NULL first row: a column reads
	// NULL there, a literal reads as itself.
	if got, _, _, _ := h.bothAggregates(t, "SELECT COUNT(*), 5 FROM m WHERE id > 9999"); fmt.Sprint(got) != "[[0 5]]" {
		t.Errorf("COUNT(*), 5 over zero rows: %v, want [[0 5]]", got)
	}
	// The 0x00 keys must not collide: 5 key values cycle under 4 groups.
	got, _, _, _ := h.bothAggregates(t, "SELECT g, k, COUNT(*) FROM m GROUP BY g, k")
	seen := map[string]bool{}
	for _, r := range got {
		seen[r[0].Str()+"|"+r[1].Str()] = true
	}
	if len(seen) != len(got) || len(got) < 20 {
		t.Errorf("GROUP BY g, k: %d rows, %d distinct (g, k) pairs", len(got), len(seen))
	}
}

// TestSumOfIntegersIsExact: SUM stays an INTEGER past 2^53, a FLOAT
// continues from the exact integer prefix — 2^53 + 1 + 1 + 0.5 is
// 2^53 + 2 in float64, where a float sum from the first value loses both
// 1s — and leaving int64's range is an error, deferred until the value is
// read.
func TestSumOfIntegersIsExact(t *testing.T) {
	h := setupMeasures(t)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT g, SUM(v) FROM w WHERE g <> 'wrap' GROUP BY g", "[[exact 9007199254740993] [prefix 9.007199254740994e+15]] <nil>"},
		{"SELECT SUM(v) FROM w WHERE g = 'wrap'", "[] exec: SUM overflows INTEGER"},
		{"SELECT g, COUNT(v) FROM w GROUP BY g HAVING g = 'wrap'", "[[wrap 2]] <nil>"},
	} {
		if got, err, _, _ := h.bothAggregates(t, tc.sql); fmt.Sprint(got, " ", err) != tc.want {
			t.Errorf("%s: %v %v, want %s", tc.sql, got, err, tc.want)
		}
	}
}

// TestAggregateAllocsFollowGroupsNotRows: ten times the input rows over
// the same groups costs (almost) no more allocations.
func TestAggregateAllocsFollowGroupsNotRows(t *testing.T) {
	allocs := func(rows, groups int) float64 {
		h := newHarness(t)
		h.createTable(t, &catalog.Table{
			Name: "v",
			Columns: []catalog.Column{
				{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
				{Name: "g", Type: sqltypes.TypeString},
				{Name: "val", Type: sqltypes.TypeInt},
			},
		})
		for i := 0; i < rows; i++ {
			h.insert(t, "v", Row{num(int64(i)), str(fmt.Sprintf("group-%03d", i%groups)), num(int64(i % 97))})
		}
		const sql = "SELECT g, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) FROM v WHERE val >= 0 GROUP BY g HAVING COUNT(*) > 0"
		return testing.AllocsPerRun(5, func() {
			if got := h.run(t, sql, optimizer.Options{}); len(got) != groups {
				t.Fatalf("%d groups, want %d", len(got), groups)
			}
		})
	}
	few, many := allocs(1000, 20), allocs(10000, 20)
	if many > few+200 {
		t.Errorf("allocations follow the input: %.0f over 1 000 rows, %.0f over 10 000 (20 groups each)", few, many)
	}
	// A group costs no allocation of its own: its key goes into an arena
	// chunk, its state, its aggregates' states and its output row come out
	// of slabs. What remains is the growth of the map and the chunks.
	wide := allocs(4000, 2000)
	if perGroup := (wide - few) / 1980; perGroup >= 0.05 {
		t.Errorf("%.3f allocations per extra group, want < 0.05 (%.0f for 20 groups, %.0f for 2 000)", perGroup, few, wide)
	}
}
