package exec

// The bound evaluator against the name-resolving one it replaced
// (refeval_test.go): a seeded differential test over generated
// expressions, a native fuzz target over parsed ones, the one comparison
// rule of =, IN and BETWEEN, and the allocation pins of the per-row path.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// diffSchema has a column two tables share (a bare `a` is ambiguous,
// `t.a` is not) and nothing called zzz.
var diffSchema = []plan.Col{
	{Table: "t", Name: "a"}, {Table: "t", Name: "b"}, {Table: "u", Name: "a"},
	{Table: "u", Name: "c"}, {Table: "t", Name: "s"},
}

var diffValues = []sqltypes.Value{
	sqltypes.Null(), sqltypes.CNull(),
	sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(-3), sqltypes.NewInt(42),
	sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(-math.MaxInt64), sqltypes.NewInt(math.MinInt64),
	sqltypes.NewFloat(0), sqltypes.NewFloat(1.5), sqltypes.NewFloat(42), sqltypes.NewFloat(-0.5),
	sqltypes.NewString(""), sqltypes.NewString("abc"), sqltypes.NewString("42"), sqltypes.NewString(" 7 "),
	sqltypes.NewString("1.5"), sqltypes.NewString("true"), sqltypes.NewString("a%b_c"), sqltypes.NewString("ABC"),
	sqltypes.NewBool(true), sqltypes.NewBool(false),
}

func diffRow(rng *rand.Rand) Row {
	row := make(Row, len(diffSchema))
	for i := range row {
		row[i] = diffValues[rng.Intn(len(diffValues))]
	}
	return row
}

// genExpr builds a random expression over diffSchema: every node kind the
// evaluator handles, resolvable and unresolvable references, legal and
// illegal calls. sub is the IN-subquery stand-in (nil: never generate one).
func genExpr(rng *rand.Rand, depth int, sub *parser.Select) parser.Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return &parser.Literal{Val: diffValues[rng.Intn(len(diffValues))]}
		}
		refs := []parser.ColumnRef{
			{Name: "b"}, {Name: "B"}, {Name: "c"}, {Name: "s"}, {Table: "t", Name: "a"}, {Table: "U", Name: "a"},
			{Table: "t", Name: "s"}, {Name: "a"}, {Name: "zzz"}, {Table: "t", Name: "c"},
		}
		r := refs[rng.Intn(len(refs))]
		return &r
	}
	kid := func() parser.Expr { return genExpr(rng, depth-1, sub) }
	switch rng.Intn(10) {
	case 0, 1, 2:
		ops := []string{"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "AND", "OR", "+", "-", "*", "/", "%", "LIKE", "||", "~="}
		return &parser.BinaryExpr{Op: ops[rng.Intn(len(ops))], L: kid(), R: kid()}
	case 3:
		return &parser.UnaryExpr{Op: []string{"NOT", "-"}[rng.Intn(2)], E: kid()}
	case 4:
		return &parser.IsNullExpr{E: kid(), CNull: rng.Intn(2) == 0, Neg: rng.Intn(2) == 0}
	case 5, 6:
		in := &parser.InExpr{E: kid(), Neg: rng.Intn(2) == 0}
		if sub != nil && rng.Intn(4) == 0 {
			in.Sub = sub
			return in
		}
		for n := rng.Intn(4); len(in.List) <= n; {
			in.List = append(in.List, kid())
		}
		return in
	case 7:
		return &parser.BetweenExpr{E: kid(), Lo: kid(), Hi: kid(), Neg: rng.Intn(2) == 0}
	default:
		calls := []struct {
			name     string
			min, max int
		}{
			{"LOWER", 1, 1}, {"UPPER", 1, 1}, {"TRIM", 1, 1}, {"LENGTH", 1, 1}, {"ABS", 1, 1}, {"ROUND", 1, 3},
			{"COALESCE", 1, 5}, {"SUBSTR", 1, 3}, {"CROWDEQUAL", 2, 3}, {"CROWDORDER", 1, 2}, {"SUM", 1, 1}, {"NOPE", 1, 2},
		}
		c := calls[rng.Intn(len(calls))]
		fc := &parser.FuncCall{Name: c.name}
		for n := c.min + rng.Intn(c.max-c.min+1); len(fc.Args) < n; {
			fc.Args = append(fc.Args, kid())
		}
		return fc
	}
}

func hasInOrBetween(e parser.Expr) bool {
	found := false
	parser.WalkExprs(e, func(x parser.Expr) {
		switch x.(type) {
		case *parser.InExpr, *parser.BetweenExpr:
			found = true
		}
	})
	return found
}

// sameResult compares a value-and-error pair: same error text, or the same
// kind and rendering (NULL and CNULL are different answers).
func sameResult(v1 sqltypes.Value, e1 error, v2 sqltypes.Value, e2 error) bool {
	if e1 != nil || e2 != nil {
		return e1 != nil && e2 != nil && e1.Error() == e2.Error()
	}
	return v1.Kind() == v2.Kind() && v1.String() == v2.String()
}

// checkAgainstReference evaluates e over row both ways and returns a
// description of the first disagreement with the reference whose IN and
// BETWEEN convert like =, and whether the verbatim reference (no
// conversion there) agrees too.
func checkAgainstReference(e parser.Expr, row Row, ctx *Ctx) (diff string, verbatim bool) {
	var b binder
	bound := b.bind(e, diffSchema)
	var env *evalEnv
	if ctx != nil {
		env = &evalEnv{ctx: ctx}
	}
	got, gotErr := bound.eval(row, env)
	want, wantErr := refEval(e, &refCtx{schema: diffSchema, row: row, exec: ctx, coerce: true})
	if !sameResult(got, gotErr, want, wantErr) {
		return fmt.Sprintf("eval %s over %v: bound %v, %v; reference %v, %v", e, row, got, gotErr, want, wantErr), false
	}
	// A condition's answer is the value's reading as one.
	keep, keepErr := bound.keeps(row, env)
	wantKeep := false
	if wantErr == nil {
		b, unknown := refBoolOf(want)
		wantKeep = b && !unknown
	}
	if keep != wantKeep || (keepErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("keeps %s over %v: bound %v, %v; reference %v, %v", e, row, keep, keepErr, wantKeep, wantErr), false
	}
	old, oldErr := refEval(e, &refCtx{schema: diffSchema, row: row, exec: ctx})
	return "", sameResult(got, gotErr, old, oldErr)
}

// fixedSubquery answers every IN-subquery with its values.
type fixedSubquery []sqltypes.Value

func (v fixedSubquery) RunSubquery(*Ctx, *parser.Select) ([]sqltypes.Value, error) { return v, nil }

// TestBoundEvalMatchesReference: on generated expressions and rows the
// bound evaluator returns the reference's value (NULL and CNULL kept
// apart) or the reference's error, row by row — and the old evaluator's,
// verbatim, on every expression without an IN or a BETWEEN: the one place
// the two were meant to part (see TestComparisonsShareOneConversion).
func TestBoundEvalMatchesReference(t *testing.T) {
	sub := &parser.Select{}
	ctx := &Ctx{Subqueries: fixedSubquery{sqltypes.NewInt(42), sqltypes.Null(), sqltypes.NewString("abc")}}
	parted := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			var c *Ctx // half the expressions run where a subquery is an error
			var s *parser.Select
			if i%2 == 0 {
				c, s = ctx, sub
			}
			e := genExpr(rng, 1+rng.Intn(4), s)
			for r := 0; r < 8; r++ {
				diff, verbatim := checkAgainstReference(e, diffRow(rng), c)
				if diff != "" {
					t.Fatalf("seed %d: %s", seed, diff)
				}
				if !verbatim {
					if !hasInOrBetween(e) {
						t.Fatalf("seed %d: %s has no IN or BETWEEN and still differs from the old evaluator", seed, e)
					}
					parted++
				}
			}
		}
	}
	if parted == 0 {
		t.Error("no generated IN or BETWEEN needed the conversion: the generator does not reach the fix")
	}
}

// fuzzRow decodes one row of diffSchema from bytes; missing bytes are NULL.
func fuzzRow(data []byte) Row {
	row := make(Row, len(diffSchema))
	for i := range row {
		if len(data) == 0 {
			continue
		}
		row[i] = diffValues[int(data[0])%len(diffValues)]
		data = data[1:]
	}
	return row
}

// FuzzBoundEval takes expression text through lexer → parser → bind and
// requires, over a row decoded from the second argument, no panic and the
// reference's answer.
func FuzzBoundEval(f *testing.F) {
	f.Add("b < c AND c <= 42 OR NOT s = 'abc'", []byte{3, 5, 2, 8, 11})
	// INTEGER operands at the edges of int64: a = MaxInt64, b = -MaxInt64,
	// c = MinInt64 (diffValues' indexes 6, 7 and 8).
	for _, e := range []string{"t.a + 1", "b - 2", "t.a * 2", "c * -1", "-c", "-(c + 1)", "t.a + b", "c % -1", "t.a * 1 + c"} {
		f.Add(e, []byte{6, 7, 8, 8, 0})
	}
	f.Fuzz(func(t *testing.T, text string, rowBytes []byte) {
		e, err := parser.ParseExpr(text)
		if err != nil {
			return
		}
		if diff, _ := checkAgainstReference(e, fuzzRow(rowBytes), nil); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestComparisonsShareOneConversion: =, IN and BETWEEN compare through one
// routine, so a quoted number matches an INTEGER under all three — before,
// only = converted: `id IN ('42')` dropped the row holding 42 and `id NOT
// IN ('42')` returned it.
func TestComparisonsShareOneConversion(t *testing.T) {
	schema := []plan.Col{{Table: "t", Name: "id", Type: sqltypes.TypeInt}, {Table: "t", Name: "x", Type: sqltypes.TypeInt, Crowd: true}}
	row := Row{num(42), sqltypes.CNull()}
	for _, tc := range []struct {
		expr string
		want string // TRUE, FALSE or NULL
	}{
		// typed literal
		{"id = 42", "TRUE"}, {"id IN (42)", "TRUE"}, {"id NOT IN (42)", "FALSE"},
		{"id BETWEEN 40 AND 50", "TRUE"}, {"id NOT BETWEEN 40 AND 50", "FALSE"},
		// quoted literal: the same answers
		{"id = '42'", "TRUE"}, {"id IN ('42')", "TRUE"}, {"id NOT IN ('42')", "FALSE"},
		{"id IN ('41', '42')", "TRUE"}, {"id IN ('41', '43')", "FALSE"}, {"id NOT IN ('41', '43')", "TRUE"},
		{"id BETWEEN '40' AND '50'", "TRUE"}, {"id NOT BETWEEN '40' AND '50'", "FALSE"},
		{"id BETWEEN '43' AND 50", "FALSE"}, {"id BETWEEN '50' AND '40'", "FALSE"},
		// a quoted non-number compares as text, as under =
		{"id = 'abc'", "FALSE"}, {"id IN ('abc')", "FALSE"}, {"id NOT IN ('abc')", "TRUE"},
		// NULL in the list: a match still decides, a miss is unknown
		{"id IN ('42', NULL)", "TRUE"}, {"id NOT IN ('42', NULL)", "FALSE"},
		{"id IN ('41', NULL)", "NULL"}, {"id NOT IN ('41', NULL)", "NULL"},
		{"id BETWEEN NULL AND '50'", "NULL"}, {"id NOT BETWEEN '40' AND NULL", "NULL"},
		// CNULL operand: unknown throughout
		{"x = '42'", "NULL"}, {"x IN ('42')", "NULL"}, {"x NOT IN ('42')", "NULL"},
		{"x BETWEEN '40' AND '50'", "NULL"}, {"x NOT BETWEEN '40' AND '50'", "NULL"},
		{"id IN (x)", "NULL"}, {"id BETWEEN x AND '50'", "NULL"},
	} {
		e, err := parser.ParseExpr(tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		v, err := BindRow(e, schema).Eval(row)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if got := v.String(); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.expr, got, tc.want)
		}
	}
}

// boundEvalCases are the shapes BenchmarkBoundEval times: a comparison, a
// conjunction of two, a list membership.
var boundEvalCases = []struct{ name, expr string }{
	{"cmp", "n > 500"},
	{"and", "n > 100 AND s <> 'row-7'"},
	{"in", "n IN (3, 250, 999, 1001)"},
}

func boundEvalRows() ([]plan.Col, []Row) {
	schema := []plan.Col{{Table: "t", Name: "n", Type: sqltypes.TypeInt}, {Table: "t", Name: "s", Type: sqltypes.TypeString}}
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{num(int64(i * 7919 % 1000)), str(fmt.Sprintf("row-%d", i%10))}
	}
	return schema, rows
}

// BenchmarkBoundEval binds once and evaluates over 1 000 rows per op: the
// per-row path allocates nothing.
func BenchmarkBoundEval(b *testing.B) {
	schema, rows := boundEvalRows()
	for _, bc := range boundEvalCases {
		e, err := parser.ParseExpr(bc.expr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var bd binder
				cond, kept := bd.bind(e, schema), 0
				for _, r := range rows {
					keep, err := cond.keeps(r, nil)
					if err != nil {
						b.Fatal(err)
					}
					if keep {
						kept++
					}
				}
				if kept == 0 || kept == len(rows) {
					b.Fatalf("%d of %d rows kept", kept, len(rows))
				}
			}
		})
	}
}

// TestBoundEvalAllocatesPerBindNotPerRow is BenchmarkBoundEval's gate: one
// slab per bind, nothing per row — and nothing per statement once bound:
// run again with other slot values, as a kept tree is, the bound
// expression allocates nothing and answers as one bound afresh to them.
func TestBoundEvalAllocatesPerBindNotPerRow(t *testing.T) {
	schema, rows := boundEvalRows()
	kept := func(cond *bound) (n int) {
		for _, r := range rows {
			keep, err := cond.keeps(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				n++
			}
		}
		return n
	}
	for _, bc := range boundEvalCases {
		s, err := parser.Parse("SELECT n FROM t WHERE " + bc.expr)
		if err != nil {
			t.Fatal(err)
		}
		where := s.(*parser.Select).Where
		vals := parser.AppendSlotValues(nil, s)
		ctx := &Ctx{}
		ctx.UseSlots(vals)
		var cond *bound
		allocs := testing.AllocsPerRun(20, func() {
			bd := ctx.binder()
			cond = bd.bind(where, schema)
			kept(cond)
		})
		if allocs > 1 {
			t.Errorf("%s: %.0f allocations to bind and evaluate over %d rows, want 1 (the slab)", bc.name, allocs, len(rows))
		}
		other := slices.Clone(vals)
		for i, v := range other {
			if v.Kind() == sqltypes.KindInt {
				other[i] = sqltypes.NewInt(v.Int() + 101)
			}
		}
		allocs = testing.AllocsPerRun(20, func() {
			ctx.UseSlots(other)
			kept(cond)
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations to evaluate again with other slot values, want 0", bc.name, allocs)
		}
		fresh := &Ctx{}
		fresh.UseSlots(other)
		bd := fresh.binder()
		if got, want := kept(cond), kept(bd.bind(where, schema)); got != want {
			t.Errorf("%s with slots %v: %d rows kept, %d when bound to them afresh", bc.name, other, got, want)
		}
	}
}

// TestFilterScanAllocsPerRow: a filtered scan's allocations do not grow
// with the rows it examines — ten times the table under a filter that keeps
// the same few rows costs the cursor's extra chunks and nothing else.
func TestFilterScanAllocsPerRow(t *testing.T) {
	allocs := func(rows int) float64 {
		h := newHarness(t)
		h.createTable(t, &catalog.Table{
			Name: "f",
			Columns: []catalog.Column{
				{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
				{Name: "n", Type: sqltypes.TypeInt},
				{Name: "s", Type: sqltypes.TypeString},
			},
		})
		for i := 0; i < rows; i++ {
			h.insert(t, "f", Row{num(int64(i)), num(int64(i)), str(strings.Repeat("x", i%5))})
		}
		return testing.AllocsPerRun(5, func() {
			if got := h.run(t, "SELECT id, s FROM f WHERE n < 20 AND s <> 'xx' OR n IN (25, 26)", optimizer.Options{}); len(got) != 18 {
				t.Fatalf("%d rows, want 18", len(got))
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if perRow := (large - small) / 9000; perRow > 0.01 {
		t.Errorf("%.3f allocations per extra row examined (%.0f over 1 000 rows, %.0f over 10 000)", perRow, small, large)
	}
}
