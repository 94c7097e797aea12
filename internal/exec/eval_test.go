package exec

import (
	"testing"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

func evalStr(t *testing.T, expr string) sqltypes.Value {
	t.Helper()
	e, err := parser.ParseExpr(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	v, err := EvalConst(e)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	cases := map[string]string{
		"1 + 2":       "3",
		"2 * 3 + 4":   "10",
		"10 / 4":      "2.5",
		"10 % 3":      "1",
		"-5 + 2":      "-3",
		"1.5 * 2":     "3",
		"2 - 3":       "-1",
		"'a' || 'b'":  "ab",
		"1 + 2 * 3":   "7",
		"(1 + 2) * 3": "9",
	}
	for expr, want := range cases {
		if got := evalStr(t, expr).String(); got != want {
			t.Errorf("%s = %s, want %s", expr, got, want)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	truthy := []string{
		"1 < 2", "2 <= 2", "3 > 2", "3 >= 3", "1 = 1", "1 <> 2",
		"'a' < 'b'", "1 = 1.0", "TRUE", "NOT FALSE",
		"1 IN (1, 2)", "3 NOT IN (1, 2)", "2 BETWEEN 1 AND 3",
		"'CrowdDB' LIKE 'Crowd%'", "'CrowdDB' LIKE '%db'", "'abc' LIKE 'a_c'",
		"NULL IS NULL", "CNULL IS CNULL", "CNULL IS NULL", "1 IS NOT NULL",
	}
	for _, expr := range truthy {
		v := evalStr(t, expr)
		if v.Kind() != sqltypes.KindBool || !v.Bool() {
			t.Errorf("%s should be TRUE, got %v", expr, v)
		}
	}
	falsy := []string{"NULL IS CNULL", "1 IS NULL", "'x' LIKE 'y%'", "2 NOT BETWEEN 1 AND 3"}
	for _, expr := range falsy {
		v := evalStr(t, expr)
		if v.Kind() != sqltypes.KindBool || v.Bool() {
			t.Errorf("%s should be FALSE, got %v", expr, v)
		}
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	// Unknown propagates per SQL: FALSE AND NULL = FALSE, TRUE OR NULL = TRUE.
	unknown := []string{"NULL = 1", "NULL AND TRUE", "NULL OR FALSE", "NOT (NULL = 1)", "CNULL + 1 > 0"}
	for _, expr := range unknown {
		if v := evalStr(t, expr); !v.IsUnknown() {
			t.Errorf("%s should be unknown, got %v", expr, v)
		}
	}
	if v := evalStr(t, "(NULL = 1) AND FALSE"); v.IsUnknown() || v.Bool() {
		t.Errorf("unknown AND FALSE = FALSE, got %v", v)
	}
	if v := evalStr(t, "(NULL = 1) OR TRUE"); v.IsUnknown() || !v.Bool() {
		t.Errorf("unknown OR TRUE = TRUE, got %v", v)
	}
}

func TestEvalScalarFunctions(t *testing.T) {
	cases := map[string]string{
		"LOWER('AbC')":          "abc",
		"UPPER('abc')":          "ABC",
		"TRIM('  x ')":          "x",
		"LENGTH('abcd')":        "4",
		"ABS(-3)":               "3",
		"ABS(-2.5)":             "2.5",
		"ROUND(2.6)":            "3",
		"ROUND(-2.6)":           "-3",
		"COALESCE(NULL, 5)":     "5",
		"COALESCE(CNULL, 7)":    "7",
		"SUBSTR('hello', 2)":    "ello",
		"SUBSTR('hello', 2, 3)": "ell",
	}
	for expr, want := range cases {
		if got := evalStr(t, expr).String(); got != want {
			t.Errorf("%s = %s, want %s", expr, got, want)
		}
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	if v := evalStr(t, "1 / 0"); !v.IsNull() {
		t.Errorf("division by zero must be NULL, got %v", v)
	}
	if v := evalStr(t, "1 % 0"); !v.IsNull() {
		t.Errorf("mod by zero must be NULL, got %v", v)
	}
}

func TestEvalColumnRef(t *testing.T) {
	schema := []plan.Col{{Table: "t", Name: "x", Type: sqltypes.TypeInt}}
	row := Row{sqltypes.NewInt(41)}
	e, _ := parser.ParseExpr("x + 1")
	v, err := BindRow(e, schema).Eval(row)
	if err != nil || v.Int() != 42 {
		t.Errorf("column eval: %v %v", v, err)
	}
	e, _ = parser.ParseExpr("t.x")
	v, err = BindRow(e, schema).Eval(row)
	if err != nil || v.Int() != 41 {
		t.Errorf("qualified eval: %v %v", v, err)
	}
	e, _ = parser.ParseExpr("zzz")
	if _, err = BindRow(e, schema).Eval(row); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestCrowdEqualWithoutCrowdIsUnknown(t *testing.T) {
	if v := evalStr(t, "CROWDEQUAL('a', 'b')"); !v.IsUnknown() {
		t.Errorf("no crowd attached: %v", v)
	}
	// Trivially equal values don't need the crowd.
	if v := evalStr(t, "CROWDEQUAL('a', 'a')"); v.IsUnknown() || !v.Bool() {
		t.Errorf("identical values: %v", v)
	}
}

func TestCrowdOrderOutsideOrderByFails(t *testing.T) {
	e, _ := parser.ParseExpr("CROWDORDER('a', 'q')")
	if _, err := EvalConst(e); err == nil {
		t.Error("CROWDORDER in scalar context must fail")
	}
}

func TestAggregateOutsideContextFails(t *testing.T) {
	e, _ := parser.ParseExpr("COUNT(x)")
	if _, err := EvalConst(e); err == nil {
		t.Error("aggregate outside aggregation must fail")
	}
}

func TestLikeEdgeCases(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"abc", "%", true},
		{"abc", "abc", true},
		{"abc", "ABC", true}, // case-insensitive
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "_b_", true},
		{"abc", "__", false},
		{"", "_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}
