package sqltypes

import (
	"bytes"
	"cmp"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"STRING": TypeString, "varchar": TypeString, "Text": TypeString,
		"INT": TypeInt, "integer": TypeInt, "BIGINT": TypeInt,
		"FLOAT": TypeFloat, "double": TypeFloat,
		"BOOL": TypeBool, "Boolean": TypeBool,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) should fail")
	}
}

func TestNullAndCNullDistinct(t *testing.T) {
	n, c := Null(), CNull()
	if !n.IsNull() || n.IsCNull() {
		t.Error("Null() misclassified")
	}
	if !c.IsCNull() || c.IsNull() {
		t.Error("CNull() misclassified")
	}
	if !n.IsUnknown() || !c.IsUnknown() {
		t.Error("both NULL and CNULL must be unknown")
	}
	if Identical(n, c) {
		t.Error("NULL and CNULL must not be Identical")
	}
	if Equal(n, n) || Equal(c, c) {
		t.Error("unknowns are never Equal under SQL semantics")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, ok := Compare(NewInt(3), NewFloat(3.0))
	if !ok || c != 0 {
		t.Errorf("3 vs 3.0: got %d,%v", c, ok)
	}
	c, ok = Compare(NewInt(3), NewFloat(3.5))
	if !ok || c >= 0 {
		t.Errorf("3 vs 3.5: got %d,%v", c, ok)
	}
	if _, ok := Compare(NewInt(1), NewString("1")); ok {
		t.Error("int vs string must be incomparable")
	}
}

func TestCoerce(t *testing.T) {
	v, err := NewString(" 42 ").Coerce(TypeInt)
	if err != nil || v.Int() != 42 {
		t.Errorf("coerce ' 42 '->int: %v %v", v, err)
	}
	v, err = NewFloat(2).Coerce(TypeInt)
	if err != nil || v.Int() != 2 {
		t.Errorf("coerce 2.0->int: %v %v", v, err)
	}
	if _, err = NewFloat(2.5).Coerce(TypeInt); err == nil {
		t.Error("coerce 2.5->int must fail")
	}
	v, err = NewString("yes").Coerce(TypeBool)
	if err != nil || !v.Bool() {
		t.Errorf("coerce yes->bool: %v %v", v, err)
	}
	v, err = CNull().Coerce(TypeInt)
	if err != nil || !v.IsCNull() {
		t.Errorf("CNULL must coerce to any type unchanged: %v %v", v, err)
	}
}

func TestSQLLiteralQuoting(t *testing.T) {
	got := NewString("it's").SQLLiteral()
	if got != "'it''s'" {
		t.Errorf("SQLLiteral quoting: %q", got)
	}
	if NewInt(7).SQLLiteral() != "7" {
		t.Error("int literal")
	}
}

// SortCompare must be a total order: antisymmetric, transitive via sort, and
// NULL < CNULL < everything.
func TestSortCompareTotalOrder(t *testing.T) {
	vals := []Value{
		Null(), CNull(), NewBool(false), NewBool(true),
		NewInt(-5), NewInt(0), NewFloat(0.5), NewInt(2), NewFloat(math.Inf(1)),
		NewString(""), NewString("a"), NewString("b"),
	}
	sort.Slice(vals, func(i, j int) bool { return SortCompare(vals[i], vals[j]) < 0 })
	if !vals[0].IsNull() || !vals[1].IsCNull() {
		t.Fatalf("NULL then CNULL must sort first: %v", vals[:3])
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, b := SortCompare(vals[i], vals[j]), SortCompare(vals[j], vals[i])
			if (a < 0) != (b > 0) || (a == 0) != (b == 0) {
				t.Fatalf("antisymmetry violated for %v vs %v", vals[i], vals[j])
			}
		}
	}
}

// key is AppendKey on a fresh slice.
func key(v Value) []byte { return AppendKey(nil, v) }

func TestAppendKeyOrderPreservingInts(t *testing.T) {
	check := func(a, b int64) bool {
		want := 0
		switch {
		case a < b:
			want = -1
		case a > b:
			want = 1
		}
		return bytes.Compare(key(NewInt(a)), key(NewInt(b))) == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendKeyOrderPreservingFloats(t *testing.T) {
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		want := 0
		switch {
		case a < b:
			want = -1
		case a > b:
			want = 1
		}
		return bytes.Compare(key(NewFloat(a)), key(NewFloat(b))) == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendKeyOrderPreservingStrings(t *testing.T) {
	check := func(a, b string) bool {
		return bytes.Compare(key(NewString(a)), key(NewString(b))) == strings.Compare(a, b)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: SortCompare agrees with AppendKey byte order for same-type values.
func TestSortCompareAgreesWithAppendKey(t *testing.T) {
	check := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return cmp.Compare(SortCompare(va, vb), 0) == bytes.Compare(key(va), key(vb))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestValueIsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// fuzzValue builds a value of one of the six kinds from fuzz inputs.
func fuzzValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 6 {
	case 0:
		return Null()
	case 1:
		return CNull()
	case 2:
		return NewString(s)
	case 3:
		return NewInt(i)
	case 4:
		return NewFloat(f)
	default:
		return NewBool(i&1 != 0)
	}
}

// FuzzValueKey: the byte order of two keys is SortCompare's (checkKeyOrder).
func FuzzValueKey(f *testing.F) {
	const p53 = 1 << 53
	f.Add(uint8(3), int64(p53), 0.0, "", uint8(3), int64(p53+1), 0.0, "")
	f.Add(uint8(4), int64(0), math.Copysign(0, -1), "", uint8(4), int64(0), 0.0, "")
	f.Add(uint8(3), int64(p53+1), 0.0, "", uint8(4), int64(0), float64(p53), "")
	f.Add(uint8(3), int64(math.MaxInt64), 0.0, "", uint8(4), int64(0), float64(1<<63), "")
	f.Add(uint8(3), int64(math.MinInt64), 0.0, "", uint8(4), int64(0), math.Inf(-1), "")
	f.Add(uint8(2), int64(0), 0.0, "a\x00b", uint8(2), int64(0), 0.0, "a")
	f.Add(uint8(5), int64(1), 0.0, "", uint8(5), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		checkKeyOrder(t, fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb))
	})
}

// checkKeyOrder: for two non-NaN numbers of either kind, two strings or two
// booleans, bytes.Compare of the keys is the sign of SortCompare.
func checkKeyOrder(t *testing.T, a, b Value) {
	t.Helper()
	numeric := func(v Value) bool {
		return v.Kind() == KindInt || v.Kind() == KindFloat && !math.IsNaN(v.Float())
	}
	if !(numeric(a) && numeric(b)) && (a.Kind() != b.Kind() || a.Kind() != KindString && a.Kind() != KindBool) {
		return
	}
	if got, want := bytes.Compare(key(a), key(b)), cmp.Compare(SortCompare(a, b), 0); got != want {
		t.Errorf("%v (%v) vs %v (%v): keys order %d, SortCompare %d\n% x\n% x",
			a, a.Kind(), b, b.Kind(), got, want, key(a), key(b))
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{CNull(), "CNULL"},
		{NewInt(42), "42"},
		{NewFloat(1.5), "1.5"},
		{NewBool(true), "TRUE"},
		{NewString("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q want %q", c.v.Kind(), got, c.want)
		}
	}
}

// TestCutLastKeyPart: a key of two or more parts cuts back into each
// part's AppendKey bytes, last part first, whatever the parts' lengths —
// one- and two-digit length suffixes and parts laden with 0x00 and 0xFF.
func TestCutLastKeyPart(t *testing.T) {
	long := strings.Repeat("\x00\xff", 150)
	for _, row := range [][]Value{
		{NewString("a"), NewString("b")},
		{NewString(long), NewInt(1<<53 + 1), Null()},
		{NewFloat(math.Copysign(0, -1)), NewString(long[:127]), NewString(long[:128])},
		{CNull(), NewBool(true), NewString("")},
	} {
		key := string(AppendRowKey(nil, row))
		for i := len(row) - 1; i >= 0; i-- {
			head, last := CutLastKeyPart(key)
			if want := string(AppendKey(nil, row[i])); last != want {
				t.Fatalf("%v part %d: cut % x, want % x", row, i, last, want)
			}
			key = head
		}
		if key != "" {
			t.Errorf("%v: % x left after cutting every part", row, key)
		}
	}
}
