package sqltypes

// The 48-byte Value this package had before INTEGER, FLOAT and BOOLEAN
// shared one payload word, kept verbatim (renamed) as the oracle for the
// four-word one. The two may differ in exactly two places, both fixes:
// Compare of an INTEGER against a FLOAT no longer rounds the integer, and
// AppendKey gives −0.0 the key of +0.0 and an integer float64 cannot hold
// a key of its own.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

type refValue struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

func refNull() refValue { return refValue{kind: KindNull} }

func refCNull() refValue { return refValue{kind: KindCNull} }

func refNewString(s string) refValue { return refValue{kind: KindString, s: s} }

func refNewInt(i int64) refValue { return refValue{kind: KindInt, i: i} }

func refNewFloat(f float64) refValue { return refValue{kind: KindFloat, f: f} }

func refNewBool(b bool) refValue { return refValue{kind: KindBool, b: b} }

func (v refValue) Kind() Kind { return v.kind }

func (v refValue) IsNull() bool { return v.kind == KindNull }

func (v refValue) IsCNull() bool { return v.kind == KindCNull }

func (v refValue) IsUnknown() bool { return v.kind == KindNull || v.kind == KindCNull }

func (v refValue) Str() string { return v.s }

func (v refValue) Int() int64 { return v.i }

func (v refValue) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

func (v refValue) Bool() bool { return v.b }

func (v refValue) TypeOf() Type {
	switch v.kind {
	case KindString:
		return TypeString
	case KindInt:
		return TypeInt
	case KindFloat:
		return TypeFloat
	case KindBool:
		return TypeBool
	default:
		return TypeAny
	}
}

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindCNull:
		return "CNULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

func (v refValue) SQLLiteral() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

func (v refValue) Coerce(t Type) (refValue, error) {
	if v.IsUnknown() || t == TypeAny || v.TypeOf() == t {
		return v, nil
	}
	switch t {
	case TypeString:
		return refNewString(v.String()), nil
	case TypeInt:
		switch v.kind {
		case KindFloat:
			if v.f == float64(int64(v.f)) {
				return refNewInt(int64(v.f)), nil
			}
			return refValue{}, fmt.Errorf("sqltypes: cannot coerce %v to INTEGER without loss", v)
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return refValue{}, fmt.Errorf("sqltypes: cannot coerce %q to INTEGER", v.s)
			}
			return refNewInt(i), nil
		case KindBool:
			if v.b {
				return refNewInt(1), nil
			}
			return refNewInt(0), nil
		}
	case TypeFloat:
		switch v.kind {
		case KindInt:
			return refNewFloat(float64(v.i)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return refValue{}, fmt.Errorf("sqltypes: cannot coerce %q to FLOAT", v.s)
			}
			return refNewFloat(f), nil
		}
	case TypeBool:
		switch v.kind {
		case KindInt:
			return refNewBool(v.i != 0), nil
		case KindString:
			switch strings.ToUpper(strings.TrimSpace(v.s)) {
			case "TRUE", "T", "YES", "1":
				return refNewBool(true), nil
			case "FALSE", "F", "NO", "0":
				return refNewBool(false), nil
			}
		}
	}
	return refValue{}, fmt.Errorf("sqltypes: cannot coerce %v (%v) to %v", v, v.TypeOf(), t)
}

func refCompare(a, b refValue) (cmp int, ok bool) {
	if a.IsUnknown() || b.IsUnknown() {
		return 0, false
	}
	switch {
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s), true
	case a.kind == KindBool && b.kind == KindBool:
		switch {
		case a.b == b.b:
			return 0, true
		case b.b:
			return -1, true
		default:
			return 1, true
		}
	case a.isNumeric() && b.isNumeric():
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1, true
			case a.i > b.i:
				return 1, true
			default:
				return 0, true
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

func (v refValue) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func refSortCompare(a, b refValue) int {
	ra, rb := refSortRank(a), refSortRank(b)
	if ra != rb {
		return ra - rb
	}
	if c, ok := refCompare(a, b); ok {
		return c
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return strings.Compare(a.String(), b.String())
}

func refSortRank(v refValue) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindCNull:
		return 1
	default:
		return 2
	}
}

func refEqual(a, b refValue) bool {
	c, ok := refCompare(a, b)
	return ok && c == 0
}

func refIdentical(a, b refValue) bool {
	if a.kind != b.kind {
		return false
	}
	if a.IsUnknown() {
		return true
	}
	c, ok := refCompare(a, b)
	return ok && c == 0
}

func refAppendKey(dst []byte, v refValue) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindCNull:
		return append(dst, 0x01)
	case KindBool:
		if v.b {
			return append(dst, 0x02, 0x01)
		}
		return append(dst, 0x02, 0x00)
	case KindInt, KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, 0x03), refFloatBits(v.Float()))
	default:
		return append(append(dst, 0x04), v.s...)
	}
}

func refFloatBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

// pair is one value built through both implementations' constructors.
type pair struct {
	v Value
	r refValue
}

func pairOf(kind Kind, i int64, f float64, s string) pair {
	switch kind {
	case KindNull:
		return pair{Null(), refNull()}
	case KindCNull:
		return pair{CNull(), refCNull()}
	case KindString:
		return pair{NewString(s), refNewString(s)}
	case KindInt:
		return pair{NewInt(i), refNewInt(i)}
	case KindFloat:
		return pair{NewFloat(f), refNewFloat(f)}
	default:
		return pair{NewBool(i != 0), refNewBool(i != 0)}
	}
}

// refCorpus is every edge the layouts could disagree on plus seeded random
// values of each kind, as strings that also coerce.
func refCorpus() []pair {
	const p53 = 1 << 53
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -p53 - 1, -p53, -p53 + 1, -1, 0, 1, 2,
		p53 - 1, p53, p53 + 1, p53 + 2, math.MaxInt64 - 1024, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.Copysign(0, -1), 0, 0.5, -2.5, 1, 2, p53, p53 + 2, -p53, 1 << 63, -1 << 63,
		1<<63 - 1024, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300}
	strs := []string{"", "\x00", "a\x00", "a\x00b", "a", "b", "it's", " 42 ", "9007199254740993", "-0", "1e3",
		"NaN", "yes", "F", "true", "0"}
	var out []pair
	out = append(out, pairOf(KindNull, 0, 0, ""), pairOf(KindCNull, 0, 0, ""),
		pairOf(KindBool, 0, 0, ""), pairOf(KindBool, 1, 0, ""))
	for _, i := range ints {
		out = append(out, pairOf(KindInt, i, 0, ""))
	}
	for _, f := range floats {
		out = append(out, pairOf(KindFloat, 0, f, ""))
	}
	for _, s := range strs {
		out = append(out, pairOf(KindString, 0, 0, s))
	}
	rng := rand.New(rand.NewSource(29))
	for n := 0; n < 60; n++ {
		i := rng.Int63() - rng.Int63()
		if n%3 == 0 {
			i = int64(rng.Intn(2001) - 1000)
		}
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		out = append(out, pairOf(KindInt, i, 0, ""), pairOf(KindFloat, 0, f, ""),
			pairOf(KindFloat, 0, float64(i), ""), pairOf(KindString, 0, 0, strconv.FormatInt(i, 10)),
			pairOf(KindString, 0, 0, strconv.FormatFloat(f, 'g', -1, 64)))
	}
	return out
}

// sameValue: v and r are the same value to every accessor.
func sameValue(v Value, r refValue) bool {
	return v.Kind() == r.Kind() && v.IsNull() == r.IsNull() && v.IsCNull() == r.IsCNull() &&
		v.IsUnknown() == r.IsUnknown() && v.Str() == r.Str() && v.Int() == r.Int() &&
		math.Float64bits(v.Float()) == math.Float64bits(r.Float()) && v.Bool() == r.Bool() &&
		v.TypeOf() == r.TypeOf() && v.String() == r.String() && v.SQLLiteral() == r.SQLLiteral()
}

// mixedWant orders an INTEGER and a FLOAT, either way round, in exact
// arithmetic; a NaN compares equal.
func mixedWant(a, b Value) int {
	if a.Kind() == KindFloat {
		return -mixedWant(b, a)
	}
	if math.IsNaN(b.Float()) {
		return 0
	}
	return new(big.Float).SetInt64(a.Int()).Cmp(big.NewFloat(b.Float()))
}

// roundsToFloat reports whether float64 cannot hold v, an INTEGER.
func roundsToFloat(v Value) bool {
	f := float64(v.Int())
	return f >= 1<<63 || int64(f) != v.Int()
}

// exactIntKey is the key of an INTEGER float64 cannot hold, derived in
// exact arithmetic: the float below it, then the two-byte remainder.
func exactIntKey(i int64) []byte {
	floor := new(big.Float).SetPrec(53).SetMode(big.ToNegativeInf).SetInt64(i)
	f, _ := floor.Float64()
	fi, _ := floor.Int(nil)
	r := new(big.Int).Sub(big.NewInt(i), fi).Uint64()
	return binary.BigEndian.AppendUint16(refAppendKey(nil, refNewFloat(f)), uint16(r))
}

func TestValueMatchesReference(t *testing.T) {
	corpus := refCorpus()
	types := []Type{TypeAny, TypeString, TypeInt, TypeFloat, TypeBool}
	fixedKeys, fixedCompares := 0, 0
	for _, a := range corpus {
		if !sameValue(a.v, a.r) {
			t.Fatalf("accessors differ: %v (%v)", a.r, a.r.Kind())
		}
		for _, ty := range types {
			cv, err := a.v.Coerce(ty)
			cr, rerr := a.r.Coerce(ty)
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() || !sameValue(cv, cr) {
				t.Errorf("Coerce(%v (%v), %v) = %v, %v; reference %v, %v", a.r, a.r.Kind(), ty, cv, err, cr, rerr)
			}
		}
		k, rk := AppendKey([]byte{0xAA}, a.v), refAppendKey([]byte{0xAA}, a.r)
		want := rk
		switch {
		case a.v.Kind() == KindFloat && math.Float64bits(a.v.Float()) == 1<<63:
			want = refAppendKey([]byte{0xAA}, refNewFloat(0))
		case a.v.Kind() == KindInt && roundsToFloat(a.v):
			want = append([]byte{0xAA}, exactIntKey(a.v.Int())...)
		}
		if !bytes.Equal(k, want) {
			t.Errorf("AppendKey(%v (%v)) = % x, want % x (reference % x)", a.r, a.r.Kind(), k, want, rk)
		}
		if !bytes.Equal(k, rk) {
			fixedKeys++
		}
		for _, b := range corpus {
			checkKeyOrder(t, a.v, b.v)
			c, ok := Compare(a.v, b.v)
			rc, rok := refCompare(a.r, b.r)
			want := rc
			if a.v.Kind() != b.v.Kind() && a.r.isNumeric() && b.r.isNumeric() {
				want = mixedWant(a.v, b.v)
			}
			if ok != rok || c != want {
				t.Fatalf("Compare(%v (%v), %v (%v)) = %d, %v; want %d (reference %d, %v)",
					a.r, a.r.Kind(), b.r, b.r.Kind(), c, ok, want, rc, rok)
			}
			if c != rc {
				// The one sanctioned difference; the rest follows Compare.
				fixedCompares++
				if SortCompare(a.v, b.v) != c || Equal(a.v, b.v) != (c == 0) || Identical(a.v, b.v) {
					t.Errorf("SortCompare/Equal/Identical(%v, %v) do not follow Compare %d", a.r, b.r, c)
				}
				continue
			}
			if sc, rsc := SortCompare(a.v, b.v), refSortCompare(a.r, b.r); sc != rsc {
				t.Errorf("SortCompare(%v, %v) = %d; reference %d", a.r, b.r, sc, rsc)
			}
			if e, re := Equal(a.v, b.v), refEqual(a.r, b.r); e != re {
				t.Errorf("Equal(%v, %v) = %v; reference %v", a.r, b.r, e, re)
			}
			if e, re := Identical(a.v, b.v), refIdentical(a.r, b.r); e != re {
				t.Errorf("Identical(%v, %v) = %v; reference %v", a.r, b.r, e, re)
			}
		}
	}
	if fixedKeys == 0 || fixedCompares == 0 {
		t.Errorf("the corpus must reach both fixes: %d keys, %d comparisons differ", fixedKeys, fixedCompares)
	}
}
