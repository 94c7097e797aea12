// Package sqltypes defines the value model of CrowdDB: the SQL scalar
// types, the standard NULL value, and the CrowdSQL-specific CNULL value.
//
// CNULL is the crowd equivalent of NULL (paper §2.1): it marks a value that
// is unknown *and should be crowdsourced when first used*. NULL and CNULL
// are distinct: NULL means "known to be absent", CNULL means "ask the crowd".
// Both compare as SQL unknowns in predicates, but the executor intercepts
// CNULL before predicate evaluation and triggers a CrowdProbe.
package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the SQL scalar types CrowdDB supports.
type Type int

// The supported column types. TypeAny is used internally for expressions
// whose type is not known until runtime (e.g. bare CNULL literals).
const (
	TypeAny Type = iota
	TypeString
	TypeInt
	TypeFloat
	TypeBool
)

// String returns the DDL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "STRING"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeBool:
		return "BOOLEAN"
	default:
		return "ANY"
	}
}

// ParseType converts a DDL type name to a Type. It accepts the synonyms H2
// (and therefore CrowdDB's prototype) accepted: VARCHAR/TEXT/STRING,
// INT/INTEGER/BIGINT, FLOAT/DOUBLE/REAL, BOOL/BOOLEAN.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "STRING", "VARCHAR", "TEXT", "CHAR":
		return TypeString, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	default:
		return TypeAny, fmt.Errorf("sqltypes: unknown type %q", s)
	}
}

// Kind discriminates the runtime representation of a Value.
type Kind int

// Value kinds. KindNull is the SQL NULL; KindCNull is CrowdSQL's CNULL.
const (
	KindNull Kind = iota
	KindCNull
	KindString
	KindInt
	KindFloat
	KindBool
)

// Value is a runtime SQL value. The zero Value is NULL.
//
// It is four words: every row image, batch, sort key and aggregate state
// is an array of Values. A STRING keeps its payload in s; INTEGER, FLOAT
// and BOOLEAN share n (the int64's bits, math.Float64bits, or 0/1), so ==
// on two Values compares float bits: −0.0 and 0.0 differ and a NaN equals
// itself. Compare values with Compare, Equal or Identical.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{kind: KindNull} }

// CNull returns the CrowdSQL CNULL value ("crowdsource me on first use").
func CNull() Value { return Value{kind: KindCNull} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind returns the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsCNull reports whether v is the CrowdSQL CNULL.
func (v Value) IsCNull() bool { return v.kind == KindCNull }

// IsUnknown reports whether v is NULL or CNULL (three-valued logic unknown).
func (v Value) IsUnknown() bool { return v.kind == KindNull || v.kind == KindCNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// Int returns the integer payload. It is only meaningful for KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the float payload, coercing from int if needed.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n))
	case KindFloat:
		return math.Float64frombits(v.n)
	default:
		return 0
	}
}

// Bool returns the boolean payload. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.kind == KindBool && v.n != 0 }

// TypeOf returns the schema type a value naturally carries.
func (v Value) TypeOf() Type {
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

// String renders the value the way the REPL and test goldens print it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindCNull:
		return "CNULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a CrowdSQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Coerce converts v to the given column type, or returns an error if the
// conversion is lossy/nonsensical. NULL and CNULL coerce to any type.
func (v Value) Coerce(t Type) (Value, error) {
	if v.IsUnknown() || t == TypeAny || v.TypeOf() == t {
		return v, nil
	}
	switch t {
	case TypeString:
		return NewString(v.String()), nil
	case TypeInt:
		switch v.kind {
		case KindFloat:
			if f := math.Float64frombits(v.n); f == float64(int64(f)) {
				return NewInt(int64(f)), nil
			}
			return Value{}, fmt.Errorf("sqltypes: cannot coerce %v to INTEGER without loss", v)
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqltypes: cannot coerce %q to INTEGER", v.s)
			}
			return NewInt(i), nil
		case KindBool:
			return NewInt(int64(v.n)), nil
		}
	case TypeFloat:
		switch v.kind {
		case KindInt:
			return NewFloat(float64(int64(v.n))), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqltypes: cannot coerce %q to FLOAT", v.s)
			}
			return NewFloat(f), nil
		}
	case TypeBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.n != 0), nil
		case KindString:
			switch strings.ToUpper(strings.TrimSpace(v.s)) {
			case "TRUE", "T", "YES", "1":
				return NewBool(true), nil
			case "FALSE", "F", "NO", "0":
				return NewBool(false), nil
			}
		}
	}
	return Value{}, fmt.Errorf("sqltypes: cannot coerce %v (%v) to %v", v, v.TypeOf(), t)
}

// Compare orders two values. It returns <0, 0, >0 like strings.Compare, and
// ok=false when either side is unknown (NULL/CNULL) or the kinds are
// incomparable. Numeric kinds compare cross-kind by value: an INTEGER is
// never rounded to a float64 first. A NaN compares equal to every number.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.IsUnknown() || b.IsUnknown() {
		return 0, false
	}
	switch {
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s), true
	case a.kind == KindBool && b.kind == KindBool:
		return order(int64(a.n), int64(b.n)), true
	case a.kind == KindInt && b.kind == KindInt:
		return order(int64(a.n), int64(b.n)), true
	case a.kind == KindFloat && b.kind == KindFloat:
		return order(math.Float64frombits(a.n), math.Float64frombits(b.n)), true
	case a.kind == KindInt && b.kind == KindFloat:
		return cmpIntFloat(int64(a.n), math.Float64frombits(b.n)), true
	case a.kind == KindFloat && b.kind == KindInt:
		return -cmpIntFloat(int64(b.n), math.Float64frombits(a.n)), true
	default:
		return 0, false
	}
}

// order is -1, 0 or 1 by < and >; a NaN is neither, so it orders as equal.
func order[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat orders i against f exactly; float64(i) rounds once |i| > 2^53.
// Inside int64's range int64(math.Trunc(f)) is exact, and f's fraction
// breaks a tie.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := math.Trunc(f)
	if c := order(i, int64(t)); c != 0 {
		return c
	}
	return order(t, f)
}

// SortCompare is a total order used by ORDER BY, and the order AppendKey's
// bytes keep (FuzzValueKey): NULL sorts first, then CNULL, then values by
// Compare; incomparable kinds order by kind then by string rendering, so
// the order is deterministic.
func SortCompare(a, b Value) int {
	ra, rb := sortRank(a), sortRank(b)
	if ra != rb {
		return ra - rb
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return strings.Compare(a.String(), b.String())
}

func sortRank(v Value) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindCNull:
		return 1
	default:
		return 2
	}
}

// Equal reports strict SQL equality; unknowns are never equal to anything.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Identical reports whether two values are the same, treating NULL==NULL and
// CNULL==CNULL as true. Used for storage-level comparisons and test goldens,
// not for SQL predicate semantics.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		// int/float cross-kind numerics with equal magnitude still differ here.
		return false
	}
	if a.IsUnknown() {
		return true
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// AppendKey appends a value's key encoding to dst, the bytes of one part
// of a key (AppendKeyPart): two values get one key exactly when Compare
// calls them equal. For two numbers, two strings or two booleans,
// bytes.Compare of the encodings also agrees with SortCompare; nothing
// reads keys in order, but that order is FuzzValueKey's rule, and the
// bytes must not change because shard routing hashes them. Callers that
// build many keys reuse dst's backing array.
//
// A number is 0x03 and its value as an order-preserving float64. An INTEGER
// that float64 cannot hold is that float rounded toward −∞ followed by the
// two-byte remainder (1–2047), so it sorts after the float and before the
// next one; −0.0 encodes as +0.0. A NaN keeps its own bits and sorts after
// +Inf, although Compare calls it equal to every number.
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindCNull:
		return append(dst, 0x01)
	case KindBool:
		return append(dst, 0x02, byte(v.n))
	case KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, 0x03), keyBits(v.n))
	case KindInt:
		i := int64(v.n)
		f := float64(i)
		if f >= 1<<63 || int64(f) > i {
			f = math.Nextafter(f, math.Inf(-1))
		}
		dst = binary.BigEndian.AppendUint64(append(dst, 0x03), keyBits(math.Float64bits(f)))
		if r := i - int64(f); r != 0 {
			dst = binary.BigEndian.AppendUint16(dst, uint16(r))
		}
		return dst
	default:
		return append(append(dst, 0x04), v.s...)
	}
}

// AppendKeyPart appends one of a key's parts values to dst: the one key
// encoding, which the executor's hash operators and every storage index
// key by. A one-part key is AppendKey's bytes. In a longer key each part
// is followed by its length, written so that it reads back from its end
// (CutLastKeyPart), so a key splits into its parts one way only and two
// keys are equal exactly when their parts' encodings are. The length's
// 7-bit digits come most significant first, and every digit but the first
// has its high bit set.
func AppendKeyPart(dst []byte, v Value, parts int) []byte {
	start := len(dst)
	dst = AppendKey(dst, v)
	if parts == 1 {
		return dst
	}
	n := len(dst) - start
	shift := 0
	for n>>shift >= 0x80 {
		shift += 7
	}
	dst = append(dst, byte(n>>shift))
	for shift > 0 {
		shift -= 7
		dst = append(dst, byte(n>>shift)|0x80)
	}
	return dst
}

// AppendRowKey appends the key of a whole row of values to dst.
func AppendRowKey(dst []byte, row []Value) []byte {
	for _, v := range row {
		dst = AppendKeyPart(dst, v, len(row))
	}
	return dst
}

// CutLastKeyPart splits a key of two or more parts into the parts before
// its last one, still each followed by its length, and the last part's
// AppendKey bytes.
func CutLastKeyPart(key string) (head, last string) {
	end := len(key) - 1
	n, shift := 0, 0
	for ; key[end] >= 0x80; end-- {
		n |= int(key[end]&0x7F) << shift
		shift += 7
	}
	n |= int(key[end]) << shift
	return key[:end-n], key[end-n : end]
}

// keyBits maps float64 bits to bits whose unsigned order is the float order.
func keyBits(bits uint64) uint64 {
	if bits == 1<<63 {
		bits = 0 // −0.0 keys as +0.0
	}
	if bits&(1<<63) != 0 {
		return ^bits // negative: flip all
	}
	return bits | (1 << 63) // positive: flip sign bit
}
