package jsonline

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendMatchesMarshal holds both appenders to json.Marshal: the
// edge cases by name, then random strings over an alphabet rich in what
// needs escaping (controls, quotes, HTML characters, the two separators,
// invalid UTF-8) and random floats across the exponent range.
func TestAppendMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", " ", "\"", "\\", "/", "<", ">", "&", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
		"é", "😀", " ", " ", "\xff", "\xed\xa0\x80", "\xe2\x80", "\xf0\x9f\x98"}
	strs := []string{"", "plain", "<a & b>", "\xff\xfe", "  "}
	for i := 0; i < 20000; i++ {
		s := ""
		for n := rng.Intn(12); n > 0; n-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		strs = append(strs, s)
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
	}

	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-300, 1.0 / 3}
	for i := 0; i < 20000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
}

// TestScannerMatchesValid holds the Scanner to encoding/json on edge
// cases and on random mutations of them: it reads a value to the end
// exactly when json.Valid accepts it, and a string to json.Unmarshal's
// value.
func TestScannerMatchesValid(t *testing.T) {
	seeds := []string{`{"a":[1,-0.5e+3,true,false,null,"xé😀"],"b":{}}`, `[]`, `"\ud800\n\\"`,
		"\"\xff\xed\xa0\x80\"", `01`, `1.`, `-`, `1e`, `tru`, `{"a" 1}`, `[1,]`, `{,}`, " \t\r\n0 ", `"\x"`, `"\u12"`,
		`[` + strings.Repeat("[", MaxDepth-1) + strings.Repeat("]", MaxDepth-1) + `]`,
		`[` + strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth) + `]`}
	alphabet := []byte(`{}[]:,"\ u0123456789abcdefABCDEF.-+eEtrufalsn` + "\x00\x1f\x7f\xff\xc3\xa9")
	rng := rand.New(rand.NewSource(1))
	inputs := append([]string(nil), seeds...)
	for i := 0; i < 20000; i++ {
		b := []byte(seeds[rng.Intn(len(seeds)-2)])
		for n := rng.Intn(4); n >= 0; n-- {
			switch at := rng.Intn(len(b) + 1); rng.Intn(3) {
			case 0:
				b = append(b[:at], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[at:]...)...)
			case 1:
				if at < len(b) {
					b = append(b[:at], b[at+1:]...)
				}
			default:
				if at < len(b) {
					b[at] = alphabet[rng.Intn(len(alphabet))]
				}
			}
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		s := Scanner{B: []byte(in)}
		s.WS()
		err := s.Skip(0)
		if err == nil {
			err = s.End()
		}
		if valid := json.Valid([]byte(in)); (err == nil) != valid {
			t.Fatalf("%.80q: Scanner says %v, json.Valid %v", in, err, valid)
		}
		var want string
		if json.Unmarshal([]byte(in), &want) != nil {
			continue
		}
		s = Scanner{B: []byte(in)}
		s.WS()
		if got, err := s.Str(); err != nil || string(got) != want {
			t.Fatalf("%q: Scanner read %q (%v), json.Unmarshal %q", in, got, err, want)
		}
	}
}
