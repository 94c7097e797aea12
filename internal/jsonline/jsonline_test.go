package jsonline

import (
	"encoding/json"
	"math"
	"math/rand"
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
