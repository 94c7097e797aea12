package bench

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKendallTau(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	tau, err := kendallTau(a, a)
	if err != nil || tau != 1 {
		t.Errorf("identical: %f %v", tau, err)
	}
	rev := []string{"d", "c", "b", "a"}
	tau, _ = kendallTau(a, rev)
	if tau != -1 {
		t.Errorf("reversed: %f", tau)
	}
	swapped := []string{"b", "a", "c", "d"}
	tau, _ = kendallTau(a, swapped)
	want := float64(5-1) / 6
	if math.Abs(tau-want) > 1e-9 {
		t.Errorf("one swap: %f want %f", tau, want)
	}
	if _, err := kendallTau([]string{"x"}, []string{"y"}); err == nil {
		t.Error("too few common items must fail")
	}
}

func TestKendallTauIgnoresMissing(t *testing.T) {
	tau, err := kendallTau([]string{"a", "zz", "b"}, []string{"a", "b", "qq"})
	if err != nil || tau != 1 {
		t.Errorf("missing items: %f %v", tau, err)
	}
}

// Property: τ is within [-1,1] and antisymmetric under reversal.
func TestKendallTauBoundsProperty(t *testing.T) {
	check := func(perm []uint8) bool {
		if len(perm) < 2 {
			return true
		}
		seen := map[string]bool{}
		var a []string
		for _, p := range perm {
			s := string(rune('a' + p%26))
			if !seen[s] {
				seen[s] = true
				a = append(a, s)
			}
		}
		if len(a) < 2 {
			return true
		}
		b := make([]string, len(a))
		for i := range a {
			b[len(a)-1-i] = a[i]
		}
		t1, err1 := kendallTau(a, a)
		t2, err2 := kendallTau(a, b)
		return err1 == nil && err2 == nil && t1 == 1 &&
			math.Abs(t1+t2) < 1e-9 && t2 >= -1 && t2 <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTopKShare(t *testing.T) {
	counts := []int{100, 50, 10, 10, 10, 10, 10}
	if s := topKShare(counts, 2); math.Abs(s-0.75) > 1e-9 {
		t.Errorf("top2: %f", s)
	}
	if s := topKShare(counts, 100); s != 1 {
		t.Errorf("top-all: %f", s)
	}
	if s := topKShare(nil, 3); s != 0 {
		t.Errorf("empty: %f", s)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Errorf("even: %f", g)
	}
	concentrated := gini([]int{0, 0, 0, 100})
	if concentrated < 0.7 {
		t.Errorf("concentrated: %f", concentrated)
	}
	if g := gini(nil); g != 0 {
		t.Errorf("empty: %f", g)
	}
}

func TestPrecisionRecall(t *testing.T) {
	pred := map[string]bool{"a": true, "b": true, "c": true}
	truth := map[string]bool{"a": true, "b": true, "d": true, "e": true}
	p, r, f1 := precisionRecall(pred, truth)
	if math.Abs(p-2.0/3) > 1e-9 || math.Abs(r-0.5) > 1e-9 {
		t.Errorf("p=%f r=%f", p, r)
	}
	wantF1 := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(f1-wantF1) > 1e-9 {
		t.Errorf("f1=%f", f1)
	}
	p, r, f1 = precisionRecall(nil, nil)
	if p != 0 || r != 0 || f1 != 0 {
		t.Error("empty sets")
	}
}
