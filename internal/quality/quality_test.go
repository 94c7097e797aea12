package quality

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  UC Berkeley ": "uc berkeley",
		"UC   BERKELEY":  "uc berkeley",
		"uc\tberkeley":   "uc berkeley",
		"":               "",
		" A  B\n C ":     "a b c",
		"CrowdDB":        "crowddb",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsGarbage(t *testing.T) {
	for _, g := range []string{"", "  ", "asdf", "IDK", "N/A", "???", "unsure-42"} {
		if !IsGarbage(g) {
			t.Errorf("%q should be garbage", g)
		}
	}
	for _, ok := range []string{"UC Berkeley", "42", "yes"} {
		if IsGarbage(ok) {
			t.Errorf("%q should not be garbage", ok)
		}
	}
}

func votes(vs ...string) []Vote {
	out := make([]Vote, len(vs))
	for i, v := range vs {
		out[i] = Vote{WorkerID: fmt.Sprintf("W%d", i), Answer: v}
	}
	return out
}

func TestMajorityVoteBasic(t *testing.T) {
	d := MajorityVote(votes("UC Berkeley", "uc berkeley", "Stanford"), 2)
	if d.Value != "UC Berkeley" && d.Value != "uc berkeley" {
		t.Errorf("winner: %q", d.Value)
	}
	if d.Votes != 2 || d.Total != 3 || !d.Quorum {
		t.Errorf("%+v", d)
	}
	if len(d.Agreed) != 2 || len(d.Disagreed) != 1 {
		t.Errorf("agree/disagree: %v / %v", d.Agreed, d.Disagreed)
	}
}

func TestMajorityVotePrefersCommonRawSpelling(t *testing.T) {
	d := MajorityVote(votes("UC Berkeley", "UC Berkeley", "uc berkeley"), 0)
	if d.Value != "UC Berkeley" {
		t.Errorf("display spelling: %q", d.Value)
	}
}

func TestMajorityVoteGarbageExcluded(t *testing.T) {
	d := MajorityVote(votes("asdf", "", "Berkeley", "berkeley"), 2)
	if d.Total != 2 || d.Votes != 2 || !d.Quorum {
		t.Errorf("%+v", d)
	}
	if len(d.Disagreed) != 2 {
		t.Errorf("garbage voters must be recorded as disagreeing: %v", d.Disagreed)
	}
}

func TestMajorityVoteNoQuorum(t *testing.T) {
	d := MajorityVote(votes("a", "b", "c"), 2)
	if d.Quorum {
		t.Error("three-way split must fail a quorum of 2")
	}
	if d.Confidence > 0.34 {
		t.Errorf("confidence: %f", d.Confidence)
	}
}

func TestMajorityVoteAllGarbage(t *testing.T) {
	d := MajorityVote(votes("asdf", ""), 1)
	if d.Total != 0 || d.Value != "" || d.Quorum {
		t.Errorf("%+v", d)
	}
}

func TestMajorityVoteDeterministicTieBreak(t *testing.T) {
	d1 := MajorityVote(votes("alpha", "beta"), 0)
	d2 := MajorityVote(votes("beta", "alpha"), 0)
	if d1.Value != d2.Value {
		t.Errorf("tie break must not depend on order: %q vs %q", d1.Value, d2.Value)
	}
	if d1.Value != "alpha" {
		t.Errorf("lexicographic tie break: %q", d1.Value)
	}
}

func TestMajorityFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4}
	for n, want := range cases {
		if got := MajorityFor(n); got != want {
			t.Errorf("MajorityFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: the winner always has at least as many votes as any other
// answer, and Votes <= Total <= len(votes).
func TestMajorityVoteInvariants(t *testing.T) {
	check := func(raw []uint8) bool {
		vs := make([]Vote, len(raw))
		counts := map[string]int{}
		for i, r := range raw {
			ans := fmt.Sprintf("ans%d", r%5)
			vs[i] = Vote{WorkerID: fmt.Sprintf("W%d", i), Answer: ans}
			counts[ans]++
		}
		d := MajorityVote(vs, 0)
		if d.Total != len(vs) || d.Votes > d.Total {
			return false
		}
		for _, c := range counts {
			if c > d.Votes {
				return false
			}
		}
		return len(vs) == 0 || counts[Normalize(d.Value)] == d.Votes
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: majority vote over replicated noisy votes recovers the truth
// more often as replication grows — the paper's core QC claim (E4 tests the
// full curve; this is the monotonicity smoke check).
func TestReplicationImprovesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	accuracyAt := func(replication int) float64 {
		correct := 0
		const trials = 2000
		for i := 0; i < trials; i++ {
			vs := make([]Vote, replication)
			for j := range vs {
				if rng.Float64() < 0.7 {
					vs[j] = Vote{WorkerID: "w", Answer: "truth"}
				} else {
					vs[j] = Vote{WorkerID: "w", Answer: fmt.Sprintf("wrong%d", rng.Intn(3))}
				}
			}
			if MajorityVote(vs, 0).Value == "truth" {
				correct++
			}
		}
		return float64(correct) / trials
	}
	a1, a5 := accuracyAt(1), accuracyAt(5)
	if a5 <= a1 {
		t.Errorf("replication must help: 1->%.3f 5->%.3f", a1, a5)
	}
	if a5 < 0.85 {
		t.Errorf("5-vote accuracy too low: %.3f", a5)
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker()
	d := MajorityVote([]Vote{
		{WorkerID: "good", Answer: "x"},
		{WorkerID: "good2", Answer: "x"},
		{WorkerID: "bad", Answer: "y"},
	}, 2)
	tr.Record(d)
	tr.Record(d)
	if g, b := tr.Score("good"), tr.Score("bad"); g <= b {
		t.Errorf("good %f should outscore bad %f", g, b)
	}
	if s := tr.Score("never-seen"); s != 0.5 {
		t.Errorf("unknown worker score: %f", s)
	}
}
