package quality

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// refTally is tally as it was before its buckets became a slice: a map of
// buckets keyed by normalized answer, each counting its raw spellings in a
// map of its own. FuzzMajorityVote holds tally to it.
func refTally(votes []Vote, weight func(workerID string) float64) Decision {
	type bucket struct {
		weight float64
		count  int
		raw    map[string]int // raw spelling -> occurrences
		who    []string
	}
	buckets := make(map[string]*bucket)
	var d Decision
	totalWeight := 0.0
	for _, v := range votes {
		if IsGarbage(v.Answer) {
			d.Disagreed = append(d.Disagreed, v.WorkerID)
			continue
		}
		d.Total++
		w := 1.0
		if weight != nil {
			if w = weight(v.WorkerID); w <= 0 {
				w = 0.01
			}
		}
		totalWeight += w
		n := Normalize(v.Answer)
		b := buckets[n]
		if b == nil {
			b = &bucket{raw: make(map[string]int)}
			buckets[n] = b
		}
		b.weight += w
		b.count++
		b.raw[strings.TrimSpace(v.Answer)]++
		b.who = append(b.who, v.WorkerID)
	}
	if d.Total == 0 {
		return d
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		bi, bj := buckets[keys[i]], buckets[keys[j]]
		if bi.weight != bj.weight {
			return bi.weight > bj.weight
		}
		return keys[i] < keys[j]
	})
	win := buckets[keys[0]]
	d.Votes = win.count
	d.Confidence = win.weight / totalWeight
	d.Agreed = win.who
	var bestRaw string
	bestN := -1
	raws := make([]string, 0, len(win.raw))
	for r := range win.raw {
		raws = append(raws, r)
	}
	sort.Strings(raws)
	for _, r := range raws {
		if win.raw[r] > bestN {
			bestN = win.raw[r]
			bestRaw = r
		}
	}
	d.Value = bestRaw
	for _, k := range keys[1:] {
		d.Disagreed = append(d.Disagreed, buckets[k].who...)
	}
	return d
}

// fuzzWeights are the worker weights FuzzMajorityVote picks from: zero and
// negative ones (counted as 0.01), fractions, and ties.
var fuzzWeights = []float64{-1, 0, 0.001, 0.01, 0.25, 0.5, 1, 1, 2.5, 7}

// MajorityVote and WeightedVote decide what the map-based reference
// decides, Agreed and Disagreed in the same order. answers holds the
// votes, separated by "|"; vote i is cast by worker workers[i] mod 6, so
// a worker may vote twice, and worker k weighs fuzzWeights[weights[k]].
func FuzzMajorityVote(f *testing.F) {
	seeds := []struct {
		answers          string
		workers, weights []byte
	}{
		{"UC Berkeley|uc berkeley|  UC BERKELEY|Stanford", nil, nil},                    // case and padding damage
		{"|asdf|idk|i don't know|dont know|???|?|n/a|na|none|-|good|unknown", nil, nil}, // every garbage form
		{"IDK|  N/A |GOOD|Unknown|yes", []byte{0, 1, 2, 3, 4}, []byte{6, 6, 6, 6, 6}},
		{"unsure-1|unsure-999|Unsure-7|yes|UNSURE-12", nil, nil},
		{"yes|no|no|yes", []byte{0, 1, 2, 3}, []byte{6, 6, 6, 6}}, // tie, broken by form
		{"b|a", nil, []byte{9, 9}},
		{"b|a|a", []byte{0, 1, 2}, []byte{8, 0, 1}},                  // weights <= 0 against one heavy vote
		{"x|y|z", []byte{0, 1, 2}, []byte{0, 1, 0}},                  // every weight counts as 0.01
		{"x|y|x|y", []byte{0, 0, 1, 1}, []byte{4, 5}},                // a worker voting twice
		{"\u00a0yes\u00a0|yes|YES|ye\u00a0s", nil, nil},              // U+00A0
		{"yes\u0085no|yes no|yes\u0085\u0085no|\u0085yes", nil, nil}, // U+0085
		{"uc\tberkeley|uc berkeley|uc \t berkeley|\tUC Berkeley\t", nil, nil},
		{"ÉCOLE|école|Straße|STRASSE|İstanbul|istanbul|ΣΊΣΥΦΟΣ|σίσυφοσ", nil, nil}, // non-ASCII case
		{"a|A|a |b|B|b", []byte{0, 1, 2, 3, 4, 5}, []byte{6, 7, 8, 9, 6, 7}},
		{"", nil, nil},
	}
	for _, s := range seeds {
		f.Add(s.answers, s.workers, s.weights, 0)
		f.Add(s.answers, s.workers, s.weights, 2)
	}
	f.Fuzz(func(t *testing.T, answers string, workers, weights []byte, minAgree int) {
		var vs []Vote
		if answers != "" {
			for i, a := range strings.Split(answers, "|") {
				k := i
				if i < len(workers) {
					k = int(workers[i])
				}
				vs = append(vs, Vote{WorkerID: fmt.Sprintf("w%d", k%6), Answer: a})
			}
		}
		weight := func(workerID string) float64 {
			k := int(workerID[1] - '0')
			if k >= len(weights) {
				return 1
			}
			return fuzzWeights[int(weights[k])%len(fuzzWeights)]
		}
		got, want := MajorityVote(vs, minAgree), refTally(vs, nil)
		want.Quorum = want.Total > 0 && (minAgree <= 0 || want.Votes >= minAgree)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MajorityVote(%q, %d):\n got  %+v\n want %+v", answers, minAgree, got, want)
		}
		got, want = WeightedVote(vs, weight, 0.5), refTally(vs, weight)
		want.Quorum = want.Total > 0 && want.Confidence >= 0.5
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("WeightedVote(%q, %v):\n got  %+v\n want %+v", answers, weights, got, want)
		}
	})
}

// Normalize's ASCII fast path returns what the rune loop returns, and
// returns its input only when the rune loop would. Normalize is
// idempotent, which callers that normalize once and then ask IsGarbage
// rely on.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "yes", "Yes", "  yes", "yes  ", "uc berkeley", "uc  berkeley", "uc\tberkeley",
		"a\nb", "a\vb", "a\fb", "a\rb", "\u00a0yes", "yes\u0085", "école", "ÉCOLE", "İ", "\xff",
		"a\x00b", "unsure-42", "n/a", "a b c", " a b", "a b ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Normalize(s), normalizeRunes(s)
		if got != want {
			t.Fatalf("Normalize(%q) = %q, rune loop %q", s, got, want)
		}
		if isNormalASCII(s) && want != s {
			t.Fatalf("fast path keeps %q, rune loop gives %q", s, want)
		}
		if again := Normalize(got); again != got {
			t.Fatalf("Normalize(%q) = %q, normalized again %q", s, got, again)
		}
	})
}

// Votes whose answers are already normal cost one allocation: the array
// Agreed and Disagreed share.
func TestMajorityVoteAllocs(t *testing.T) {
	vs := votes("yes", "no", "yes", "idk", "yes")
	if n := testing.AllocsPerRun(100, func() { MajorityVote(vs, 2) }); n > 1 {
		t.Errorf("MajorityVote: %.0f allocs, want <= 1", n)
	}
}
