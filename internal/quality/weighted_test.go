package quality

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestWeightedVoteBasic(t *testing.T) {
	weight := func(id string) float64 {
		if id == "expert" {
			return 0.95
		}
		return 0.3
	}
	// Two low-scoring workers vs one expert: the expert wins.
	d := WeightedVote([]Vote{
		{WorkerID: "spam1", Answer: "wrong"},
		{WorkerID: "spam2", Answer: "wrong"},
		{WorkerID: "expert", Answer: "right"},
	}, weight, 0.5)
	if d.Value != "right" {
		t.Errorf("expert must outweigh two spammers: %+v", d)
	}
	if !d.Quorum {
		t.Errorf("0.95/(0.95+0.6) > 0.5 must reach quorum: %+v", d)
	}
}

func TestWeightedVoteFallsBackToMajorityWithEqualWeights(t *testing.T) {
	uniform := func(string) float64 { return 0.5 }
	votes := []Vote{
		{WorkerID: "a", Answer: "x"},
		{WorkerID: "b", Answer: "x"},
		{WorkerID: "c", Answer: "y"},
	}
	wd := WeightedVote(votes, uniform, 0.5)
	md := MajorityVote(votes, 2)
	if wd.Value != md.Value {
		t.Errorf("uniform weights must agree with majority: %q vs %q", wd.Value, md.Value)
	}
	// Unit weights decide exactly as majority does, Confidence to the bit,
	// on random votes with ties, raw spellings and garbage.
	unit := func(string) float64 { return 1 }
	answers := []string{"x", "X ", "y", " y", "z", "asdf", "unsure-3"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		votes := make([]Vote, rng.Intn(8))
		for k := range votes {
			votes[k] = Vote{WorkerID: fmt.Sprintf("w%d", k), Answer: answers[rng.Intn(len(answers))]}
		}
		if wd, md := WeightedVote(votes, unit, 0), MajorityVote(votes, 0); !reflect.DeepEqual(wd, md) {
			t.Fatalf("votes %v: unit weights decide %+v, majority %+v", votes, wd, md)
		}
	}
}

func TestWeightedVoteGarbageAndZeroWeights(t *testing.T) {
	d := WeightedVote([]Vote{
		{WorkerID: "w1", Answer: "asdf"},
		{WorkerID: "w2", Answer: "real"},
	}, func(string) float64 { return 0 }, 0.5) // zero weights clamp to epsilon
	if d.Total != 1 || d.Value != "real" || !d.Quorum {
		t.Errorf("%+v", d)
	}
	empty := WeightedVote(nil, func(string) float64 { return 1 }, 0.5)
	if empty.Total != 0 || empty.Quorum {
		t.Errorf("%+v", empty)
	}
}

// With a tracked population of mixed reliability, weighted voting beats
// plain majority on adversarial splits (the extension's whole point).
func TestWeightedVoteBeatsMajorityWithTrackedScores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTracker()
	// Train the tracker: good workers agree with majorities, bad disagree.
	for i := 0; i < 60; i++ {
		tr.Record(MajorityVote([]Vote{
			{WorkerID: "good1", Answer: "t"},
			{WorkerID: "good2", Answer: "t"},
			{WorkerID: "bad1", Answer: fmt.Sprintf("junk%d", i)},
			{WorkerID: "bad2", Answer: fmt.Sprintf("junk%d", i+1)},
		}, 2))
	}
	trials, weightedRight, majorityRight := 500, 0, 0
	for i := 0; i < trials; i++ {
		// Adversarial split: both bad workers agree on a wrong answer,
		// good1 knows the truth, good2 abstains (garbage).
		votes := []Vote{
			{WorkerID: "good1", Answer: "truth"},
			{WorkerID: "good2", Answer: "idk"},
			{WorkerID: "bad1", Answer: "lie"},
			{WorkerID: "bad2", Answer: "lie"},
		}
		rng.Shuffle(len(votes), func(a, b int) { votes[a], votes[b] = votes[b], votes[a] })
		if WeightedVote(votes, tr.Score, 0.5).Value == "truth" {
			weightedRight++
		}
		if MajorityVote(votes, 2).Value == "truth" {
			majorityRight++
		}
	}
	if weightedRight <= majorityRight {
		t.Errorf("weighted %d/%d must beat majority %d/%d", weightedRight, trials, majorityRight, trials)
	}
	if weightedRight < trials {
		t.Errorf("weighted vote should always recover truth here: %d/%d", weightedRight, trials)
	}
}
