package model

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"crowddb/internal/crowd"
)

// groupFor builds a one-HIT group of the given kind with seeded truth.
func groupFor(kind crowd.TaskKind, assignments int) *crowd.HITGroup {
	return &crowd.HITGroup{
		Title:       "model test",
		Kind:        kind,
		Reward:      1,
		Assignments: assignments,
		HITs: []*crowd.HIT{{
			ID:   "H1",
			Kind: kind,
			Fields: []crowd.Field{
				{Name: "item", Kind: crowd.FieldDisplay, Value: "item"},
				{Name: "answer", Kind: crowd.FieldInput, Label: "answer"},
			},
			Truth: &crowd.SimTruth{
				Truth:      map[string]string{"answer": "right"},
				Wrong:      map[string][]string{"answer": {"wrong"}},
				Difficulty: 0.1,
			},
		}},
	}
}

// drain steps the platform past all latencies and returns the group's
// assignments.
func drain(t *testing.T, p *Platform, id crowd.GroupID) []*crowd.Assignment {
	t.Helper()
	p.Step(time.Hour)
	res, err := p.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The platform answers all four task kinds with per-assignment
// confidence and a stamped source.
func TestAllTaskKinds(t *testing.T) {
	p := New(Config{Seed: 1, Profile: Sharp()})
	for _, kind := range []crowd.TaskKind{
		crowd.TaskProbeValues, crowd.TaskNewTuple, crowd.TaskCompareEqual, crowd.TaskCompareOrder,
	} {
		id, err := p.Post(groupFor(kind, 3))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		res := drain(t, p, id)
		if len(res) != 3 {
			t.Fatalf("%v: want 3 assignments, got %d", kind, len(res))
		}
		for _, a := range res {
			if a.Confidence <= 0 || a.Confidence > 0.99 {
				t.Errorf("%v: confidence out of range: %v", kind, a.Confidence)
			}
			if a.Source != "model" {
				t.Errorf("%v: source = %q", kind, a.Source)
			}
			if a.Answers["answer"] == "" {
				t.Errorf("%v: empty answer", kind)
			}
		}
		st, err := p.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Done() {
			t.Errorf("%v: group not done after drain: %+v", kind, st)
		}
	}
}

// Replay is deterministic: two platforms with the same seed and Post
// order produce byte-identical assignments regardless of poll cadence.
func TestDeterministicReplay(t *testing.T) {
	run := func(pollEvery time.Duration) []*crowd.Assignment {
		p := New(Config{Seed: 42, Profile: Cheap()})
		var ids []crowd.GroupID
		for i := 0; i < 5; i++ {
			g := groupFor(crowd.TaskCompareEqual, 3)
			g.HITs[0].ID = fmt.Sprintf("H%d", i)
			id, err := p.Post(g)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			// Poll cadence varies between runs; the RNG stream must not.
			for p.Now() < time.Hour {
				p.Step(pollEvery)
				for _, gid := range ids {
					if _, err := p.Results(gid); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var all []*crowd.Assignment
		for _, id := range ids {
			res, err := p.Results(id)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, res...)
		}
		return all
	}
	a, b := run(time.Second), run(17*time.Minute)
	if len(a) != len(b) {
		t.Fatalf("assignment counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("assignment %d differs:\n %+v\n %+v", i, a[i], b[i])
		}
	}
}

// Confidence is calibrated: with zero noise, correct answers report the
// correct-range confidence and wrong answers the wrong-range one, so a
// floor between the two routes exactly the mistakes.
func TestConfidenceCalibration(t *testing.T) {
	prof := Sharp()
	prof.ConfidenceNoise = 0.001
	p := New(Config{Seed: 7, Profile: prof})
	g := groupFor(crowd.TaskProbeValues, 3)
	for i := 1; i < 60; i++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID:     fmt.Sprintf("H%d", i+1),
			Kind:   crowd.TaskProbeValues,
			Fields: g.HITs[0].Fields,
			Truth:  g.HITs[0].Truth,
		})
	}
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	sawWrong := false
	for _, a := range drain(t, p, id) {
		correct := a.Answers["answer"] == "right"
		if correct && a.Confidence < 0.8 {
			t.Errorf("correct answer with low confidence %v", a.Confidence)
		}
		if !correct {
			sawWrong = true
			if a.Confidence > 0.62 {
				t.Errorf("wrong answer %q with high confidence %v", a.Answers["answer"], a.Confidence)
			}
		}
	}
	if !sawWrong {
		t.Skip("seed produced no wrong answers; calibration of the wrong range unexercised")
	}
}

// Truthless HITs make the model abstain with a unique unsure marker, the
// safe escalation path for unanswerable tasks.
func TestAbstainsWithoutTruth(t *testing.T) {
	p := New(Config{Seed: 1, Profile: Sharp()})
	g := groupFor(crowd.TaskProbeValues, 2)
	g.HITs[0].Truth = nil
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	res := drain(t, p, id)
	seen := map[string]bool{}
	for _, a := range res {
		if !strings.HasPrefix(a.Answers["answer"], "unsure-") {
			t.Errorf("want abstention, got %q", a.Answers["answer"])
		}
		if seen[a.Answers["answer"]] {
			t.Errorf("abstentions must not collide (they would fake agreement): %q", a.Answers["answer"])
		}
		seen[a.Answers["answer"]] = true
	}
}

// Approve succeeds once; double approval and approve-after-reject are
// errors.
func TestApproveOnce(t *testing.T) {
	p := New(Config{Seed: 1, Profile: Sharp()})
	g := groupFor(crowd.TaskProbeValues, 2)
	g.Reward = 3
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	res := drain(t, p, id)
	if err := p.Approve(res[0].ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Approve(res[0].ID, 1); err == nil {
		t.Error("double approval must fail")
	}
	if err := p.Reject(res[1].ID, "test"); err != nil {
		t.Fatal(err)
	}
	if err := p.Approve(res[1].ID, 0); err == nil {
		t.Error("approve after reject must fail")
	}
}

// TestModelForgetsSettledGroup: the platform drops a group, with its
// assignments, once it is done, nothing is still to arrive and every
// landed answer is settled — and not a call earlier. (A group nobody
// answered stays: TestExpire reads its Status.)
func TestModelForgetsSettledGroup(t *testing.T) {
	held := func(p *Platform, id crowd.GroupID) bool {
		_, ok := p.groups[id]
		return ok
	}
	settle := func(t *testing.T, p *Platform, res []*crowd.Assignment) {
		t.Helper()
		for i, a := range res {
			var err error
			if i%2 == 0 {
				err = p.Approve(a.ID, 0)
			} else {
				err = p.Reject(a.ID, "test")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("complete", func(t *testing.T) {
		p := New(Config{Seed: 1, Profile: Sharp()})
		id, err := p.Post(groupFor(crowd.TaskProbeValues, 3))
		if err != nil {
			t.Fatal(err)
		}
		res := drain(t, p, id)
		settle(t, p, res[:2])
		if !held(p, id) {
			t.Fatal("a group with an unsettled answer was forgotten")
		}
		settle(t, p, res[2:])
		if len(p.groups) != 0 || len(p.byAssign) != 0 {
			t.Errorf("settled group kept: %d groups, %d assignments", len(p.groups), len(p.byAssign))
		}
		if _, err := p.Status(id); err == nil {
			t.Error("Status of a forgotten group must fail")
		}
	})

	t.Run("expired", func(t *testing.T) {
		prof := Sharp()
		prof.Latency, prof.LatencyJitter = 10*time.Second, 0.5
		p := New(Config{Seed: 1, Profile: prof})
		id, err := p.Post(groupFor(crowd.TaskProbeValues, 9))
		if err != nil {
			t.Fatal(err)
		}
		p.Step(10 * time.Second)
		res, err := p.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || len(res) == 9 {
			t.Fatalf("want some of 9 answers landed at the mean latency, got %d", len(res))
		}
		settle(t, p, res)
		if !held(p, id) {
			t.Fatal("a group with answers still to arrive was forgotten")
		}
		if err := p.Expire(id); err != nil {
			t.Fatal(err)
		}
		if len(p.groups) != 0 || len(p.byAssign) != 0 {
			t.Errorf("settled expired group kept: %d groups, %d assignments", len(p.groups), len(p.byAssign))
		}
	})
}

// Expire freezes the group: answers whose latency had not elapsed at
// expiry never land.
func TestExpire(t *testing.T) {
	p := New(Config{Seed: 1, Profile: Sharp()})
	id, err := p.Post(groupFor(crowd.TaskProbeValues, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Expire(id); err != nil {
		t.Fatal(err)
	}
	p.Step(time.Hour)
	res, err := p.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expired-before-latency group must return no answers, got %d", len(res))
	}
	st, err := p.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Errorf("expired group must be done: %+v", st)
	}
}

// Adaptive groups stop generating once early answers are unanimous at
// the quorum floor.
func TestAdaptiveVotes(t *testing.T) {
	prof := Sharp()
	prof.Accuracy = 1 // every answer correct, so every HIT is unanimous
	p := New(Config{Seed: 1, Profile: prof})
	g := groupFor(crowd.TaskProbeValues, 5)
	g.HITs[0].Truth.Difficulty = 0 // eff = 1.0: unanimity guaranteed
	g.AdaptiveVotes = true
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	res := drain(t, p, id)
	if len(res) != 3 {
		t.Errorf("unanimous adaptive group must stop at the quorum floor (3 of 5), got %d", len(res))
	}
	st, err := p.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Errorf("adaptive group must complete with fewer assignments: %+v", st)
	}
}

func TestParseSpec(t *testing.T) {
	prof, err := ParseSpec("cheap,accuracy=0.5,latency=3s,workers=8,cost=2")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Accuracy != 0.5 || prof.Latency != 3*time.Second || prof.Workers != 8 || prof.CostPerCall != 2 {
		t.Errorf("overrides not applied: %+v", prof)
	}
	if prof.GarbageRate != Cheap().GarbageRate {
		t.Errorf("preset base not kept: %+v", prof)
	}
	if _, err := ParseSpec("fancy"); err == nil {
		t.Error("unknown preset must fail")
	}
	if _, err := ParseSpec("accuracy=2"); err == nil {
		t.Error("out-of-range accuracy must fail")
	}
	if _, err := ParseSpec("sharp,bogus=1"); err == nil {
		t.Error("unknown key must fail")
	}
	if _, err := ParseSpec("accuracy=0.9,sharp"); err == nil {
		t.Error("preset after overrides must fail")
	}
	for _, spec := range []string{"sharp,accuracy=NaN", "garbage=nan", "noise=NAN"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("%s: a NaN rate must fail", spec)
		}
	}
}

// FuzzModelSpec: for any text ParseSpec returns without panicking, and a
// profile it accepts has workers, a positive latency and price, and every
// rate in [0, 1].
func FuzzModelSpec(f *testing.F) {
	for _, spec := range []string{
		"cheap,accuracy=0.5,latency=3s,workers=8,cost=2",
		"fancy", "accuracy=2", "sharp,bogus=1", "accuracy=0.9,sharp",
		"sharp,accuracy=NaN",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		prof, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if prof.Workers <= 0 || prof.Latency <= 0 || prof.CostPerCall <= 0 {
			t.Fatalf("%q: accepted %+v", spec, prof)
		}
		for _, r := range []float64{prof.Accuracy, prof.CorrectConfidence, prof.WrongConfidence,
			prof.ConfidenceNoise, prof.LatencyJitter, prof.GarbageRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("%q: accepted rate %v in %+v", spec, r, prof)
			}
		}
	})
}
