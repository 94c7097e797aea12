package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/sim"
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
// answerOf is a's answer to the "answer" field.
func answerOf(a *crowd.Assignment) string {
	ans, _ := a.Answers.Get("answer")
	return ans
}

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
			if answerOf(a) == "" {
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
		correct := answerOf(a) == "right"
		if correct && a.Confidence < 0.8 {
			t.Errorf("correct answer with low confidence %v", a.Confidence)
		}
		if !correct {
			sawWrong = true
			if a.Confidence > 0.62 {
				t.Errorf("wrong answer %q with high confidence %v", answerOf(a), a.Confidence)
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
		if !strings.HasPrefix(answerOf(a), "unsure-") {
			t.Errorf("want abstention, got %q", answerOf(a))
		}
		if seen[answerOf(a)] {
			t.Errorf("abstentions must not collide (they would fake agreement): %q", answerOf(a))
		}
		seen[answerOf(a)] = true
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
	if err := p.Reject(res[1].ID, "test"); err == nil {
		t.Error("double rejection must fail")
	}
}

// TestModelForgetsSettledGroup: the platform drops a group, with its
// assignments, once it is done, nothing is still to arrive and every
// landed answer is settled — and not a call earlier.
func TestModelForgetsSettledGroup(t *testing.T) {
	held := func(p *Platform, id crowd.GroupID) bool {
		_, err := p.Status(id)
		return err == nil
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
	forgotten := func(t *testing.T, p *Platform, id crowd.GroupID, res []*crowd.Assignment) {
		t.Helper()
		want := fmt.Sprintf("sim: group %s is settled", id)
		if _, err := p.Status(id); fmt.Sprint(err) != want {
			t.Errorf("Status of a forgotten group: %v, want %q", err, want)
		}
		for _, a := range res {
			want := fmt.Sprintf("sim: assignment %s already settled", a.ID)
			if err := p.Approve(a.ID, 0); fmt.Sprint(err) != want {
				t.Errorf("Approve of a forgotten assignment: %v, want %q", err, want)
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
		forgotten(t, p, id, res)
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
		forgotten(t, p, id, res)
	})
}

// Expire freezes the group: answers whose latency had not elapsed at
// expiry never land. The poster reads Status, then Results, which is its
// last read: the group is forgotten then.
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
	st, err := p.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() || st.Submitted != 0 {
		t.Errorf("expired group must be done with no answers: %+v", st)
	}
	res, err := p.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expired-before-latency group must return no answers, got %d", len(res))
	}
	if _, err := p.Status(id); err == nil {
		t.Error("an expired group nobody answered is still held after Results reported it")
	}
}

// A group's own Expiry closes it as Expire does: an answer still out then
// never lands, and a group nobody answered is forgotten once Results has
// reported it.
func TestUnansweredGroupExpires(t *testing.T) {
	p := New(Config{Seed: 1, Profile: Sharp()}) // latencies 3-7 s
	g := groupFor(crowd.TaskProbeValues, 3)
	g.Expiry = time.Second
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	p.Step(time.Minute)
	if st, err := p.Status(id); err != nil || !st.Done() || !st.Expired || st.Submitted != 0 {
		t.Fatalf("a group past its expiry: %+v, %v", st, err)
	}
	if res, err := p.Results(id); err != nil || len(res) != 0 {
		t.Fatalf("results of a group nobody answered: %d, %v", len(res), err)
	}
	want := fmt.Sprintf("sim: group %s is settled", id)
	if _, err := p.Status(id); fmt.Sprint(err) != want {
		t.Errorf("Status after Results: %v, want %q", err, want)
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

// refGroup is a model group's lifecycle computed straight from its
// generated answers — the books the platform kept before it posted into
// sim.Market, kept as the reference the market is checked against. An
// answer is in once its latency has elapsed, unless the group expired
// first; a HIT is complete once every answer made for it is in.
type refGroup struct {
	id        crowd.GroupID
	spec      *crowd.HITGroup
	answers   []sim.Answer // in generation order
	postedAt  time.Duration
	expired   bool
	expiredAt time.Duration
	status    map[int]crowd.AssignmentStatus // settled answers, by generation index
	toldNone  bool                           // Results reported no answers after expiry
}

func (r *refGroup) landed(i int, now time.Duration) bool {
	at := r.postedAt + r.answers[i].Latency
	return at <= now && !(r.expired && at > r.expiredAt)
}

func (r *refGroup) Status(now time.Duration) crowd.GroupStatus {
	st := crowd.GroupStatus{Posted: len(r.spec.HITs), Expired: r.expired}
	made, in := make([]int, len(r.spec.HITs)), make([]int, len(r.spec.HITs))
	for i, a := range r.answers {
		made[a.HIT]++
		if r.landed(i, now) {
			in[a.HIT]++
			st.Submitted++
		}
	}
	for h := range made {
		if in[h] == made[h] {
			st.Completed++
		}
	}
	return st
}

// Results lists the generation indexes of the landed answers, ordered by
// landing time, then generation order.
func (r *refGroup) Results(now time.Duration) []int {
	var out []int
	for i := range r.answers {
		if r.landed(i, now) {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(x, y int) bool { return r.answers[out[x]].Latency < r.answers[out[y]].Latency })
	r.toldNone = r.expired && len(out) == 0
	return out
}

// forgotten reports whether the platform owes the group nothing more:
// done, nothing still to land (nothing can after expiry), every landed
// answer settled, and at least one landed or Results said none did.
func (r *refGroup) forgotten(now time.Duration) bool {
	st := r.Status(now)
	if !st.Done() || (!r.expired && st.Submitted < len(r.answers)) {
		return false
	}
	if st.Submitted == 0 {
		return r.toldNone
	}
	for i := range r.answers {
		if _, settled := r.status[i]; r.landed(i, now) && !settled {
			return false
		}
	}
	return true
}

// The platform's Status and Results, driven by random Post, Step, Expire
// and settle calls, match the lifecycle computed from the generated
// answers after every call, assignment IDs aside: what lands when, what
// completes, what expiry cuts, and when a group is forgotten.
func TestMarketMatchesModelLifecycle(t *testing.T) {
	for _, spec := range []string{"sharp", "cheap", "sharp,jitter=1"} {
		for _, adaptive := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/adaptive=%v/seed=%d", spec, adaptive, seed), func(t *testing.T) {
					prof, err := ParseSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					runLifecycleReference(t, Config{Seed: seed, Profile: prof}, adaptive, 150)
				})
			}
		}
	}
}

func runLifecycleReference(t *testing.T, cfg Config, adaptive bool, steps int) {
	p, twin := New(cfg), New(cfg) // the twin draws the same answers for the reference
	ops := rand.New(rand.NewSource(cfg.Seed + 1000))
	var groups []*refGroup
	now := time.Duration(0)
	landedSeen, cut, forgot := 0, 0, 0

	for step := 0; step < steps; step++ {
		var op string
		switch k := ops.Intn(10); {
		case k < 3 || len(groups) == 0:
			spec := &crowd.HITGroup{Title: "ref", Kind: crowd.TaskProbeValues, Reward: 1,
				Assignments: 1 + ops.Intn(5), AdaptiveVotes: adaptive}
			for h := 0; h < 1+ops.Intn(4); h++ {
				hit := groupFor(crowd.TaskProbeValues, 1).HITs[0]
				hit.ID = fmt.Sprintf("H%d-%d", step, h)
				spec.HITs = append(spec.HITs, hit)
			}
			id, err := p.Post(spec)
			if err != nil {
				t.Fatal(err)
			}
			op = fmt.Sprintf("Post -> %s", id)
			groups = append(groups, &refGroup{id: id, spec: spec, answers: twin.generateLocked(spec),
				postedAt: now, status: map[int]crowd.AssignmentStatus{}})
		case k < 6:
			d := time.Duration(ops.Intn(8000)) * time.Millisecond
			op = fmt.Sprintf("Step(%v)", d)
			p.Step(d)
			now += d
		case k < 8:
			r := groups[ops.Intn(len(groups))]
			op = fmt.Sprintf("Expire(%s)", r.id)
			err := p.Expire(r.id)
			if gone := r.forgotten(now); gone != (err != nil) {
				t.Fatalf("step %d %s: err %v, reference forgotten %v", step, op, err, gone)
			}
			if err == nil && !r.expired {
				r.expired, r.expiredAt = true, now
			}
		default:
			// Settle what has landed, as the Task Manager collects a group.
			r := groups[ops.Intn(len(groups))]
			op = fmt.Sprintf("Settle(%s)", r.id)
			if r.forgotten(now) {
				continue
			}
			res, err := p.Results(r.id)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			for n, i := range r.Results(now) {
				to, settle := crowd.AssignmentApproved, func(id string) error { return p.Approve(id, 0) }
				if ops.Intn(3) == 0 {
					to, settle = crowd.AssignmentRejected, func(id string) error { return p.Reject(id, "r") }
				}
				if _, done := r.status[i]; done {
					continue
				}
				if err := settle(res[n].ID); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				r.status[i] = to
			}
		}

		if p.Now() != now {
			t.Fatalf("step %d after %s: Now %v, reference %v", step, op, p.Now(), now)
		}
		for _, r := range groups {
			checkAgainstReference(t, fmt.Sprintf("step %d after %s", step, op), p, r, now)
		}
		for _, r := range groups {
			for i := range r.answers {
				if r.landed(i, now) {
					landedSeen++
				} else if r.expired && r.postedAt+r.answers[i].Latency <= now {
					cut++
				}
			}
		}
	}
	for _, r := range groups {
		if r.forgotten(now) {
			forgot++
		}
	}
	if landedSeen == 0 || cut == 0 || forgot == 0 {
		t.Errorf("run exercised too little: %d landed, %d cut by expiry, %d groups forgotten", landedSeen, cut, forgot)
	}
}

// checkAgainstReference compares one group's Status and Results with the
// reference, which reads the group the same way.
func checkAgainstReference(t *testing.T, when string, p *Platform, r *refGroup, now time.Duration) {
	t.Helper()
	if r.forgotten(now) {
		want := fmt.Sprintf("sim: group %s is settled", r.id)
		if _, err := p.Status(r.id); fmt.Sprint(err) != want {
			t.Fatalf("%s: Status(%s) of a forgotten group: %v", when, r.id, err)
		}
		return
	}
	st, err := p.Status(r.id)
	if err != nil {
		t.Fatalf("%s: Status(%s): %v", when, r.id, err)
	}
	if want := r.Status(now); st != want {
		t.Fatalf("%s: Status(%s) = %+v, reference %+v", when, r.id, st, want)
	}
	res, err := p.Results(r.id)
	if err != nil {
		t.Fatalf("%s: Results(%s): %v", when, r.id, err)
	}
	want := r.Results(now)
	if len(res) != len(want) {
		t.Fatalf("%s: Results(%s) has %d answers, reference %d", when, r.id, len(res), len(want))
	}
	for n, i := range want {
		a, ref := res[n], r.answers[i]
		status, settled := r.status[i]
		if !settled {
			status = crowd.AssignmentSubmitted
		}
		if a.HITID != r.spec.HITs[ref.HIT].ID || a.WorkerID != ref.WorkerID || a.Confidence != ref.Confidence ||
			a.Source != ref.Source || a.SubmittedAt != r.postedAt+ref.Latency || a.Status != status ||
			!reflect.DeepEqual(a.Answers, ref.Answers) {
			t.Fatalf("%s: Results(%s)[%d] = %+v, reference answer %d %+v landing at %v with %v",
				when, r.id, n, *a, i, *ref.Assignment, r.postedAt+ref.Latency, status)
		}
	}
}
