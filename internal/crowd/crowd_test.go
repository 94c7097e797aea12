package crowd

import (
	"testing"
	"time"
)

func TestCentsString(t *testing.T) {
	cases := map[Cents]string{
		1:   "$0.01",
		25:  "$0.25",
		100: "$1.00",
		150: "$1.50",
		0:   "$0.00",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Cents(%d) = %q, want %q", c, got, want)
		}
	}
}

func TestTaskKindString(t *testing.T) {
	kinds := map[TaskKind]string{
		TaskProbeValues:  "probe",
		TaskNewTuple:     "new-tuple",
		TaskCompareEqual: "crowd-equal",
		TaskCompareOrder: "crowd-order",
		TaskKind(99):     "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d = %q, want %q", k, got, want)
		}
	}
}

func TestHITInputFields(t *testing.T) {
	h := &HIT{Fields: []Field{
		{Name: "a", Kind: FieldDisplay},
		{Name: "b", Kind: FieldInput},
		{Name: "c", Kind: FieldChoice},
	}}
	got := h.InputFields()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("InputFields: %v", got)
	}
}

func TestGroupValidate(t *testing.T) {
	ok := &HITGroup{Title: "t", Reward: 1, Assignments: 1, HITs: []*HIT{{ID: "h"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid group rejected: %v", err)
	}
	bad := []*HITGroup{
		{Title: "no hits", Reward: 1, Assignments: 1},
		{Title: "no pay", Assignments: 1, HITs: []*HIT{{ID: "h"}}},
		{Title: "no repl", Reward: 1, HITs: []*HIT{{ID: "h"}}},
		{Title: "no id", Reward: 1, Assignments: 1, HITs: []*HIT{{}}},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("group %q must be rejected", g.Title)
		}
	}
}

func TestGroupStatusDone(t *testing.T) {
	if (GroupStatus{Posted: 2, Completed: 1}).Done() {
		t.Error("incomplete group is not done")
	}
	if !(GroupStatus{Posted: 2, Completed: 2}).Done() {
		t.Error("complete group is done")
	}
	if !(GroupStatus{Posted: 2, Completed: 0, Expired: true}).Done() {
		t.Error("expired group is done")
	}
	if (GroupStatus{}).Done() {
		t.Error("empty group is not done")
	}
}

// fakePlatform is a minimal Platform for the flaky wrapper tests.
type fakePlatform struct{ posts, statuses, results int }

func (f *fakePlatform) Name() string { return "fake" }
func (f *fakePlatform) Post(*HITGroup) (GroupID, error) {
	f.posts++
	return "G1", nil
}
func (f *fakePlatform) Status(GroupID) (GroupStatus, error) {
	f.statuses++
	return GroupStatus{Posted: 1, Completed: 1}, nil
}
func (f *fakePlatform) Results(GroupID) ([]*Assignment, error) {
	f.results++
	return nil, nil
}
func (f *fakePlatform) Approve(string, Cents) error { return nil }
func (f *fakePlatform) Reject(string, string) error { return nil }
func (f *fakePlatform) Expire(GroupID) error        { return nil }
func (f *fakePlatform) Step(time.Duration)          {}
func (f *fakePlatform) Now() time.Duration          { return 0 }

func TestFlakyPlatformInjectsFailures(t *testing.T) {
	inner := &fakePlatform{}
	flaky := NewFlaky(inner, 2) // every 2nd call of each kind fails
	g := &HITGroup{Title: "t", Reward: 1, Assignments: 1, HITs: []*HIT{{ID: "h"}}}

	if _, err := flaky.Post(g); err != nil { // post 1: ok
		t.Fatalf("first call should pass: %v", err)
	}
	if _, err := flaky.Post(g); err == nil { // post 2: fails
		t.Fatal("second post should fail")
	}
	if inner.posts != 1 {
		t.Errorf("failed call must not reach inner platform: %d", inner.posts)
	}
	if flaky.Fails() != 1 {
		t.Errorf("fails: %d", flaky.Fails())
	}
	// Counting is per kind: the post failures above must not advance the
	// status or results schedules.
	if _, err := flaky.Status("G1"); err != nil { // status 1: ok
		t.Errorf("status: %v", err)
	}
	if _, err := flaky.Status("G1"); err == nil { // status 2: fails
		t.Error("second status should fail")
	}
	if _, err := flaky.Results("G1"); err != nil { // results 1: ok
		t.Errorf("results: %v", err)
	}
	if _, err := flaky.Results("G1"); err == nil { // results 2: fails
		t.Error("second results should fail")
	}
	if flaky.Fails() != 3 {
		t.Errorf("fails: %d", flaky.Fails())
	}
	if flaky.Name() != "fake" {
		t.Error("name passthrough")
	}
}

// Per-kind scheduling lets a test target one operation only: with
// FailPost set and FailEvery=1 every post fails while status and results
// sail through, no matter how the kinds interleave.
func TestFlakyPerKindTargeting(t *testing.T) {
	inner := &fakePlatform{}
	flaky := NewFlaky(inner, 1)
	flaky.FailStatus, flaky.FailResults = false, false
	g := &HITGroup{Title: "t", Reward: 1, Assignments: 1, HITs: []*HIT{{ID: "h"}}}
	for i := 0; i < 3; i++ {
		if _, err := flaky.Post(g); err == nil {
			t.Fatal("post must fail")
		}
		if _, err := flaky.Status("G1"); err != nil {
			t.Fatalf("status must pass: %v", err)
		}
		if _, err := flaky.Results("G1"); err != nil {
			t.Fatalf("results must pass: %v", err)
		}
	}
	if inner.posts != 0 || inner.statuses != 3 || inner.results != 3 {
		t.Fatalf("inner calls: posts=%d status=%d results=%d", inner.posts, inner.statuses, inner.results)
	}
}

func TestFlakyDisabled(t *testing.T) {
	flaky := NewFlaky(&fakePlatform{}, 0)
	for i := 0; i < 10; i++ {
		if _, err := flaky.Status("G1"); err != nil {
			t.Fatal("disabled injector must never fail")
		}
	}
}

// Get returns a field's last answer, as the map it replaces kept the last
// write, and reports a field never answered as missing.
func TestAnswersGetLastWriteWins(t *testing.T) {
	as := Answers{{Field: "name", Value: "first"}, {Field: "room", Value: "A"}, {Field: "name", Value: "second"}}
	if v, ok := as.Get("name"); !ok || v != "second" {
		t.Errorf(`Get("name") = %q, %v, want "second", true`, v, ok)
	}
	if v, ok := as.Get("room"); !ok || v != "A" {
		t.Errorf(`Get("room") = %q, %v, want "A", true`, v, ok)
	}
	if v, ok := as.Get("missing"); ok || v != "" {
		t.Errorf(`Get("missing") = %q, %v, want "", false`, v, ok)
	}
	if v, ok := Answers(nil).Get("name"); ok || v != "" {
		t.Errorf(`nil Get("name") = %q, %v, want "", false`, v, ok)
	}
	if v, ok := (Answers{{Field: "empty", Value: ""}}).Get("empty"); !ok || v != "" {
		t.Errorf(`Get("empty") = %q, %v, want "", true`, v, ok)
	}
}
