package wrm

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/quality"
)

// recorder is an AMT platform that logs each decision the WRM makes on it
// before passing it on.
type recorder struct {
	*amt.Platform
	log []string
}

func (r *recorder) Approve(assignmentID string, bonus crowd.Cents) error {
	r.log = append(r.log, fmt.Sprintf("approve %s +%d", assignmentID, bonus))
	return r.Platform.Approve(assignmentID, bonus)
}

func (r *recorder) Reject(assignmentID, reason string) error {
	r.log = append(r.log, "reject "+assignmentID)
	return r.Platform.Reject(assignmentID, reason)
}

func (r *recorder) Block(workerID string) {
	r.log = append(r.log, "block "+workerID)
	r.Platform.Block(workerID)
}

// settleGroup posts a small group, waits for completion, and settles it,
// returning the assignments and the number Settle approved.
func settleGroup(t *testing.T, m *Manager, p *amt.Platform) ([]*crowd.Assignment, int) {
	t.Helper()
	g := &crowd.HITGroup{Title: "t", Reward: 2, Assignments: 3}
	for i := 0; i < 4; i++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID:     fmt.Sprintf("H%d", i),
			Fields: []crowd.Field{{Name: "x", Kind: crowd.FieldInput}},
			Truth:  &crowd.SimTruth{Truth: map[string]string{"x": "v"}},
		})
	}
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	p.Step(72 * time.Hour)
	res, err := p.Results(id)
	if err != nil || len(res) == 0 {
		t.Fatalf("results: %v %v", len(res), err)
	}
	approved, err := m.Settle(p, res)
	if err != nil {
		t.Fatal(err)
	}
	return res, approved
}

func TestSettleApprovesAndPays(t *testing.T) {
	tr := quality.NewTracker()
	m := New(DefaultPolicy(), tr)
	p := amt.NewDefault(11)
	res, approved := settleGroup(t, m, p)
	if approved != len(res) {
		t.Errorf("approved %d of %d assignments from unscored workers", approved, len(res))
	}
	if paid := p.Market.TotalSpent(); paid < crowd.Cents(len(res))*2 {
		t.Errorf("paid %v for %d assignments", paid, len(res))
	}
}

// noopPlatform accepts every decision and keeps nothing of it.
type noopPlatform struct{ crowd.Platform }

func (noopPlatform) Approve(string, crowd.Cents) error { return nil }
func (noopPlatform) Reject(string, string) error       { return nil }
func (noopPlatform) Now() time.Duration                { return 0 }

// TestSettleRetainsNoPerAnswerState: what the WRM keeps grows with its
// workers, not with the answers it has settled — 100 000 of them from
// three workers leave the heap where it was.
func TestSettleRetainsNoPerAnswerState(t *testing.T) {
	m := New(DefaultPolicy(), quality.NewTracker())
	var p noopPlatform
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const batches, perBatch = 1000, 100
	for b := 0; b < batches; b++ {
		batch := make([]*crowd.Assignment, perBatch)
		for i := range batch {
			batch[i] = &crowd.Assignment{
				ID:       fmt.Sprintf("A%07d", b*perBatch+i),
				WorkerID: fmt.Sprintf("W%d", i%3),
				Status:   crowd.AssignmentSubmitted,
			}
		}
		if _, err := m.Settle(p, batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("settling %d answers grew the heap by %d KiB", batches*perBatch, grew>>10)
	}
	runtime.KeepAlive(m)
}

func TestRejectBadWorkers(t *testing.T) {
	tr := quality.NewTracker()
	// Poison one worker's score.
	for i := 0; i < 20; i++ {
		tr.Record(quality.MajorityVote([]quality.Vote{
			{WorkerID: "good1", Answer: "x"},
			{WorkerID: "good2", Answer: "x"},
			{WorkerID: "spammer", Answer: fmt.Sprintf("junk%d", i)},
		}, 2))
	}
	m := New(PaymentPolicy{AutoApprove: true, RejectBelow: 0.2}, tr)
	p := &recorder{Platform: amt.NewDefault(11)}
	g := &crowd.HITGroup{Title: "t", Reward: 1, Assignments: 1, HITs: []*crowd.HIT{{
		ID: "H0", Fields: []crowd.Field{{Name: "x", Kind: crowd.FieldInput}},
	}}}
	id, _ := p.Post(g)
	p.Step(48 * time.Hour)
	res, _ := p.Results(id)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// Masquerade the submission as the spammer's to trigger rejection.
	res[0].WorkerID = "spammer"
	if _, err := m.Settle(p, res); err != nil {
		t.Fatal(err)
	}
	if want := []string{"reject " + res[0].ID}; !slices.Equal(p.log, want) {
		t.Errorf("spammer must be rejected: %q", p.log)
	}
}

func TestBonusOncePerWorker(t *testing.T) {
	tr := quality.NewTracker()
	for i := 0; i < 50; i++ {
		tr.Record(quality.MajorityVote([]quality.Vote{
			{WorkerID: "star", Answer: "x"},
			{WorkerID: "other", Answer: "x"},
		}, 1))
	}
	m := New(PaymentPolicy{AutoApprove: true, BonusAbove: 0.9, BonusAmount: 5}, tr)
	p := &recorder{Platform: amt.NewDefault(11)}
	g := &crowd.HITGroup{Title: "t", Reward: 1, Assignments: 2, HITs: []*crowd.HIT{{
		ID: "H0", Fields: []crowd.Field{{Name: "x", Kind: crowd.FieldInput}},
	}}}
	id, _ := p.Post(g)
	p.Step(48 * time.Hour)
	res, _ := p.Results(id)
	if len(res) < 2 {
		t.Fatal("need 2 assignments")
	}
	res[0].WorkerID = "star"
	res[1].WorkerID = "star"
	if _, err := m.Settle(p, res); err != nil {
		t.Fatal(err)
	}
	want := []string{"approve " + res[0].ID + " +5", "approve " + res[1].ID + " +0"}
	if !slices.Equal(p.log, want) {
		t.Errorf("star worker must be bonused exactly once: %q", p.log)
	}
}

func TestBlockBelowEscalates(t *testing.T) {
	tr := quality.NewTracker()
	for i := 0; i < 20; i++ {
		tr.Record(quality.MajorityVote([]quality.Vote{
			{WorkerID: "good1", Answer: "x"},
			{WorkerID: "good2", Answer: "x"},
			{WorkerID: "spammer", Answer: fmt.Sprintf("junk%d", i)},
		}, 2))
	}
	m := New(PaymentPolicy{AutoApprove: true, BlockBelow: 0.2}, tr)
	p := &recorder{Platform: amt.NewDefault(17)}
	g := &crowd.HITGroup{Title: "t", Reward: 1, Assignments: 1, HITs: []*crowd.HIT{{
		ID: "H0", Fields: []crowd.Field{{Name: "x", Kind: crowd.FieldInput}},
	}}}
	id, _ := p.Post(g)
	p.Step(48 * time.Hour)
	res, _ := p.Results(id)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	res[0].WorkerID = "spammer"
	if _, err := m.Settle(p, res); err != nil {
		t.Fatal(err)
	}
	// BlockBelow alone blocks but still pays: the answer was submitted.
	want := []string{"block spammer", "approve " + res[0].ID + " +0"}
	if !slices.Equal(p.log, want) {
		t.Errorf("decisions: %q, want %q", p.log, want)
	}
	if p.Market.Blocked() != 1 {
		t.Error("block must reach the platform")
	}
	// Second settle of the same worker must not double-block.
	p.log = nil
	res[0].Status = crowd.AssignmentSubmitted
	m.Settle(p, res)
	if slices.Contains(p.log, "block spammer") {
		t.Errorf("double block: %q", p.log)
	}
}
