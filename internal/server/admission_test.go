package server

import (
	"strings"
	"testing"
	"time"
)

// TestBudgetAdmissionRejectsBeforePosting: with AdmissionHeadroom set, a
// script forecast to overrun the session budget is rejected with the
// coded budget_exhausted error before a single HIT group is posted —
// zero cents spent, budget untouched — and the decision is visible in
// the admission metrics and the /stats cost_model report.
func TestBudgetAdmissionRejectsBeforePosting(t *testing.T) {
	const nPairs = 8
	eng := pairEngine(t, 19, nPairs)
	srv := New(eng, Config{AdmissionHeadroom: 1})

	capped, serr := srv.CreateSession(1) // forecast needs ~nPairs comparisons
	if serr != nil {
		t.Fatal(serr)
	}
	_, serr = srv.StartJob(capped.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if serr == nil {
		t.Fatal("over-budget script was admitted")
	}
	if serr.Code != CodeBudgetExhausted {
		t.Fatalf("rejection code = %s, want %s", serr.Code, CodeBudgetExhausted)
	}
	if !strings.Contains(serr.Message, "nothing was posted") {
		t.Errorf("rejection message %q should state nothing was posted", serr.Message)
	}
	if st := eng.Tasks().Stats(); st.GroupsPosted != 0 || st.ApprovedSpend != 0 {
		t.Errorf("rejection spent money: %d groups, %d cents approved", st.GroupsPosted, st.ApprovedSpend)
	}
	if got := capped.Info().BudgetLeft; got != 1 {
		t.Errorf("rejection touched the budget: left = %d, want 1", got)
	}
	adm := srv.Stats().CostModel.Admission
	if adm.RejectedBudget != 1 {
		t.Errorf("rejected_budget = %d, want 1", adm.RejectedBudget)
	}

	// An unlimited session sails through, and its settled spend feeds the
	// predicted-vs-actual accuracy aggregate.
	free, serr := srv.CreateSession(-1)
	if serr != nil {
		t.Fatal(serr)
	}
	job, serr := srv.StartJob(free.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if serr != nil {
		t.Fatal(serr)
	}
	if state := waitDone(t, job); state != JobDone {
		t.Fatalf("admitted job state = %s (err %v), want done", state, job.Err())
	}
	adm = srv.Stats().CostModel.Admission
	if adm.Admitted < 1 {
		t.Errorf("admitted = %d, want >= 1", adm.Admitted)
	}
	if adm.ForecastJobs != 0 {
		// Unlimited budgets skip the forecast, so no accuracy sample.
		t.Errorf("forecast_jobs = %d, want 0 (unlimited budget is trivially admitted)", adm.ForecastJobs)
	}

	// A generous headroom re-admits the same capped forecast, and the
	// completed job lands one predicted-vs-actual accuracy sample.
	lax := New(eng, Config{AdmissionHeadroom: float64(nPairs) * 2})
	sess, serr := lax.CreateSession(1)
	if serr != nil {
		t.Fatal(serr)
	}
	job, serr = lax.StartJob(sess.ID(), "SELECT id FROM Pair WHERE a ~= b")
	if serr != nil {
		t.Fatalf("headroom should have admitted: %v", serr)
	}
	if state := waitDone(t, job); state != JobDone {
		t.Fatalf("job state = %s (err %v), want done", state, job.Err())
	}
	// The accuracy sample lands when the job retires, just after it
	// turns terminal.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		adm = lax.Stats().CostModel.Admission
		if adm.ForecastJobs > 0 || time.Now().After(deadline) {
			break
		}
	}
	if adm.ForecastJobs != 1 || adm.PredictedCents <= 0 {
		t.Errorf("accuracy sample = %+v, want 1 forecast job with positive predicted cents", adm)
	}
}
