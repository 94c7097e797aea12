package taskmgr

import (
	"strings"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/quality"
	"crowddb/internal/wrm"
)

// newFlakyManager builds a manager over an amt platform wrapped in a
// FlakyPlatform, with only the given kinds fallible.
func newFlakyManager(t *testing.T, seed int64, failEvery int, post, status, results bool, cfg Config) (*Manager, *crowd.FlakyPlatform) {
	t.Helper()
	m, _ := newManager(t, seed)
	flaky := crowd.NewFlaky(amt.NewDefault(seed), failEvery)
	flaky.FailPost, flaky.FailStatus, flaky.FailResults = post, status, results
	tracker := quality.NewTracker()
	payer := wrm.New(wrm.DefaultPolicy(), tracker)
	return New(flaky, m.ui, tracker, payer, testOracle{}, cfg), flaky
}

func runTwoCompares(t *testing.T, m *Manager) []quality.Decision {
	t.Helper()
	var out []quality.Decision
	for _, pair := range []ComparePair{
		{Left: "BTalk", Right: "ATalk"},
		{Left: "DTalk", Right: "CTalk"},
	} {
		ds, err := wait(m.CompareOrderAsync("Which talk did you like better", []ComparePair{pair}))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds...)
	}
	return out
}

// A post that fails transiently is retried and — because the failed
// attempt never reached the platform — posted exactly once: spend,
// decisions, and group counts match a run with no outage at all.
func TestPostRetryPaysExactlyOnce(t *testing.T) {
	const seed = 11
	clean, _ := newManager(t, seed)
	wantDs := runTwoCompares(t, clean)
	want := clean.Stats()

	// Per-kind schedule: post 1 passes, post 2 fails, the retry (post 3)
	// passes. Status and results are never flaky.
	m, flaky := newFlakyManager(t, seed, 2, true, false, false, DefaultConfig())
	gotDs := runTwoCompares(t, m)
	got := m.Stats()

	if flaky.Fails() != 1 {
		t.Fatalf("injected post failures: %d, want 1", flaky.Fails())
	}
	if got.Retries != 1 {
		t.Fatalf("Stats.Retries: %d, want 1", got.Retries)
	}
	if got.GroupsPosted != want.GroupsPosted || got.HITsPosted != want.HITsPosted {
		t.Fatalf("retried run posted %d groups / %d HITs, clean run %d / %d",
			got.GroupsPosted, got.HITsPosted, want.GroupsPosted, want.HITsPosted)
	}
	if got.ApprovedSpend != want.ApprovedSpend {
		t.Fatalf("retried run paid %d cents, clean run %d: a retried post double-paid",
			got.ApprovedSpend, want.ApprovedSpend)
	}
	for i := range wantDs {
		if gotDs[i].Value != wantDs[i].Value {
			t.Errorf("decision %d diverged: %q vs %q", i, gotDs[i].Value, wantDs[i].Value)
		}
	}
}

// Transient status and results failures are absorbed by later poll
// ticks; the query still completes and every injected failure shows up
// in Stats.Retries, never as an operator error.
func TestPollRetriesAbsorbTransientOutages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAttempts = 100 // plenty: the outage is periodic, not permanent
	m, flaky := newFlakyManager(t, 11, 3, false, true, true, cfg)
	ds, err := wait(m.CompareOrderAsync("Which talk did you like better", []ComparePair{
		{Left: "BTalk", Right: "ATalk"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].Value != "ATalk" {
		t.Errorf("winner: %+v", ds[0])
	}
	st := m.Stats()
	if flaky.Fails() == 0 {
		t.Fatal("no failure was injected")
	}
	if st.Retries != flaky.Fails() {
		t.Errorf("Retries=%d but %d failures injected: some surfaced", st.Retries, flaky.Fails())
	}
}

// When the retry budget is exhausted the error surfaces — and the
// platform was never charged for the group that could not be posted.
func TestPostRetryBudgetExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAttempts = 3
	m, flaky := newFlakyManager(t, 11, 1, true, false, false, cfg)
	_, err := wait(m.CompareOrderAsync("q", []ComparePair{{Left: "a", Right: "b"}}))
	if err == nil || !strings.Contains(err.Error(), "post") {
		t.Fatalf("exhausted retries must surface the post error, got %v", err)
	}
	if flaky.Fails() != 3 {
		t.Errorf("attempts: %d, want RetryAttempts=3", flaky.Fails())
	}
	st := m.Stats()
	if st.GroupsPosted != 0 || st.ApprovedSpend != 0 {
		t.Errorf("failed posts must not charge: %+v", st)
	}
}
