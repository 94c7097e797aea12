package taskmgr

// Tests for the asynchronous HIT scheduler: window semantics, concurrent
// Submit/Wait safety (run these with -race), error delivery, and the
// fixed-seed determinism contract.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/wrm"
)

// asyncManager builds a Manager over a fresh simulated AMT for direct
// Submit use (no UI templates or oracle needed: groups carry their truth).
func asyncManager(seed int64, window int) (*Manager, *amt.Platform) {
	platform := amt.NewDefault(seed)
	cfg := DefaultConfig()
	cfg.MaxInFlight = window
	tracker := quality.NewTracker()
	return New(platform, nil, tracker, wrm.New(wrm.DefaultPolicy(), tracker), nil, cfg), platform
}

// truthGroup builds a probe group of n HITs whose ground truth for HIT j
// is "v<j>", with IDs unique per (tag, j).
func truthGroup(tag string, n int) *crowd.HITGroup {
	g := &crowd.HITGroup{
		Title:       "async test " + tag,
		Kind:        crowd.TaskProbeValues,
		Reward:      2,
		Assignments: 3,
		Expiry:      72 * time.Hour,
	}
	for j := 0; j < n; j++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID:   fmt.Sprintf("%s-H%03d", tag, j),
			Kind: crowd.TaskProbeValues,
			Fields: []crowd.Field{
				{Name: "item", Kind: crowd.FieldDisplay, Value: fmt.Sprintf("item %d", j)},
				{Name: "value", Kind: crowd.FieldInput, Label: "enter the value"},
			},
			Truth: &crowd.SimTruth{Truth: map[string]string{"value": fmt.Sprintf("v%d", j)}},
		})
	}
	return g
}

func TestSubmitWindowBoundsInflight(t *testing.T) {
	m, _ := asyncManager(3, 2)
	var pendings []*Pending
	for i := 0; i < 5; i++ {
		pendings = append(pendings, m.Submit(truthGroup(fmt.Sprintf("G%d", i), 4)))
	}
	for _, p := range pendings {
		byHIT, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(byHIT) != 4 {
			t.Errorf("HITs answered: %d", len(byHIT))
		}
	}
	st := m.Stats()
	if st.GroupsPosted != 5 {
		t.Errorf("groups posted: %d", st.GroupsPosted)
	}
	if st.PeakInFlight > 2 {
		t.Errorf("window 2 exceeded: peak in-flight %d", st.PeakInFlight)
	}
	if st.PeakQueueDepth != 3 {
		t.Errorf("5 submissions into window 2 must peak the queue at 3, got %d", st.PeakQueueDepth)
	}
	if st.MaxInFlight != 2 {
		t.Errorf("stats must echo the configured window: %d", st.MaxInFlight)
	}
}

// TestSubmitStorm hammers one manager from many goroutines — the
// race-detector workout for the scheduler, the platforms, and the WRM.
func TestSubmitStorm(t *testing.T) {
	m, _ := asyncManager(7, 4)
	const storm = 24
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := m.Submit(truthGroup(fmt.Sprintf("S%02d", i), 3))
			byHIT, err := p.Wait()
			if err != nil {
				errs <- err
				return
			}
			if len(byHIT) != 3 {
				errs <- fmt.Errorf("group %d: %d HITs answered", i, len(byHIT))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := m.Stats()
	if st.GroupsPosted != storm {
		t.Errorf("groups posted: %d", st.GroupsPosted)
	}
	if st.PeakInFlight > 4 {
		t.Errorf("window 4 exceeded: peak in-flight %d", st.PeakInFlight)
	}
	if st.AssignmentsIn < storm*3*3 {
		t.Errorf("assignments in: %d", st.AssignmentsIn)
	}
}

// TestConcurrentWaiters has several goroutines wait on the SAME pending
// group; all must see the identical result.
func TestConcurrentWaiters(t *testing.T) {
	m, _ := asyncManager(11, 8)
	p := m.Submit(truthGroup("W", 5))
	const waiters = 8
	results := make([]map[string][]*crowd.Assignment, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			byHIT, err := p.Wait()
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = byHIT
		}()
	}
	wg.Wait()
	if !p.Done() {
		t.Fatal("pending must be resolved after Wait")
	}
	for i := 1; i < waiters; i++ {
		if len(results[i]) != len(results[0]) {
			t.Errorf("waiter %d saw a different result", i)
		}
	}
}

// TestTypedWaitIdempotent pins the quality-control accounting for all
// three result types of Call[T]: however often Wait runs, the result is
// decoded (and fed to the tracker and Stats) exactly once, and a nil call
// resolves to the zero result.
func TestTypedWaitIdempotent(t *testing.T) {
	m, _ := newManager(t, 5)
	title := map[string]sqltypes.Value{"title": sqltypes.NewString("CrowdDB")}
	probe, err := m.ProbeValuesAsync("Talk", []ProbeRequest{{Known: title, Ask: []string{"abstract"}}})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := m.NewTuplesBatchAsync("NotableAttendee", []TupleRequest{{Prefill: title, Want: 2}})
	if err != nil {
		t.Fatal(err)
	}
	compare, err := m.CompareEqualAsync("Same company?", []ComparePair{
		{Left: "UC Berkeley", Right: "Stanford"},
		{Left: "MIT", Right: "mit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWaitIdempotent(t, m, "probe", probe)
	checkWaitIdempotent(t, m, "tuples", tuples)
	checkWaitIdempotent(t, m, "compare", compare)
	checkWaitIdempotent[[]quality.Decision](t, m, "nil", nil)
}

func checkWaitIdempotent[T any](t *testing.T, m *Manager, name string, call *Call[T]) {
	t.Helper()
	first, err := call.Wait()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if call != nil && reflect.ValueOf(first).Len() == 0 {
		t.Fatalf("%s: empty result", name)
	}
	before := m.Stats().Decisions
	again, err := call.WaitCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if after := m.Stats().Decisions; after != before {
		t.Errorf("%s: second Wait must not re-count decisions: %d -> %d", name, before, after)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("%s: repeated Wait must return the identical result", name)
	}
	if call.Abort() {
		t.Errorf("%s: a resolved call cannot be withdrawn", name)
	}
	if tel := call.Telemetry(); tel.Posted != (call != nil) {
		t.Errorf("%s: telemetry %+v", name, tel)
	}
}

func TestSubmitErrorDelivery(t *testing.T) {
	m, _ := asyncManager(1, 8)
	// An empty group fails platform validation at post time; the error
	// must come back through Wait, not wedge the scheduler.
	p := m.Submit(&crowd.HITGroup{Title: "empty", Reward: 2, Assignments: 3})
	if _, err := p.Wait(); err == nil {
		t.Fatal("posting an invalid group must surface an error")
	}
	// The scheduler must still work afterwards.
	if _, err := m.Submit(truthGroup("OK", 2)).Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineExpiresAsyncGroups(t *testing.T) {
	platform := amt.NewDefault(5)
	cfg := DefaultConfig()
	cfg.MaxWait = 2 * time.Minute
	cfg.MaxInFlight = 4
	tracker := quality.NewTracker()
	m := New(platform, nil, tracker, nil, nil, cfg)
	a := m.Submit(truthGroup("A", 2))
	b := m.Submit(truthGroup("B", 2))
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ExpiredGroups != 2 {
		t.Errorf("both groups must expire at the 2-minute deadline: %+v", st)
	}
}

// majorityAnswers reduces a resolved group to its per-HIT majority answer.
func majorityAnswers(byHIT map[string][]*crowd.Assignment) map[string]string {
	out := make(map[string]string, len(byHIT))
	for hitID, as := range byHIT {
		var votes []quality.Vote
		for _, a := range as {
			ans, _ := a.Answers.Get("value")
			votes = append(votes, quality.Vote{WorkerID: a.WorkerID, Answer: ans})
		}
		out[hitID] = quality.Normalize(quality.MajorityVote(votes, 2).Value)
	}
	return out
}

// runAsyncWorkload submits `groups` probe groups and returns every group's
// majority answers plus the final virtual time.
func runAsyncWorkload(seed int64, window, groups int) (map[string]string, time.Duration, error) {
	m, platform := asyncManager(seed, window)
	var pendings []*Pending
	for i := 0; i < groups; i++ {
		pendings = append(pendings, m.Submit(truthGroup(fmt.Sprintf("D%02d", i), 6)))
	}
	answers := make(map[string]string)
	for _, p := range pendings {
		byHIT, err := p.Wait()
		if err != nil {
			return nil, 0, err
		}
		for k, v := range majorityAnswers(byHIT) {
			answers[k] = v
		}
	}
	return answers, platform.Now(), nil
}

// TestAsyncDeterministicPerSeed is the fixed-seed regression: for a fixed
// Submit order, the scheduler must replay the simulation identically run
// after run — including at windows > 1, where several groups interleave
// on one virtual clock.
func TestAsyncDeterministicPerSeed(t *testing.T) {
	for _, window := range []int{1, 8} {
		a1, t1, err := runAsyncWorkload(42, window, 6)
		if err != nil {
			t.Fatal(err)
		}
		a2, t2, err := runAsyncWorkload(42, window, 6)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 {
			t.Errorf("window %d: virtual makespan differs across runs: %v vs %v", window, t1, t2)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("window %d: answers differ across runs", window)
		}
	}
}

// TestAsyncVsSerialDecisions pins the async-vs-serial tolerance. Window 1
// IS the serial task manager (groups post one at a time, exactly like the
// old postAndCollect loop). Wider windows post groups at earlier virtual
// times, so the worker-arrival sample sequence shifts and individual raw
// answers may differ — but majority voting absorbs the noise: decision
// outcomes must agree on at least 90% of HITs, and in practice agree on
// all of them for the default simulator accuracy.
func TestAsyncVsSerialDecisions(t *testing.T) {
	serial, serialTime, err := runAsyncWorkload(42, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	async, asyncTime, err := runAsyncWorkload(42, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(async) {
		t.Fatalf("HIT coverage differs: %d vs %d", len(serial), len(async))
	}
	agree := 0
	for k, v := range serial {
		if async[k] == v {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(serial)); frac < 0.9 {
		t.Errorf("async decisions diverge from serial beyond tolerance: %.0f%% agreement", frac*100)
	}
	// And the async schedule must actually be faster wall-clock.
	if asyncTime >= serialTime {
		t.Errorf("window 8 must beat window 1: %v vs %v", asyncTime, serialTime)
	}
}
