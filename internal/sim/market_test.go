package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"crowddb/internal/crowd"
)

func testGroup(n, assignments int, reward crowd.Cents) *crowd.HITGroup {
	g := &crowd.HITGroup{
		Title:       "test",
		Kind:        crowd.TaskProbeValues,
		Reward:      reward,
		Assignments: assignments,
	}
	for i := 0; i < n; i++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID:   fmt.Sprintf("H%03d", i),
			Kind: crowd.TaskProbeValues,
			Fields: []crowd.Field{
				{Name: "title", Kind: crowd.FieldDisplay, Value: fmt.Sprintf("talk %d", i)},
				{Name: "abstract", Kind: crowd.FieldInput, Label: "Enter the abstract"},
			},
			Truth: &crowd.SimTruth{Truth: map[string]string{"abstract": fmt.Sprintf("abstract-%d", i)}},
		})
	}
	return g
}

// call is the fire function of a clock whose events are callbacks.
func call(fn func()) { fn() }

func TestClockOrdering(t *testing.T) {
	var c Clock[func()]
	var got []int
	c.Schedule(3*time.Second, func() { got = append(got, 3) })
	c.Schedule(1*time.Second, func() { got = append(got, 1) })
	c.Schedule(2*time.Second, func() { got = append(got, 2) })
	c.Schedule(1*time.Second, func() { got = append(got, 11) }) // same time: schedule order
	c.RunFor(10*time.Second, call)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: %v", got)
		}
	}
	if c.Now() != 10*time.Second {
		t.Errorf("Now: %v", c.Now())
	}
}

func TestClockNestedSchedule(t *testing.T) {
	var c Clock[func()]
	fired := false
	c.Schedule(time.Second, func() {
		c.Schedule(time.Second, func() { fired = true })
	})
	c.RunFor(3*time.Second, call)
	if !fired {
		t.Error("nested event in window must fire")
	}
}

func TestClockWindowBoundary(t *testing.T) {
	var c Clock[func()]
	fired := false
	c.Schedule(5*time.Second, func() { fired = true })
	c.RunFor(4*time.Second, call)
	if fired {
		t.Error("future event fired early")
	}
	c.RunFor(time.Second, call)
	if !fired {
		t.Error("due event did not fire")
	}
}

// The value heap fires what the container/heap reference (refClock) fires,
// in the same order: seeded random schedules full of same-instant ties,
// zero and negative delays, and events that schedule more events when they
// fire, run in windows of random length (empty ones included).
func TestClockMatchesReference(t *testing.T) {
	delays := []time.Duration{-time.Second, 0, 0, time.Second, time.Second, 2 * time.Second, 3 * time.Second, 7 * time.Second}
	for seed := int64(1); seed <= 50; seed++ {
		// kids is what event id schedules when it fires: a function of the
		// seed and id alone, so both clocks are asked the same.
		kids := func(id int) []time.Duration {
			if id >= 400 {
				return nil
			}
			r := rand.New(rand.NewSource(seed*100003 + int64(id)))
			out := make([]time.Duration, r.Intn(3))
			for i := range out {
				out[i] = delays[r.Intn(len(delays))]
			}
			return out
		}
		var got Clock[int]
		var gotOrder []int
		gotNext := 0
		var fire func(int)
		fire = func(id int) {
			gotOrder = append(gotOrder, id)
			for _, d := range kids(id) {
				gotNext++
				got.Schedule(d, gotNext)
			}
		}
		var want refClock
		var wantOrder []int
		wantNext := 0
		var event func(int) func()
		event = func(id int) func() {
			return func() {
				wantOrder = append(wantOrder, id)
				for _, d := range kids(id) {
					wantNext++
					want.Schedule(d, event(wantNext))
				}
			}
		}
		ops := rand.New(rand.NewSource(seed))
		for step := 0; step < 40; step++ {
			for i := ops.Intn(4); i > 0; i-- {
				d := delays[ops.Intn(len(delays))]
				gotNext++
				got.Schedule(d, gotNext)
				wantNext++
				want.Schedule(d, event(wantNext))
			}
			w := time.Duration(ops.Intn(5)) * time.Second
			got.RunFor(w, fire)
			want.RunFor(w)
			if got.Now() != want.Now() {
				t.Fatalf("seed %d step %d: Now %v, reference %v", seed, step, got.Now(), want.Now())
			}
		}
		got.RunFor(time.Hour, fire)
		want.RunFor(time.Hour)
		if len(gotOrder) < 100 || !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("seed %d: fired %d events %v\nreference %d %v", seed, len(gotOrder), gotOrder, len(wantOrder), wantOrder)
		}
	}
}

func TestGroupCompletes(t *testing.T) {
	m := NewMarket(DefaultConfig())
	id, err := m.Post(testGroup(20, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	m.Step(48 * time.Hour)
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 20 {
		t.Fatalf("only %d/20 HITs complete after 48h: %+v", st.Completed, st)
	}
	res, _ := m.Results(id)
	if len(res) < 60 {
		t.Errorf("want >= 60 assignments, got %d", len(res))
	}
	// Every assignment answers the input field.
	for _, a := range res {
		if _, ok := a.Answers["abstract"]; !ok {
			t.Fatalf("assignment %s missing answer", a.ID)
		}
	}
}

func TestHigherRewardCompletesFaster(t *testing.T) {
	complete := func(reward crowd.Cents) time.Duration {
		m := NewMarket(DefaultConfig())
		id, _ := m.Post(testGroup(30, 3, reward))
		step := 10 * time.Minute
		for elapsed := time.Duration(0); elapsed < 200*time.Hour; elapsed += step {
			m.Step(step)
			st, _ := m.Status(id)
			if st.Completed == st.Posted {
				return elapsed
			}
		}
		return 200 * time.Hour
	}
	cheap := complete(1)
	rich := complete(4)
	if rich >= cheap {
		t.Errorf("4¢ (%v) should finish before 1¢ (%v)", rich, cheap)
	}
}

func TestWorkerAffinitySkew(t *testing.T) {
	m := NewMarket(DefaultConfig())
	id, _ := m.Post(testGroup(100, 3, 2))
	m.Step(200 * time.Hour)
	st, _ := m.Status(id)
	if st.Completed < 90 {
		t.Fatalf("not enough completion for skew test: %+v", st)
	}
	stats := m.WorkerStats()
	if len(stats) < 5 {
		t.Fatalf("too few distinct workers: %d", len(stats))
	}
	total := 0
	for _, w := range stats {
		total += w.Completed
	}
	top10 := 0
	for i := 0; i < len(stats) && i < 10; i++ {
		top10 += stats[i].Completed
	}
	// The paper's affinity observation: a small set of workers does a
	// disproportionate share of all HITs.
	if float64(top10) < 0.5*float64(total) {
		t.Errorf("no affinity skew: top10=%d of %d (%d workers)", top10, total, len(stats))
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() (int, time.Duration) {
		m := NewMarket(DefaultConfig())
		id, _ := m.Post(testGroup(10, 2, 2))
		m.Step(24 * time.Hour)
		res, _ := m.Results(id)
		if len(res) == 0 {
			return 0, 0
		}
		return len(res), res[len(res)-1].SubmittedAt
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Errorf("same seed must reproduce: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	m1 := NewMarket(cfg)
	cfg.Seed = 99
	m2 := NewMarket(cfg)
	id1, _ := m1.Post(testGroup(10, 2, 2))
	id2, _ := m2.Post(testGroup(10, 2, 2))
	m1.Step(24 * time.Hour)
	m2.Step(24 * time.Hour)
	r1, _ := m1.Results(id1)
	r2, _ := m2.Results(id2)
	if len(r1) > 0 && len(r2) > 0 && r1[0].SubmittedAt == r2[0].SubmittedAt && r1[0].WorkerID == r2[0].WorkerID {
		t.Error("different seeds produced identical first submissions")
	}
}

func TestExpiryStopsAnswers(t *testing.T) {
	g := testGroup(50, 5, 1)
	g.Expiry = 30 * time.Minute
	m := NewMarket(DefaultConfig())
	id, _ := m.Post(g)
	m.Step(30 * time.Minute)
	res1, _ := m.Results(id)
	m.Step(100 * time.Hour)
	res2, _ := m.Results(id)
	if len(res2) != len(res1) {
		t.Errorf("answers after expiry: %d -> %d", len(res1), len(res2))
	}
	st, _ := m.Status(id)
	if !st.Expired || !st.Done() {
		t.Errorf("expired group must report done: %+v", st)
	}
}

func TestNoWorkerRepeatsAHIT(t *testing.T) {
	m := NewMarket(DefaultConfig())
	id, _ := m.Post(testGroup(5, 5, 3))
	m.Step(100 * time.Hour)
	res, _ := m.Results(id)
	seen := map[string]bool{}
	for _, a := range res {
		key := a.HITID + "/" + a.WorkerID
		if seen[key] {
			t.Fatalf("worker %s answered HIT %s twice", a.WorkerID, a.HITID)
		}
		seen[key] = true
	}
}

// A group's books are sized by the replication a HIT can reach: no more
// than the pool's workers can claim it, however many assignments the group
// asks for.
func TestReplicationBeyondThePool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pool.Size = 5
	m := NewMarket(cfg)
	id, err := m.Post(testGroup(3, math.MaxInt, 2))
	if err != nil {
		t.Fatal(err)
	}
	m.Step(200 * time.Hour)
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 || st.Submitted != 3*cfg.Pool.Size {
		t.Errorf("status %+v, want every worker on every HIT and no HIT complete", st)
	}
}

func TestApprovePaysWorker(t *testing.T) {
	m := NewMarket(DefaultConfig())
	id, _ := m.Post(testGroup(5, 1, 3))
	m.Step(48 * time.Hour)
	res, _ := m.Results(id)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	pay, err := m.Approve(res[0].ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pay != 5 { // 3 reward + 2 bonus
		t.Errorf("pay: %v", pay)
	}
	if _, err := m.Approve(res[0].ID, 0); err == nil {
		t.Error("double approve must fail")
	}
	if m.TotalSpent() != 5 { // 3 reward + 2 bonus
		t.Errorf("spent: %v", m.TotalSpent())
	}
	if err := m.Reject("A9999999", "x"); err == nil {
		t.Error("reject unknown must fail")
	}
}

func TestGeoFenceFiltersWorkers(t *testing.T) {
	cfg := DefaultConfig()
	// Scatter workers over a wide region; fence a small corner.
	cfg.Pool.Region = &Region{LatMin: 47.0, LatMax: 48.0, LonMin: -123.0, LonMax: -122.0}
	m := NewMarket(cfg)
	g := testGroup(10, 2, 3)
	g.Venue = &crowd.GeoFence{Lat: 47.6, Lon: -122.3, RadiusKM: 5}
	id, _ := m.Post(g)
	m.Step(300 * time.Hour)
	res, _ := m.Results(id)
	if len(res) == 0 {
		t.Fatal("fenced group got no answers")
	}
	for _, a := range res {
		w := m.subs[a.ID].w
		if !w.InFence(g.Venue) {
			t.Fatalf("worker %s outside fence answered", w.ID)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	m := NewMarket(DefaultConfig())
	if _, err := m.Post(&crowd.HITGroup{Title: "empty", Reward: 1, Assignments: 1}); err == nil {
		t.Error("empty group must fail")
	}
	g := testGroup(1, 0, 1)
	if _, err := m.Post(g); err == nil {
		t.Error("zero assignments must fail")
	}
	g = testGroup(1, 1, 0)
	if _, err := m.Post(g); err == nil {
		t.Error("zero reward must fail")
	}
	if _, err := m.Status("G99999"); err == nil {
		t.Error("unknown group status must fail")
	}
	if _, err := m.Results("G99999"); err == nil {
		t.Error("unknown group results must fail")
	}
	if err := m.Expire("G99999"); err == nil {
		t.Error("unknown group expire must fail")
	}
}

func TestAnswerQualityTracksAccuracy(t *testing.T) {
	// With a high-accuracy, no-spammer population, most answers match truth.
	cfg := DefaultConfig()
	cfg.Pool.SpammerFrac = 0
	cfg.Pool.AccuracyMean = 0.95
	cfg.Pool.AccuracySpread = 0.02
	cfg.Pool.GarbageRate = 0
	cfg.FormatNoiseRate = 0
	m := NewMarket(cfg)
	id, _ := m.Post(testGroup(40, 3, 2))
	m.Step(100 * time.Hour)
	res, _ := m.Results(id)
	correct := 0
	for _, a := range res {
		var want string
		fmt.Sscanf(a.HITID, "H%s", &want)
		if a.Answers["abstract"] == "abstract-"+trimLeadingZeros(want) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(res)); frac < 0.85 {
		t.Errorf("accuracy too low for clean population: %.2f (%d/%d)", frac, correct, len(res))
	}
}

func trimLeadingZeros(s string) string {
	for len(s) > 1 && s[0] == '0' {
		s = s[1:]
	}
	return s
}

// Adaptive vote sizing: once a HIT's early answers are unanimous at the
// quorum floor, the market stops soliciting the remaining assignments —
// the group completes with fewer paid answers than fixed replication,
// and correctness stays comparable.
func TestAdaptiveVotesFewerAssignments(t *testing.T) {
	correctFor := func(adaptive bool) (answers, correct int) {
		cfg := DefaultConfig()
		cfg.Seed = 42
		m := NewMarket(cfg)
		g := testGroup(40, 3, 2)
		g.AdaptiveVotes = adaptive
		id, err := m.Post(g)
		if err != nil {
			t.Fatal(err)
		}
		m.Step(200 * time.Hour)
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != 40 {
			t.Fatalf("adaptive=%v: only %d/40 HITs complete: %+v", adaptive, st.Completed, st)
		}
		res, _ := m.Results(id)
		byHIT := map[string]map[string]int{}
		for _, a := range res {
			if byHIT[a.HITID] == nil {
				byHIT[a.HITID] = map[string]int{}
			}
			byHIT[a.HITID][a.Answers["abstract"]]++
		}
		for i := 0; i < 40; i++ {
			hit := fmt.Sprintf("H%03d", i)
			truth := fmt.Sprintf("abstract-%d", i)
			best, bestN := "", 0
			for ans, n := range byHIT[hit] {
				if n > bestN || (n == bestN && ans < best) {
					best, bestN = ans, n
				}
			}
			if best == truth {
				correct++
			}
		}
		return len(res), correct
	}
	fixedAnswers, fixedCorrect := correctFor(false)
	adaptiveAnswers, adaptiveCorrect := correctFor(true)
	if adaptiveAnswers >= fixedAnswers {
		t.Errorf("adaptive must solicit fewer assignments: %d vs %d", adaptiveAnswers, fixedAnswers)
	}
	if fixedCorrect-adaptiveCorrect > 2 {
		t.Errorf("adaptive correctness dropped too far: %d vs %d of 40", adaptiveCorrect, fixedCorrect)
	}
}

// An assignment is settled once: Approve and Reject succeed only from
// AssignmentSubmitted, so a second call of either kind changes neither
// the money nor the status. Once the last assignment of a done group is
// settled the market forgets the group: Status and Results say it is
// settled, and settling any of its assignments again still fails.
func TestMarketSettlesOnce(t *testing.T) {
	const reward, bonus = 3, 2
	approve := func(m *Market, id string) error { _, err := m.Approve(id, bonus); return err }
	reject := func(m *Market, id string) error { return m.Reject(id, "wrong") }
	cases := []struct {
		name          string
		first, second func(*Market, string) error
		spent         crowd.Cents
		status        crowd.AssignmentStatus
	}{
		{"approve then approve", approve, approve, reward + bonus, crowd.AssignmentApproved},
		{"approve then reject", approve, reject, reward + bonus, crowd.AssignmentApproved},
		{"reject then approve", reject, approve, 0, crowd.AssignmentRejected},
		{"reject then reject", reject, reject, 0, crowd.AssignmentRejected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMarket(DefaultConfig())
			id, err := m.Post(testGroup(1, 2, reward))
			if err != nil {
				t.Fatal(err)
			}
			m.Step(48 * time.Hour)
			res, err := m.Results(id)
			if err != nil || len(res) != 2 {
				t.Fatalf("results: %v, %d assignments", err, len(res))
			}
			if err := tc.first(m, res[0].ID); err != nil {
				t.Fatalf("first settlement: %v", err)
			}
			if err := tc.second(m, res[0].ID); err == nil {
				t.Error("second settlement must fail")
			}
			if got := m.TotalSpent(); got != tc.spent {
				t.Errorf("TotalSpent = %v, want %v", got, tc.spent)
			}
			for _, w := range m.WorkerStats() {
				if want := map[bool]crowd.Cents{true: tc.spent}[w.ID == res[0].WorkerID]; w.Earned != want {
					t.Errorf("worker %s earned %v, want %v", w.ID, w.Earned, want)
				}
			}
			after, _ := m.Results(id)
			if after[0].Status != tc.status || after[1].Status != crowd.AssignmentSubmitted {
				t.Errorf("statuses = %v, %v, want %v, %v", after[0].Status, after[1].Status, tc.status, crowd.AssignmentSubmitted)
			}

			// The last settlement forgets the group.
			if err := reject(m, res[1].ID); err != nil {
				t.Fatalf("settling the other assignment: %v", err)
			}
			want := fmt.Sprintf("sim: group %s is settled", id)
			if _, err := m.Status(id); fmt.Sprint(err) != want {
				t.Errorf("Status of a settled group: %v, want %q", err, want)
			}
			if _, err := m.Results(id); fmt.Sprint(err) != want {
				t.Errorf("Results of a settled group: %v, want %q", err, want)
			}
			for _, a := range res {
				for name, settle := range map[string]func(*Market, string) error{"approve": approve, "reject": reject} {
					want := fmt.Sprintf("sim: assignment %s already settled", a.ID)
					if err := settle(m, a.ID); fmt.Sprint(err) != want {
						t.Errorf("%s %s of a forgotten group: %v, want %q", name, a.ID, err, want)
					}
				}
			}
			if err := m.Reject("A9999999", "r"); fmt.Sprint(err) != "sim: unknown assignment A9999999" {
				t.Errorf("an assignment never issued: %v", err)
			}
			if m.TotalSpent() != tc.spent || len(m.groups) != 0 || len(m.subs) != 0 {
				t.Errorf("after forgetting: spent %v, %d groups, %d assignments held", m.TotalSpent(), len(m.groups), len(m.subs))
			}
		})
	}
}

// settleGroup runs one group through its whole life the way the Task
// Manager does: post, step and poll until done, fetch, approve each.
func settleGroup(tb testing.TB, m *Market, spec *crowd.HITGroup) {
	id, err := m.Post(spec)
	if err != nil {
		tb.Fatal(err)
	}
	for {
		st, err := m.Status(id)
		if err != nil {
			tb.Fatal(err)
		}
		if st.Done() {
			break
		}
		m.Step(time.Minute)
	}
	res, err := m.Results(id)
	if err != nil {
		tb.Fatal(err)
	}
	for _, a := range res {
		if _, err := m.Approve(a.ID, 0); err != nil {
			tb.Fatal(err)
		}
	}
}

// What a group costs the market must not depend on how many groups were
// settled before it. Gated as a ratio of medians within one run: wall
// time on this box says nothing, the shape does.
func TestMarketCostFlatInHistory(t *testing.T) {
	const reps, history = 25, 2000
	median := func(run func() time.Duration) time.Duration {
		ds := make([]time.Duration, reps)
		for i := range ds {
			ds[i] = run()
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[reps/2]
	}
	timed := func(m *Market) time.Duration {
		spec := testGroup(8, 3, 2)
		start := time.Now()
		settleGroup(t, m, spec)
		return time.Since(start)
	}
	fresh := median(func() time.Duration { return timed(NewMarket(DefaultConfig())) })
	old := NewMarket(DefaultConfig())
	for i := 0; i < history; i++ {
		settleGroup(t, old, testGroup(8, 3, 2))
	}
	late := median(func() time.Duration { return timed(old) })
	t.Logf("one 8x3 group: fresh market %v, after %d groups %v (%.1fx)", fresh, history, late, float64(late)/float64(fresh))
	if late > 3*fresh {
		t.Errorf("a group after %d settled groups costs %v, %.1fx a fresh market's %v (want <= 3x)",
			history, late, float64(late)/float64(fresh), fresh)
	}
}

// TestMarketForgetsSettledGroups: a group the Task Manager has collected
// and paid for leaves the market with its assignments, an expiry timer
// still pending included; a group nobody answered stays for its poster to
// read; a group closed early keeps its books until its last claimed
// assignment is in and settled.
func TestMarketForgetsSettledGroups(t *testing.T) {
	m := NewMarket(DefaultConfig())
	for i := 0; i < 50; i++ {
		spec := testGroup(4, 3, 2)
		spec.Expiry = 72 * time.Hour
		settleGroup(t, m, spec)
	}
	if len(m.groups) != 0 || len(m.subs) != 0 {
		t.Errorf("after settling 50 groups the market holds %d groups, %d assignments", len(m.groups), len(m.subs))
	}

	unanswered, err := m.Post(testGroup(2, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Expire(unanswered); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Hour)
	if st, err := m.Status(unanswered); err != nil || !st.Done() || st.Submitted != 0 {
		t.Errorf("a group nobody answered: %+v, %v", st, err)
	}

	// Adaptive votes close a HIT on unanimity while other claims on it are
	// still out: the group is complete before its last answer arrives.
	cfg := DefaultConfig()
	cfg.Pool.SpammerFrac, cfg.Pool.GarbageRate, cfg.FormatNoiseRate = 0, 0, 0
	cfg.Pool.AccuracyMean, cfg.Pool.AccuracySpread = 1, 0
	cfg.LatencyMedian = 3 * time.Hour // claims stay out long after the first answers
	m = NewMarket(cfg)
	spec := testGroup(3, 5, 2)
	spec.AdaptiveVotes = true
	id, err := m.Post(spec)
	if err != nil {
		t.Fatal(err)
	}
	var g *group
	for g = m.groups[id]; g.completed < len(g.hits); {
		m.Step(time.Minute)
	}
	if g.pending == 0 {
		t.Fatal("no claim was outstanding when the group completed")
	}
	for g.pending > 0 {
		res, _ := m.Results(id)
		for _, a := range res {
			if a.Status == crowd.AssignmentSubmitted {
				if _, err := m.Approve(a.ID, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, held := m.groups[id]; !held {
			t.Fatalf("forgotten with %d claimed assignments still to come", g.pending)
		}
		m.Step(time.Minute)
	}
	res, err := m.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res {
		if a.Status == crowd.AssignmentSubmitted {
			if _, err := m.Approve(a.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Status(id); err == nil {
		t.Error("the group is still held after its last assignment was settled")
	}
}
