package taskmgr

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/ui"
	"crowddb/internal/wrm"
)

// testOracle answers probes with "<title>-abstract", new tuples with
// sequential names, and comparisons with a fixed winner.
type testOracle struct{}

func (testOracle) ProbeTruth(table string, known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
	truth := make(map[string]string)
	for _, col := range ask {
		truth[col] = strings.ToLower(known["title"].Str()) + "-" + col
	}
	return &crowd.SimTruth{Truth: truth}
}

func (testOracle) NewTupleTruth(table string, prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
	return &crowd.SimTruth{Truth: map[string]string{
		"name":  []string{"Mike Franklin", "Donald Kossmann", "Tim Kraska", "Sam Madden"}[i%4],
		"title": prefill["title"].Str(),
	}}
}

func (testOracle) CompareTruth(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
	if kind == crowd.TaskCompareEqual {
		ans := "no"
		if quality.Normalize(left) == quality.Normalize(right) {
			ans = "yes"
		}
		return &crowd.SimTruth{Truth: map[string]string{ui.AnswerField: ans}, Difficulty: 0.1}
	}
	// Order: lexicographically smaller item wins.
	win := left
	if right < left {
		win = right
	}
	return &crowd.SimTruth{Truth: map[string]string{ui.AnswerField: win}, Difficulty: 0.2}
}

func newManager(t *testing.T, seed int64) (*Manager, *amt.Platform) {
	t.Helper()
	cat := catalog.New()
	if err := cat.CreateTable(&catalog.Table{
		Name: "Talk",
		Columns: []catalog.Column{
			{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "abstract", Type: sqltypes.TypeString, Crowd: true},
			{Name: "nb_attendees", Type: sqltypes.TypeInt, Crowd: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateTable(&catalog.Table{
		Name:  "NotableAttendee",
		Crowd: true,
		Columns: []catalog.Column{
			{Name: "name", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "title", Type: sqltypes.TypeString},
		},
		ForeignKeys: []catalog.ForeignKey{{Columns: []string{"title"}, RefTable: "Talk", RefColumns: []string{"title"}}},
	}); err != nil {
		t.Fatal(err)
	}
	uim := ui.NewManager(cat)
	uim.GenerateAll()
	tracker := quality.NewTracker()
	platform := amt.NewDefault(seed)
	payer := wrm.New(wrm.DefaultPolicy(), tracker)
	return New(platform, uim, tracker, payer, testOracle{}, DefaultConfig()), platform
}

// wait collects an async call in one expression: the blocking form of
// every taskmgr request.
func wait[T any](c *Call[T], err error) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	return c.Wait()
}

func TestProbeValues(t *testing.T) {
	m, _ := newManager(t, 5)
	reqs := []ProbeRequest{
		{Known: map[string]sqltypes.Value{"title": sqltypes.NewString("CrowdDB")}, Ask: []string{"abstract"}},
		{Known: map[string]sqltypes.Value{"title": sqltypes.NewString("Qurk")}, Ask: []string{"abstract", "nb_attendees"}},
	}
	res, err := wait(m.ProbeValuesAsync("Talk", reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results: %d", len(res))
	}
	d := res[0].Decisions["abstract"]
	if quality.Normalize(d.Value) != "crowddb-abstract" {
		t.Errorf("probe answer: %+v", d)
	}
	if !d.Quorum {
		t.Errorf("majority expected with default accuracy: %+v", d)
	}
	if _, ok := res[1].Decisions["nb_attendees"]; !ok {
		t.Error("second ask column missing")
	}
	st := m.Stats()
	if st.GroupsPosted != 1 || st.HITsPosted != 2 {
		t.Errorf("stats: %+v", st)
	}
	if st.AssignmentsIn < 6 {
		t.Errorf("expected >= 6 assignments (3x replication): %+v", st)
	}
	if st.ApprovedSpend == 0 {
		t.Error("WRM settlement must pay workers")
	}
}

func TestNewTuples(t *testing.T) {
	m, _ := newManager(t, 5)
	batches, err := wait(m.NewTuplesBatchAsync("NotableAttendee", []TupleRequest{
		{Prefill: map[string]sqltypes.Value{"title": sqltypes.NewString("CrowdDB")}, Want: 4},
	}))
	if err != nil {
		t.Fatal(err)
	}
	tuples := batches[0]
	if len(tuples) < 3 {
		t.Fatalf("want >= 3 usable candidates, got %d", len(tuples))
	}
	for _, tup := range tuples {
		if tup["title"] == "" || tup["name"] == "" {
			t.Errorf("incomplete candidate: %v", tup)
		}
	}
}

func TestCompareEqual(t *testing.T) {
	m, _ := newManager(t, 5)
	ds, err := wait(m.CompareEqualAsync("Same company?", []ComparePair{
		{Left: "UC Berkeley", Right: "uc berkeley"},
		{Left: "UC Berkeley", Right: "Stanford"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if quality.Normalize(ds[0].Value) != "yes" {
		t.Errorf("identical values: %+v", ds[0])
	}
	if quality.Normalize(ds[1].Value) != "no" {
		t.Errorf("different values: %+v", ds[1])
	}
}

func TestCompareOrder(t *testing.T) {
	m, _ := newManager(t, 5)
	ds, err := wait(m.CompareOrderAsync("Which talk did you like better", []ComparePair{
		{Left: "BTalk", Right: "ATalk"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].Value != "ATalk" {
		t.Errorf("winner: %+v", ds[0])
	}
}

func TestDeadlineExpiresGroup(t *testing.T) {
	m, p := newManager(t, 5)
	// Rebuild with a tiny deadline: almost no answers will arrive.
	cfg := DefaultConfig()
	cfg.MaxWait = 2 * time.Minute
	m = New(p, m.ui, m.tracker, nil, testOracle{}, cfg)
	res, err := wait(m.ProbeValuesAsync("Talk", []ProbeRequest{
		{Known: map[string]sqltypes.Value{"title": sqltypes.NewString("X")}, Ask: []string{"abstract"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatal("must still return a (possibly empty) result per request")
	}
	st := m.Stats()
	if st.ExpiredGroups != 1 {
		t.Errorf("deadline must expire the group: %+v", st)
	}
}

func TestEmptyBatches(t *testing.T) {
	m, _ := newManager(t, 5)
	if res, err := wait(m.ProbeValuesAsync("Talk", nil)); err != nil || res != nil {
		t.Error("empty probe batch must be a no-op")
	}
	if res, err := wait(m.NewTuplesBatchAsync("NotableAttendee", []TupleRequest{{Want: 0}})); err != nil || res != nil {
		t.Error("zero new tuples must be a no-op")
	}
	if res, err := wait(m.CompareEqualAsync("q", nil)); err != nil || res != nil {
		t.Error("empty compare must be a no-op")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	m := New(amt.NewDefault(1), nil, quality.NewTracker(), nil, nil, Config{})
	cfg := m.Config()
	if cfg.Assignments != 3 || cfg.Reward != 2 || cfg.MaxWait <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if m.Platform().Name() != "amt" {
		t.Error("platform accessor")
	}
}

// TestLatencyStatsAllocsNothing: the engine reads the percentiles on
// every compile. With a full ring they cost no allocation, and they equal
// the heap copy and sort.Slice they replaced, over a seeded ring that has
// wrapped.
func TestLatencyStatsAllocsNothing(t *testing.T) {
	m := New(amt.NewDefault(1), nil, quality.NewTracker(), nil, nil, Config{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3*latencyWindow+5; i++ {
		m.recordLatency(time.Duration(rng.Int63n(int64(time.Hour))))
	}
	old := append([]time.Duration(nil), m.latSamples...)
	sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
	oldAt := func(q float64) time.Duration { return old[int(q*float64(len(old)-1))] }
	p50, p90, n := m.LatencyStats()
	if p50 != oldAt(0.5) || p90 != oldAt(0.9) || n != 3*latencyWindow+5 {
		t.Errorf("p50=%v p90=%v n=%d, want %v %v %d", p50, p90, n, oldAt(0.5), oldAt(0.9), 3*latencyWindow+5)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.LatencyStats() }); allocs != 0 {
		t.Errorf("LatencyStats allocates %.0f times, want 0", allocs)
	}
}

// TestObservedGroupLatency: resolved groups feed the round-trip sample
// ring; percentiles are ordered and surfaced through Stats.
func TestObservedGroupLatency(t *testing.T) {
	m, _ := newManager(t, 99)
	if _, _, n := m.LatencyStats(); n != 0 {
		t.Fatalf("no samples expected before any group resolves, got %d", n)
	}
	for i := 0; i < 3; i++ {
		if _, err := wait(m.CompareEqualAsync("same company?", []ComparePair{
			{Left: "IBM", Right: "International Business Machines"},
		})); err != nil {
			t.Fatal(err)
		}
	}
	p50, p90, n := m.LatencyStats()
	if n != 3 {
		t.Errorf("3 resolved groups must yield 3 samples, got %d", n)
	}
	if p50 <= 0 || p90 < p50 {
		t.Errorf("percentiles must be positive and ordered: p50=%v p90=%v", p50, p90)
	}
	st := m.Stats()
	if st.GroupLatencyP50 != p50 || st.GroupLatencyP90 != p90 || st.LatencySamples != n {
		t.Errorf("Stats must surface the latency numbers: %+v", st)
	}
}
