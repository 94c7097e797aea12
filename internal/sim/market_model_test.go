package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/quality"
)

// refClock is the clock the market had before its events became values:
// each event a heap-allocated callback in a container/heap queue. It is the
// naive market's own clock and the reference TestClockMatchesReference
// holds Clock to.
type refClock struct {
	now time.Duration
	pq  refQueue
	seq int64
}

type refEvent struct {
	at  time.Duration
	seq int64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

func (c *refClock) Now() time.Duration { return c.now }

func (c *refClock) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	c.seq++
	heap.Push(&c.pq, &refEvent{at: c.now + delay, seq: c.seq, fn: fn})
}

func (c *refClock) RunFor(d time.Duration) {
	deadline := c.now + d
	for len(c.pq) > 0 && c.pq[0].at <= deadline {
		e := heap.Pop(&c.pq).(*refEvent)
		c.now = e.at
		e.fn()
	}
	c.now = deadline
}

// naiveMarket is the reference the indexed market is checked against. It
// keeps a group's books the obvious way — a HIT's answers are found by
// scanning the group's assignments, an assignment by walking every group, a
// HIT's workers in a map, Results sorted by time — and schedules closures
// on its own refClock. It takes everything random (arrivals, worker choice,
// answers, the worker pool, the money counters) from an inner Market built
// from the same Config, so equal seeds must give equal observations call
// for call. It never deletes a group; a group the market must have
// forgotten is one settled says is.
type naiveMarket struct {
	inner  *Market
	clock  refClock
	groups map[crowd.GroupID]*naiveGroup
}

// Step advances the model's clock by d.
func (n *naiveMarket) Step(d time.Duration) { n.clock.RunFor(d) }

type naiveHIT struct {
	hit       *crowd.HIT
	remaining int
	doneBy    map[string]bool
	early     bool
}

type naiveGroup struct {
	spec        *crowd.HITGroup
	hits        []*naiveHIT
	assignments []*crowd.Assignment
	completed   int
	expired     bool
	pending     int  // claims not yet submitted
	toldNone    bool // Results returned no answers after expiry
}

// settled reports whether the market owes g nothing more: done, no claim
// outstanding that could still land (none can after expiry), and every
// answer approved or rejected, with at least one answer, or none and
// Results has said so after expiry.
func (g *naiveGroup) settled() bool {
	if !(g.expired || g.completed == len(g.hits)) || (g.pending > 0 && !g.expired) {
		return false
	}
	if len(g.assignments) == 0 {
		return g.toldNone
	}
	for _, a := range g.assignments {
		if a.Status == crowd.AssignmentSubmitted {
			return false
		}
	}
	return true
}

// group finds a group the market still holds.
func (n *naiveMarket) group(id crowd.GroupID) (*naiveGroup, error) {
	g, ok := n.groups[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("sim: unknown group %s", id)
	case g.settled():
		return nil, fmt.Errorf("sim: group %s is settled", id)
	}
	return g, nil
}

func newNaiveMarket(cfg Config) *naiveMarket {
	return &naiveMarket{inner: NewMarket(cfg), groups: make(map[crowd.GroupID]*naiveGroup)}
}

func (n *naiveMarket) Post(spec *crowd.HITGroup) (crowd.GroupID, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	n.inner.nextGID++
	id := crowd.GroupID(fmt.Sprintf("G%05d", n.inner.nextGID))
	g := &naiveGroup{spec: spec}
	for _, h := range spec.HITs {
		g.hits = append(g.hits, &naiveHIT{hit: h, remaining: spec.Assignments, doneBy: make(map[string]bool)})
	}
	n.groups[id] = g
	if spec.Expiry > 0 {
		n.clock.Schedule(spec.Expiry, func() { g.expired = true })
	}
	n.scheduleArrival(g)
	return id, nil
}

func (n *naiveMarket) scheduleArrival(g *naiveGroup) {
	if g.expired || g.completed == len(g.hits) {
		return
	}
	rate := n.inner.arrivalRate(g.spec, n.clock.Now())
	gap := time.Duration(n.inner.rng.ExpFloat64() / rate * float64(time.Hour))
	n.clock.Schedule(gap, func() { n.arrive(g) })
}

func (n *naiveMarket) arrive(g *naiveGroup) {
	m := n.inner
	defer n.scheduleArrival(g)
	if g.expired || g.completed == len(g.hits) {
		return
	}
	w := m.pickWorker(g.spec.Venue)
	if w == nil {
		return
	}
	p := 1 / math.Max(m.cfg.MeanHITsPerVisit, 1)
	want := 1
	for m.rng.Float64() > p && want < len(g.hits) {
		want++
	}
	var claimed []*naiveHIT
	for _, hs := range g.hits {
		if len(claimed) >= want {
			break
		}
		if hs.remaining > 0 && !hs.doneBy[w.ID] {
			hs.remaining--
			hs.doneBy[w.ID] = true
			claimed = append(claimed, hs)
		}
	}
	elapsed := time.Duration(0)
	for _, hs := range claimed {
		lat := time.Duration(float64(m.cfg.LatencyMedian) * w.Speed *
			math.Exp(m.rng.NormFloat64()*m.cfg.LatencySigma))
		elapsed += lat
		hs := hs
		g.pending++
		n.clock.Schedule(elapsed, func() { n.submit(g, hs, w) })
	}
}

func (n *naiveMarket) submit(g *naiveGroup, hs *naiveHIT, w *Worker) {
	m := n.inner
	g.pending--
	if g.expired {
		return
	}
	m.nextAID++
	g.assignments = append(g.assignments, &crowd.Assignment{
		ID:          fmt.Sprintf("A%07d", m.nextAID),
		HITID:       hs.hit.ID,
		WorkerID:    w.ID,
		Status:      crowd.AssignmentSubmitted,
		SubmittedAt: n.clock.Now(),
		Answers:     m.answer(hs.hit, w),
	})
	w.Completed++
	m.returned = append(m.returned, w)
	m.totalSubmitted++
	if g.spec.AdaptiveVotes && !hs.early && n.unanimousAboveQuorum(g, hs.hit) {
		hs.early = true
		hs.remaining = 0
	}
	for _, other := range g.hits {
		if !other.early && (other.remaining > 0 || len(n.scanAnswers(g, other.hit.ID)) < g.spec.Assignments) {
			return
		}
	}
	g.completed = len(g.hits)
}

func (n *naiveMarket) scanAnswers(g *naiveGroup, hitID string) []*crowd.Assignment {
	var out []*crowd.Assignment
	for _, a := range g.assignments {
		if a.HITID == hitID {
			out = append(out, a)
		}
	}
	return out
}

func (n *naiveMarket) unanimousAboveQuorum(g *naiveGroup, hit *crowd.HIT) bool {
	as := n.scanAnswers(g, hit.ID)
	if len(as) < quality.MajorityFor(g.spec.Assignments) {
		return false
	}
	for _, field := range hit.InputFields() {
		for _, a := range as {
			ans, ok := a.Answers[field]
			if !ok || quality.IsGarbage(ans) || quality.Normalize(ans) != quality.Normalize(as[0].Answers[field]) {
				return false
			}
		}
	}
	return true
}

func (n *naiveMarket) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	g, err := n.group(id)
	if err != nil {
		return crowd.GroupStatus{}, err
	}
	st := crowd.GroupStatus{Posted: len(g.hits), Expired: g.expired, Submitted: len(g.assignments)}
	perHIT := make(map[string]int)
	for _, a := range g.assignments {
		perHIT[a.HITID]++
	}
	for _, hs := range g.hits {
		if hs.early || perHIT[hs.hit.ID] >= g.spec.Assignments {
			st.Completed++
		}
	}
	return st, nil
}

func (n *naiveMarket) Results(id crowd.GroupID) ([]*crowd.Assignment, error) {
	g, err := n.group(id)
	if err != nil {
		return nil, err
	}
	g.toldNone = g.expired && len(g.assignments) == 0
	out := make([]*crowd.Assignment, len(g.assignments))
	for i, a := range g.assignments {
		cp := *a
		cp.Answers = make(map[string]string, len(a.Answers))
		for k, v := range a.Answers {
			cp.Answers[k] = v
		}
		out[i] = &cp
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubmittedAt < out[j].SubmittedAt })
	return out, nil
}

// find walks every group for the assignment and scans the pool for its
// worker, refusing one that is already settled.
func (n *naiveMarket) find(assignmentID string) (*naiveGroup, *crowd.Assignment, *Worker, error) {
	for _, g := range n.groups {
		for _, a := range g.assignments {
			if a.ID != assignmentID {
				continue
			}
			if a.Status != crowd.AssignmentSubmitted {
				return nil, nil, nil, fmt.Errorf("sim: assignment %s already settled", assignmentID)
			}
			for _, w := range n.inner.workers {
				if w.ID == a.WorkerID {
					return g, a, w, nil
				}
			}
		}
	}
	return nil, nil, nil, fmt.Errorf("sim: unknown assignment %s", assignmentID)
}

func (n *naiveMarket) Approve(assignmentID string, bonus crowd.Cents) (crowd.Cents, error) {
	g, a, w, err := n.find(assignmentID)
	if err != nil {
		return 0, err
	}
	a.Status = crowd.AssignmentApproved
	pay := g.spec.Reward + bonus
	n.inner.totalSpent += pay
	w.Earned += pay
	return pay, nil
}

func (n *naiveMarket) Reject(assignmentID, _ string) error {
	_, a, _, err := n.find(assignmentID)
	if err != nil {
		return err
	}
	a.Status = crowd.AssignmentRejected
	return nil
}

func (n *naiveMarket) Expire(id crowd.GroupID) error {
	g, err := n.group(id)
	if err != nil {
		return err
	}
	g.expired = true
	return nil
}

// modelGroup draws a group of 1-12 HITs: an input field, sometimes a
// second, choice one, with known truth and sometimes a wrong-answer pool.
func modelGroup(rng *rand.Rand, serial int, adaptive bool) *crowd.HITGroup {
	g := &crowd.HITGroup{
		Title:         "model",
		Kind:          crowd.TaskProbeValues,
		Reward:        crowd.Cents(1 + rng.Intn(3)),
		Assignments:   1 + rng.Intn(5),
		AdaptiveVotes: adaptive,
	}
	if rng.Intn(4) == 0 {
		g.Expiry = time.Duration(1+rng.Intn(20)) * time.Hour
	}
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		h := &crowd.HIT{
			ID:   fmt.Sprintf("H%d-%d", serial, i),
			Kind: crowd.TaskProbeValues,
			Fields: []crowd.Field{
				{Name: "shown", Kind: crowd.FieldDisplay, Value: "x"},
				{Name: "value", Kind: crowd.FieldInput},
			},
			Truth: &crowd.SimTruth{Truth: map[string]string{"value": fmt.Sprintf("v%d", i)}, Difficulty: rng.Float64() * 0.5},
		}
		if rng.Intn(2) == 0 {
			h.Fields = append(h.Fields, crowd.Field{Name: "pick", Kind: crowd.FieldChoice, Options: []string{"yes", "no"}})
			h.Truth.Truth["pick"] = "yes"
		}
		if rng.Intn(3) == 0 {
			h.Truth.Wrong = map[string][]string{"value": {"w1", "w2"}}
		}
		g.HITs = append(g.HITs, h)
	}
	return g
}

// The indexed market and the naive reference, driven by the same random
// Post/Step/Results/Approve/Reject/Expire sequence, agree on every answer
// and on Status, Results (order included), TotalSpent and WorkerStats
// after every call, and the market holds exactly the groups the model says
// are not yet settled.
func TestMarketMatchesNaiveModel(t *testing.T) {
	configs := map[string]func(*Config){
		"default": func(*Config) {},
		// Work times of 0-3 ns make most of a visit's submissions land
		// on the same instant: Results' order must not depend on a sort.
		"same-instant": func(c *Config) { c.LatencyMedian = 1 },
	}
	for name, tweak := range configs {
		for _, adaptive := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/adaptive=%v/seed=%d", name, adaptive, seed), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Seed = seed
					cfg.Pool.Size = 60 // small pool: workers return, claims collide
					tweak(&cfg)
					runMarketModel(t, cfg, adaptive, 120)
				})
			}
		}
	}
}

func runMarketModel(t *testing.T, cfg Config, adaptive bool, steps int) {
	got, want := NewMarket(cfg), newNaiveMarket(cfg)
	ops := rand.New(rand.NewSource(cfg.Seed + 1000))
	var groups []crowd.GroupID
	var seen []string // assignment IDs Results has returned, settled or not
	ties, forgot := 0, 0

	sameErr := func(op string, a, b error) {
		t.Helper()
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
			t.Fatalf("%s: error %v, model %v", op, a, b)
		}
	}
	for step := 0; step < steps; step++ {
		var op string
		switch k := ops.Intn(10); {
		case k < 2 || len(groups) == 0:
			spec := modelGroup(ops, step, adaptive)
			id, err := got.Post(spec)
			wid, werr := want.Post(spec)
			op = fmt.Sprintf("Post -> %s", id)
			sameErr(op, err, werr)
			if id != wid {
				t.Fatalf("step %d %s: model posted %s", step, op, wid)
			}
			groups = append(groups, id)
		case k < 5:
			d := time.Duration(1+ops.Intn(180)) * time.Minute
			op = fmt.Sprintf("Step(%v)", d)
			got.Step(d)
			want.Step(d)
		case k < 6:
			id := groups[ops.Intn(len(groups))]
			op = fmt.Sprintf("Expire(%s)", id)
			sameErr(op, got.Expire(id), want.Expire(id))
		case k < 8 && len(seen) > 0:
			aid := seen[ops.Intn(len(seen))]
			bonus := crowd.Cents(ops.Intn(3))
			op = fmt.Sprintf("Approve(%s, %v)", aid, bonus)
			pay, err := got.Approve(aid, bonus)
			wpay, werr := want.Approve(aid, bonus)
			sameErr(op, err, werr)
			if pay != wpay {
				t.Fatalf("step %d %s: paid %v, model %v", step, op, pay, wpay)
			}
		case k < 9:
			// Settle a whole group, as the Task Manager collects one.
			id := groups[ops.Intn(len(groups))]
			op = fmt.Sprintf("SettleAll(%s)", id)
			res, err := got.Results(id)
			_, werr := want.Results(id)
			sameErr(op, err, werr)
			for _, a := range res {
				if a.Status == crowd.AssignmentSubmitted {
					pay, err := got.Approve(a.ID, 0)
					wpay, werr := want.Approve(a.ID, 0)
					sameErr(op, err, werr)
					if pay != wpay {
						t.Fatalf("step %d %s: paid %v, model %v", step, op, pay, wpay)
					}
				}
			}
		case len(seen) > 0:
			aid := seen[ops.Intn(len(seen))]
			if ops.Intn(10) == 0 {
				aid = "A9999999"
			}
			op = fmt.Sprintf("Reject(%s)", aid)
			sameErr(op, got.Reject(aid, "r"), want.Reject(aid, "r"))
		default:
			continue
		}

		for _, id := range groups {
			st, err := got.Status(id)
			wst, werr := want.Status(id)
			sameErr("Status", err, werr)
			if st != wst {
				t.Fatalf("step %d after %s: Status(%s) = %+v, model %+v", step, op, id, st, wst)
			}
			res, err := got.Results(id)
			wres, werr := want.Results(id)
			sameErr("Results", err, werr)
			if !reflect.DeepEqual(res, wres) {
				t.Fatalf("step %d after %s: Results(%s) differ:\n got  %s\n want %s", step, op, id, fmtAssignments(res), fmtAssignments(wres))
			}
			for i, a := range res {
				if i > 0 && a.SubmittedAt == res[i-1].SubmittedAt {
					ties++
				}
			}
		}
		held := 0
		for _, g := range want.groups {
			if !g.settled() {
				held++
			}
		}
		if len(got.groups) != held {
			t.Fatalf("step %d after %s: the market holds %d groups, the model %d unsettled", step, op, len(got.groups), held)
		}
		forgot = max(forgot, len(want.groups)-held)
		if a, b := got.TotalSpent(), want.inner.TotalSpent(); a != b {
			t.Fatalf("step %d after %s: TotalSpent %v, model %v", step, op, a, b)
		}
		if a, b := got.WorkerStats(), want.inner.WorkerStats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d after %s: WorkerStats differ:\n got  %+v\n want %+v", step, op, a, b)
		}
		// Remember a few new assignment IDs to settle later.
		if res, _ := got.Results(groups[ops.Intn(len(groups))]); len(res) > 0 {
			seen = append(seen, res[ops.Intn(len(res))].ID)
		}
	}
	if got.TotalSubmitted() == 0 || got.TotalSpent() == 0 {
		t.Fatalf("run exercised nothing: %d submitted, %v spent", got.TotalSubmitted(), got.TotalSpent())
	}
	if forgot == 0 {
		t.Error("run forgot no group")
	}
	if cfg.LatencyMedian == 1 && ties == 0 {
		t.Error("same-instant run produced no tied submissions")
	}
}

func fmtAssignments(as []*crowd.Assignment) string {
	s := ""
	for _, a := range as {
		s += fmt.Sprintf("%+v ", *a)
	}
	return s
}
