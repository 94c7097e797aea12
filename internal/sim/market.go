package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/quality"
)

// Config tunes the marketplace. Defaults (see DefaultConfig) are calibrated
// so the curves match the *shapes* of the paper's AMT micro-benchmarks:
// higher pay → faster completion with diminishing returns; bigger groups →
// higher throughput but later last answer; a few workers dominate.
type Config struct {
	Seed int64
	Pool WorkerPoolConfig

	// BaseArrivalPerHour is the worker arrival rate for a group paying
	// RefReward. Actual rate scales by (reward/RefReward)^PriceElasticity
	// and a mild group-size boost.
	BaseArrivalPerHour float64
	RefReward          crowd.Cents
	PriceElasticity    float64

	// MeanHITsPerVisit is the mean of the geometric number of HITs one
	// arriving worker claims.
	MeanHITsPerVisit float64

	// LatencyMedian is the median virtual time a worker spends per
	// assignment; per-assignment latency is log-normal with LatencySigma.
	LatencyMedian time.Duration
	LatencySigma  float64

	// AffinityProb is the chance an arrival is a returning worker chosen by
	// preferential attachment rather than a fresh uniform draw.
	AffinityProb float64

	// FormatNoiseRate is the chance a correct answer arrives with case or
	// whitespace damage (exercises answer cleansing).
	FormatNoiseRate float64

	// DiurnalAmplitude in [0,1) modulates worker arrival with the time of
	// (virtual) day — the paper observed AMT responsiveness varies by time
	// of day. 0 disables; at A the rate swings between (1-A) and (1+A) of
	// its base, peaking at virtual noon.
	DiurnalAmplitude float64
}

// DefaultConfig returns an AMT-like marketplace.
func DefaultConfig() Config {
	return Config{
		Seed: 1,
		Pool: WorkerPoolConfig{
			Size:            2000,
			SpammerFrac:     0.12,
			SpammerAccuracy: 0.55,
			AccuracyMean:    0.88,
			AccuracySpread:  0.08,
			GarbageRate:     0.03,
		},
		BaseArrivalPerHour: 6,
		RefReward:          1, // $0.01
		PriceElasticity:    0.9,
		MeanHITsPerVisit:   8,
		LatencyMedian:      45 * time.Second,
		LatencySigma:       0.8,
		AffinityProb:       0.65,
		FormatNoiseRate:    0.25,
	}
}

// hitState tracks one HIT's outstanding replication and the answers it
// has received.
type hitState struct {
	hit       *crowd.HIT
	remaining int // assignments still to be claimed
	want      int // answers that complete the HIT: Assignments, or as many as were posted with it
	// claimedBy holds the at most Assignments workers who took the HIT: a
	// worker may not repeat one. It and answers are sliced from arrays
	// sized when the group opened (open), so neither grows.
	claimedBy []*Worker
	answers   []*crowd.Assignment // in submission order, at most want
	// early marks a HIT closed below full replication: its answers were
	// unanimous above the quorum floor and the group opted into adaptive
	// vote sizing, so no further assignments are solicited.
	early bool
}

// satisfied reports whether the HIT needs no further answers: closed early
// on unanimity, or fully claimed and fully answered.
func (hs *hitState) satisfied() bool {
	return hs.early || (hs.remaining <= 0 && len(hs.answers) >= hs.want)
}

type group struct {
	id          crowd.GroupID
	spec        *crowd.HITGroup
	hits        []hitState
	assignments []*crowd.Assignment // in submission order, which is time order
	// drawn and drawnAnswers are the arrays the workers' assignments and
	// their answers are taken from, in turn (submit); open sizes them.
	drawn        []crowd.Assignment
	drawnAnswers []crowd.Answer
	completed    int // HITs that are satisfied
	expired      bool
	answered     bool // posted with its answers (PostAnswered): no worker arrives, no HIT closes early
	pending      int  // claimed or posted assignments not yet landed
	unsettled    int  // submitted assignments neither approved nor rejected
}

// IDs are sequential: an ID the market issued but no longer holds belongs
// to a group it has forgotten (see forget), or to one of its assignments.
var (
	groupIDs      = idFormat{'G', 5} // G00001
	assignmentIDs = idFormat{'A', 7} // A0000001
)

// idFormat spells a sequence's n-th ID: a prefix letter, then n in at
// least width digits, zero-padded (fmt's "%0*d").
type idFormat struct {
	prefix byte
	width  int
}

func (f idFormat) format(n int) string {
	var b [24]byte
	i := len(b)
	for n > 0 || len(b)-i < f.width {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	i--
	b[i] = f.prefix
	return string(b[i:])
}

// issued reports whether id is f's n-th ID for some n in 1..last.
func (f idFormat) issued(id string, last int) bool {
	n, err := strconv.Atoi(id[min(1, len(id)):])
	return err == nil && n >= 1 && n <= last && f.format(n) == id
}

// submission is what the market knows about one submitted assignment: every
// call that names an assignment finds its group and worker here, so its
// cost does not grow with the number of groups ever posted.
type submission struct {
	a *crowd.Assignment
	g *group
	w *Worker
}

// Market is the simulated labor marketplace every simulated platform is
// built on: the human ones post groups for its workers to answer, the model
// tier posts groups it has answered itself (PostAnswered).
// All methods are safe for concurrent use; the discrete-event clock runs
// under the market mutex. It keeps a group only while it may still be
// asked about it (see forget), so its memory follows the groups in flight,
// not every group ever posted.
type Market struct {
	mu       sync.Mutex
	cfg      Config
	clock    Clock[event]
	rng      *rand.Rand
	workers  []*Worker
	returned []*Worker // workers who have completed ≥1 assignment, with repeats (preferential attachment)
	blocked  map[string]bool
	groups   map[crowd.GroupID]*group
	subs     map[string]submission // by assignment ID
	nextGID  int
	nextAID  int

	totalSubmitted int
	totalSpent     crowd.Cents
}

// NewMarket builds a marketplace with its worker population.
func NewMarket(cfg Config) *Market {
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Market{
		cfg:     cfg,
		rng:     rng,
		workers: NewWorkerPool(cfg.Pool, rng),
		blocked: make(map[string]bool),
		groups:  make(map[crowd.GroupID]*group),
		subs:    make(map[string]submission),
	}
}

// Block bars a worker from future assignments (the WRM escalation beyond
// rejecting individual answers). Already-claimed work still completes.
func (m *Market) Block(workerID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocked[workerID] = true
}

// Blocked reports how many workers are blocked.
func (m *Market) Blocked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blocked)
}

// Now returns the market's virtual time.
func (m *Market) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock.Now()
}

// Step advances the simulation by d of virtual time.
func (m *Market) Step(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock.RunFor(d, m.fire)
}

// eventKind is what a market event does when it fires.
type eventKind uint8

const (
	evArrive eventKind = iota // a worker arrives for group gid
	evExpire                  // group gid expires
	evSubmit                  // worker w submits the HIT hs it claimed
	evLand                    // posted answer a for hs lands
)

// event is one scheduled happening of the market. An arrival or an expiry
// names its group by ID: it must not keep a forgotten group alive until it
// fires. A claim or a posted answer holds its group, which counts it as
// pending.
type event struct {
	kind eventKind
	gid  crowd.GroupID
	g    *group
	hs   *hitState
	w    *Worker
	a    *crowd.Assignment
}

// fire runs one due event; the clock calls it inside Step.
func (m *Market) fire(e event) {
	switch e.kind {
	case evArrive:
		if g, ok := m.groups[e.gid]; ok {
			m.arrive(g)
		}
	case evExpire:
		if g, ok := m.groups[e.gid]; ok {
			m.expire(g)
		}
	case evSubmit:
		m.submit(e.g, e.hs, e.w)
	case evLand:
		m.land(e.g, e.hs, e.a, nil)
	}
}

// Post publishes a HIT group and starts its worker-arrival process.
func (m *Market) Post(spec *crowd.HITGroup) (crowd.GroupID, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.open(spec, spec.Assignments, nil)
	m.scheduleArrival(g)
	return g.id, nil
}

// Answer is one assignment made before its group was posted: it lands
// Latency after PostAnswered, which stamps its ID, HITID, Status and
// SubmittedAt then.
type Answer struct {
	HIT     int // index into the group's HITs
	Latency time.Duration
	*crowd.Assignment
}

// PostAnswered publishes a HIT group with its answers already made (the
// model tier's), at least one for each HIT: each lands at its latency
// through the market's clock, no worker arrives, and a HIT completes once
// the answers posted for it have landed. The answerer chose how many to
// make, so no HIT closes early on adaptive votes.
func (m *Market) PostAnswered(spec *crowd.HITGroup, answers []Answer) (crowd.GroupID, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.open(spec, 0, answers)
	g.answered, g.pending = true, len(answers)
	for _, a := range answers {
		m.clock.Schedule(a.Latency, event{kind: evLand, g: g, hs: &g.hits[a.HIT], a: a.Assignment})
	}
	return g.id, nil
}

// open registers a validated group whose HITs each await claims more
// answers, plus those posted with it, and schedules its expiry. A HIT's
// workers and answers, the group's assignments, and the assignments its
// workers submit (one answer per input field each) are sliced from arrays
// sized here: a HIT is claimed at most claims times, by distinct workers,
// and answered once per claim or posted answer.
func (m *Market) open(spec *crowd.HITGroup, claims int, answers []Answer) *group {
	m.nextGID++
	g := &group{
		id:   crowd.GroupID(groupIDs.format(m.nextGID)),
		spec: spec,
		hits: make([]hitState, len(spec.HITs)),
	}
	for i, h := range spec.HITs {
		g.hits[i] = hitState{hit: h, remaining: claims, want: claims}
	}
	for _, a := range answers {
		g.hits[a.HIT].want++
	}
	perHIT := min(claims, len(m.workers))
	total := len(spec.HITs)*perHIT + len(answers)
	workers := make([]*Worker, len(spec.HITs)*perHIT)
	landed := make([]*crowd.Assignment, 2*total)
	off, inputs := 0, 0
	for i := range g.hits {
		hs := &g.hits[i]
		hs.claimedBy = workers[i*perHIT : i*perHIT : (i+1)*perHIT]
		n := perHIT + hs.want - claims // claimed answers, or those posted for it
		hs.answers = landed[off : off : off+n]
		off += n
		for _, f := range hs.hit.Fields {
			if f.Kind != crowd.FieldDisplay {
				inputs++
			}
		}
	}
	g.assignments = landed[total:total]
	g.drawn = make([]crowd.Assignment, len(spec.HITs)*perHIT)
	g.drawnAnswers = make([]crowd.Answer, inputs*perHIT)
	m.groups[g.id] = g
	if spec.Expiry > 0 {
		m.clock.Schedule(spec.Expiry, event{kind: evExpire, gid: g.id})
	}
	return g
}

// expire closes g to further answers.
func (m *Market) expire(g *group) {
	g.expired = true
	m.forget(g)
}

// forget drops a group the market owes nothing more — done (complete or
// expired), no answer still to land, every landed one settled — with its
// assignments. After expiry nothing lands, so answers still out then do
// not hold the group. A group nobody answered is kept until Results has
// told its poster so.
func (m *Market) forget(g *group) {
	done := g.expired || g.completed == len(g.hits)
	if !done || (g.pending > 0 && !g.expired) || g.unsettled > 0 || len(g.assignments) == 0 {
		return
	}
	for _, a := range g.assignments {
		delete(m.subs, a.ID)
	}
	delete(m.groups, g.id)
}

// lookup finds a group the market holds.
func (m *Market) lookup(id crowd.GroupID) (*group, error) {
	if g, ok := m.groups[id]; ok {
		return g, nil
	}
	if groupIDs.issued(string(id), m.nextGID) {
		return nil, fmt.Errorf("sim: group %s is settled", id)
	}
	return nil, fmt.Errorf("sim: unknown group %s", id)
}

// arrivalRate computes the Poisson arrival rate (per hour) for a group:
// price-elastic in the reward, with a mild boost for large groups (big
// batches are more visible on the platform, a paper observation).
func (m *Market) arrivalRate(spec *crowd.HITGroup, now time.Duration) float64 {
	ratio := float64(spec.Reward) / float64(m.cfg.RefReward)
	if ratio <= 0 {
		ratio = 0.01
	}
	rate := m.cfg.BaseArrivalPerHour * math.Pow(ratio, m.cfg.PriceElasticity)
	rate *= 1 + 0.15*math.Log1p(float64(len(spec.HITs)))
	if a := m.cfg.DiurnalAmplitude; a > 0 {
		hour := math.Mod(now.Hours(), 24)
		// Peak at 12:00, trough at 00:00 virtual time.
		rate *= 1 + a*math.Sin(2*math.Pi*hour/24-math.Pi/2)
	}
	return rate
}

func (m *Market) scheduleArrival(g *group) {
	if g.expired || g.completed == len(g.hits) {
		return
	}
	rate := m.arrivalRate(g.spec, m.clock.Now()) // per hour
	// Exponential inter-arrival time.
	gap := time.Duration(m.rng.ExpFloat64() / rate * float64(time.Hour))
	m.clock.Schedule(gap, event{kind: evArrive, gid: g.id})
}

// arrive is one worker showing up for a group, claiming HITs, and
// scheduling their submissions. Runs under the market mutex (clock events
// fire inside Step).
func (m *Market) arrive(g *group) {
	defer m.scheduleArrival(g)
	if g.expired || g.completed == len(g.hits) {
		return
	}
	w := m.pickWorker(g.spec.Venue)
	if w == nil {
		return // nobody in the fence this time
	}
	// Geometric number of HITs this visit.
	p := 1 / math.Max(m.cfg.MeanHITsPerVisit, 1)
	want := 1
	for m.rng.Float64() > p && want < len(g.hits) {
		want++
	}
	// Claim the first want HITs open to w, in order, working them one
	// after another.
	claimed, elapsed := 0, time.Duration(0)
	for i := 0; i < len(g.hits) && claimed < want; i++ {
		hs := &g.hits[i]
		if hs.remaining <= 0 || slices.Contains(hs.claimedBy, w) {
			continue
		}
		hs.remaining--
		hs.claimedBy = append(hs.claimedBy, w)
		claimed++
		// Log-normal work time, scaled by the worker's speed.
		lat := time.Duration(float64(m.cfg.LatencyMedian) * w.Speed *
			math.Exp(m.rng.NormFloat64()*m.cfg.LatencySigma))
		elapsed += lat
		g.pending++
		m.clock.Schedule(elapsed, event{kind: evSubmit, g: g, hs: hs, w: w})
	}
}

// pickWorker selects an arriving worker: a returning one by preferential
// attachment with probability AffinityProb, else a uniform draw. With a
// venue fence only eligible workers are considered.
func (m *Market) pickWorker(fence *crowd.GeoFence) *Worker {
	eligible := func(w *Worker) bool { return !m.blocked[w.ID] && w.InFence(fence) }
	// Affinity first: returning workers by preferential attachment.
	if len(m.returned) > 0 && m.rng.Float64() < m.cfg.AffinityProb {
		for try := 0; try < 8; try++ {
			w := m.returned[m.rng.Intn(len(m.returned))]
			if eligible(w) {
				return w
			}
		}
	}
	for try := 0; try < 32; try++ {
		w := m.workers[m.rng.Intn(len(m.workers))]
		if eligible(w) {
			return w
		}
	}
	return nil
}

// submit lands one claimed assignment with the worker's simulated answers,
// both taken from the group's arrays.
func (m *Market) submit(g *group, hs *hitState, w *Worker) {
	var a *crowd.Assignment
	if !g.expired { // an answer that would land after expiry is never drawn
		a, g.drawn = &g.drawn[0], g.drawn[1:]
		a.WorkerID = w.ID
		a.Answers = slices.Clip(m.answer(hs.hit, w, g.drawnAnswers[:0]))
		g.drawnAnswers = g.drawnAnswers[len(a.Answers):]
		w.Completed++
		m.returned = append(m.returned, w) // one entry per completion = preferential attachment
	}
	m.land(g, hs, a, w)
}

// land records a finished assignment for hs, worked by w (nil for a posted
// answer), unless g expired first.
func (m *Market) land(g *group, hs *hitState, a *crowd.Assignment, w *Worker) {
	g.pending--
	if g.expired {
		m.forget(g)
		return
	}
	m.nextAID++
	a.ID = assignmentIDs.format(m.nextAID)
	a.HITID = hs.hit.ID
	a.Status = crowd.AssignmentSubmitted
	a.SubmittedAt = m.clock.Now()
	wasSatisfied := hs.satisfied()
	hs.answers = append(hs.answers, a)
	g.assignments = append(g.assignments, a)
	g.unsettled++
	m.subs[a.ID] = submission{a: a, g: g, w: w}
	m.totalSubmitted++

	if g.spec.AdaptiveVotes && !g.answered && !hs.early && hs.unanimousAboveQuorum(g.spec.Assignments) {
		// Early answers agree above the quorum floor: stop soliciting
		// further assignments for this HIT (adaptive vote sizing).
		hs.early = true
		hs.remaining = 0
	}
	if !wasSatisfied && hs.satisfied() {
		g.completed++
	}
}

// unanimousAboveQuorum reports whether every submitted answer for the HIT
// agrees on every input field after cleansing, with at least a majority
// quorum's worth of answers in and none of them garbage.
func (hs *hitState) unanimousAboveQuorum(assignments int) bool {
	if len(hs.answers) < quality.MajorityFor(assignments) {
		return false
	}
	for _, f := range hs.hit.Fields {
		if f.Kind == crowd.FieldDisplay {
			continue
		}
		var first string
		for i, a := range hs.answers {
			ans, ok := a.Answers.Get(f.Name)
			if !ok {
				return false
			}
			// Normalize is idempotent: IsGarbage re-normalizes norm as is.
			norm := quality.Normalize(ans)
			if quality.IsGarbage(norm) {
				return false
			}
			if i == 0 {
				first = norm
			} else if norm != first {
				return false
			}
		}
	}
	return true
}

// answer simulates a worker filling the HIT's form, appending one answer
// per input field to out. CrowdDB never sees this logic — it only sees the
// resulting Assignment, exactly as with a live crowd.
func (m *Market) answer(h *crowd.HIT, w *Worker, out crowd.Answers) crowd.Answers {
	var truth *crowd.SimTruth = h.Truth
	for _, f := range h.Fields {
		if f.Kind == crowd.FieldDisplay {
			continue
		}
		if m.rng.Float64() < w.GarbageRate {
			out = append(out, crowd.Answer{Field: f.Name, Value: garbageAnswer(m.rng)})
			continue
		}
		difficulty := 0.0
		var correct string
		var wrongs []string
		if truth != nil {
			difficulty = truth.Difficulty
			correct = truth.Truth[f.Name]
			wrongs = truth.Wrong[f.Name]
		}
		// Effective accuracy degrades toward a coin flip as difficulty→1.
		eff := w.Accuracy*(1-difficulty) + 0.5*difficulty
		if correct != "" && m.rng.Float64() < eff {
			out = append(out, crowd.Answer{Field: f.Name, Value: m.addFormatNoise(correct)})
			continue
		}
		// Wrong (or unknown-truth) answer.
		var ans string
		switch {
		case len(wrongs) > 0:
			ans = m.addFormatNoise(wrongs[m.rng.Intn(len(wrongs))])
		case f.Kind == crowd.FieldChoice && len(f.Options) > 0:
			ans = f.Options[m.rng.Intn(len(f.Options))]
		default:
			var b [16]byte
			ans = string(strconv.AppendInt(append(b[:0], "unsure-"...), int64(m.rng.Intn(1000)), 10))
		}
		out = append(out, crowd.Answer{Field: f.Name, Value: ans})
	}
	return out
}

// addFormatNoise occasionally damages formatting (case, padding) so quality
// control has real cleansing to do.
func (m *Market) addFormatNoise(s string) string {
	if m.rng.Float64() >= m.cfg.FormatNoiseRate {
		return s
	}
	switch m.rng.Intn(4) {
	case 0:
		return strings.ToUpper(s)
	case 1:
		return strings.ToLower(s)
	case 2:
		return "  " + s
	default:
		return s + "  "
	}
}

func garbageAnswer(rng *rand.Rand) string {
	junk := []string{"", "asdf", "idk", "???", "n/a", "good"}
	return junk[rng.Intn(len(junk))]
}

// Status reports a group's progress.
func (m *Market) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, err := m.lookup(id)
	if err != nil {
		return crowd.GroupStatus{}, err
	}
	return crowd.GroupStatus{Posted: len(g.hits), Completed: g.completed, Submitted: len(g.assignments), Expired: g.expired}, nil
}

// Results returns copies of the group's submitted assignments, ordered by
// submission time (callers stamp the copies, e.g. with their Source). The
// copies share one array, and their Answers with the market's own
// assignments: answers never change once submitted. It is the poster's
// last read of an expired group nobody answered, which is forgotten then.
func (m *Market) Results(id crowd.GroupID) ([]*crowd.Assignment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if g.expired && len(g.assignments) == 0 {
		delete(m.groups, g.id)
	}
	out := make([]*crowd.Assignment, len(g.assignments))
	copies := make([]crowd.Assignment, len(g.assignments))
	for i, a := range g.assignments {
		copies[i] = *a
		out[i] = &copies[i]
	}
	return out, nil
}

// settle moves a submitted assignment to its final status. An assignment
// is settled once: only AssignmentSubmitted can be approved or rejected, so
// a rejected answer is never paid afterwards and a paid one never loses its
// Approved status while the worker keeps the money. The last settlement of
// a done group forgets it; an issued assignment the market no longer holds
// was settled.
func (m *Market) settle(assignmentID string, to crowd.AssignmentStatus) (submission, error) {
	sub, ok := m.subs[assignmentID]
	if !ok && assignmentIDs.issued(assignmentID, m.nextAID) {
		return submission{}, fmt.Errorf("sim: assignment %s already settled", assignmentID)
	}
	if !ok {
		return submission{}, fmt.Errorf("sim: unknown assignment %s", assignmentID)
	}
	if sub.a.Status != crowd.AssignmentSubmitted {
		return submission{}, fmt.Errorf("sim: assignment %s already settled", assignmentID)
	}
	sub.a.Status = to
	sub.g.unsettled--
	m.forget(sub.g)
	return sub, nil
}

// Approve pays the worker the group reward plus bonus and returns the
// amount paid. It fails on an assignment that was already approved or
// rejected (see settle).
func (m *Market) Approve(assignmentID string, bonus crowd.Cents) (crowd.Cents, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sub, err := m.settle(assignmentID, crowd.AssignmentApproved)
	if err != nil {
		return 0, err
	}
	pay := sub.g.spec.Reward + bonus
	m.totalSpent += pay
	if sub.w != nil { // a posted answer has no worker of the market's
		sub.w.Earned += pay
	}
	return pay, nil
}

// Reject refuses an assignment without pay. It fails on an assignment that
// was already approved or rejected (see settle).
func (m *Market) Reject(assignmentID, _ string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.settle(assignmentID, crowd.AssignmentRejected)
	return err
}

// Expire force-expires a group.
func (m *Market) Expire(id crowd.GroupID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, err := m.lookup(id)
	if err != nil {
		return err
	}
	m.expire(g)
	return nil
}

// WorkerStats returns per-worker completion counts, most active first —
// the worker-affinity distribution of experiment E3.
func (m *Market) WorkerStats() []Worker {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Worker
	for _, w := range m.workers {
		if w.Completed > 0 {
			out = append(out, *w)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Completed != out[j].Completed {
			return out[i].Completed > out[j].Completed
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TotalSpent reports all money paid out so far.
func (m *Market) TotalSpent() crowd.Cents {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalSpent
}

// TotalSubmitted reports all assignments ever submitted.
func (m *Market) TotalSubmitted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalSubmitted
}
