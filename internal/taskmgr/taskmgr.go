// Package taskmgr implements CrowdDB's Task Manager (paper §3, Fig. 1):
// the abstraction layer between the query executor's crowd operators and
// the crowdsourcing platforms. It instantiates UI templates for concrete
// tuples, posts HIT groups, polls their status, collects and
// quality-controls the answers, settles payments through the WRM, and
// hands cleansed decisions back to the operators (which memorize them in
// the store).
package taskmgr

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/obs"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/ui"
	"crowddb/internal/wrm"
)

// Oracle supplies simulation-only ground truth for posted tasks. In a real
// deployment there is no oracle (answers come from people); the simulator
// needs one to know what a correct answer looks like. Implementations live
// in internal/workload and the examples.
type Oracle interface {
	// ProbeTruth returns truth for a probe of the given tuple's columns.
	ProbeTruth(table string, known map[string]sqltypes.Value, ask []string) *crowd.SimTruth
	// NewTupleTruth returns truth for the i-th requested new tuple.
	NewTupleTruth(table string, prefill map[string]sqltypes.Value, i int) *crowd.SimTruth
	// CompareTruth returns truth for one comparison task.
	CompareTruth(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth
}

// Config tunes task posting.
type Config struct {
	// Reward per assignment.
	Reward crowd.Cents
	// Assignments is the replication factor per HIT (majority-vote width).
	Assignments int
	// MaxWait bounds how long to wait for a group before expiring it and
	// working with partial answers.
	MaxWait time.Duration
	// MaxInFlight bounds how many HIT groups may be live on the platform
	// at once (the async scheduler's window). Submissions beyond it queue
	// until a slot frees. 1 serializes groups (the original behavior).
	MaxInFlight int
	// RetryAttempts bounds how many times a transient platform call
	// (post, status, expire, results) is attempted before its error
	// surfaces to the operator. <=0 defaults to 3; 1 disables retries.
	// A failed post is retried at once; a failed poll-path call waits for
	// the next virtual poll tick.
	RetryAttempts int

	// ModelPlatform enables model-first escalation routing: every HIT
	// group is posted to this (cheap model) tier first at ModelReward ×
	// ModelAssignments; HITs whose model answers fall below the
	// confidence or agreement floors are re-posted to the human Platform,
	// and the final answer is the tier-weighted resolution over the
	// merged votes. nil (the default) disables routing — the human
	// platform answers everything, byte-identical to the pre-router
	// behavior.
	ModelPlatform crowd.Platform
	// ModelReward is the per-assignment price on the model tier (<=0
	// defaults to 1¢).
	ModelReward crowd.Cents
	// ModelAssignments is the replication on the model tier (<=0 defaults
	// to 1 — model replicas are correlated, replication buys less than
	// it does with humans). A new-tuple solicitation asks one candidate
	// per slot on either tier.
	ModelAssignments int
	// ConfidenceFloor escalates a HIT whose mean model confidence is
	// below it (<=0 defaults to 0.75).
	ConfidenceFloor float64
	// AgreementFloor escalates a HIT whose model votes' winning share is
	// below it, or that failed quorum outright (<=0 defaults to 0.66).
	AgreementFloor float64
	// ModelVoteWeight scales model votes relative to human votes in the
	// tier-weighted resolution (<=0 defaults to 0.6: two fresh humans
	// outvote one fresh model answer, but a model answer tips a split
	// human pair).
	ModelVoteWeight float64

	// AdaptiveVotes lets comparison groups stop soliciting assignments
	// for a HIT once its early answers are unanimous above the quorum
	// floor — fewer paid votes on easy questions.
	AdaptiveVotes bool
}

// DefaultConfig matches the paper's experimental defaults: 2¢ HITs,
// 3-way replication, generous deadline.
func DefaultConfig() Config {
	return Config{
		Reward:        2,
		Assignments:   3,
		MaxWait:       72 * time.Hour,
		MaxInFlight:   8,
		RetryAttempts: 3,
	}
}

// Prices is the price list for a unit of crowd work, in cents: what the
// crowd is paid for one probe or comparison HIT at its replication, and
// for one solicited tuple. The optimizer forecasts with it, and measured
// work (exec.Stats.Cents) is charged with it.
type Prices struct {
	Compare float64
	Tuple   float64
}

// Prices computes the price list: reward × replication on the human
// tier or, with a model tier, the blended model-first rate — every HIT
// pays the model tier and the escalated fraction additionally pays the
// human rate. A solicited slot asks for one candidate, so on either
// tier a tuple's price is that tier's reward.
func (c Config) Prices(escalation float64) Prices {
	human := Prices{
		Compare: float64(c.Reward) * float64(c.Assignments),
		Tuple:   float64(c.Reward),
	}
	if c.ModelPlatform == nil {
		return human
	}
	return Prices{
		Compare: float64(c.ModelReward)*float64(c.ModelAssignments) + escalation*human.Compare,
		Tuple:   float64(c.ModelReward) + escalation*human.Tuple,
	}
}

// PlatformStats is one platform tier's share of the crowd activity.
// Hybrid (model + human) runs audit each tier's spend through it; the
// old single-aggregate report hid which platform the money went to.
type PlatformStats struct {
	Groups        int
	HITs          int
	Assignments   int
	ApprovedSpend crowd.Cents
	// VotesAgreed/VotesDisagreed count this tier's votes that landed on
	// the winning (resp. losing) side of decisions — the observed
	// per-tier accuracy proxy.
	VotesAgreed    int
	VotesDisagreed int
}

// Stats counts crowd activity for the experiment harness.
type Stats struct {
	GroupsPosted  int
	HITsPosted    int
	AssignmentsIn int
	Decisions     int
	// CrowdTime is the virtual time spent waiting on the crowd: the union
	// of all in-flight group intervals, so overlapping groups count once.
	CrowdTime      time.Duration
	ApprovedSpend  crowd.Cents // rewards paid, bonuses excluded
	ExpiredGroups  int
	PartialResults int // HITs resolved from fewer than Assignments answers
	// MaxInFlight echoes the configured async window.
	MaxInFlight int
	// PeakInFlight is the most groups ever simultaneously live.
	PeakInFlight int
	// PeakQueueDepth is the longest the over-window submission queue got.
	PeakQueueDepth int
	// Retries counts transient platform call failures absorbed by the
	// retry policy (the error never reached an operator).
	Retries int
	// GroupLatencyP50/P90 are observed HIT-group round-trip percentiles
	// (post to resolution, virtual time) over a sliding window of recent
	// groups; the cost model prices crowd rounds with them.
	GroupLatencyP50 time.Duration
	GroupLatencyP90 time.Duration
	// LatencySamples is how many group round-trips have been observed.
	LatencySamples int64
	// ModelGroupsPosted counts groups first posted to the model tier;
	// EscalatedGroups/EscalatedHITs count how many of them (and how many
	// individual HITs) fell below the confidence or agreement floors and
	// were re-posted to the human platform.
	ModelGroupsPosted int
	EscalatedGroups   int
	EscalatedHITs     int
	// ByPlatform splits groups, assignments, spend, and vote outcomes by
	// platform name.
	ByPlatform map[string]PlatformStats
}

// Manager is the Task Manager.
type Manager struct {
	platform crowd.Platform
	ui       *ui.Manager
	tracker  *quality.Tracker
	payer    *wrm.Manager
	oracle   Oracle
	cfg      Config

	mu    sync.Mutex
	stats Stats
	seq   int
	// latSamples is a ring of recent group round-trip latencies; latPos
	// counts total observations (ring writes wrap at latencyWindow).
	latSamples []time.Duration
	latPos     int64
	// roundtrip mirrors recordLatency observations into the metrics
	// registry when RegisterMetrics has run (nil-safe otherwise).
	roundtrip *obs.Histogram

	sched scheduler
}

// latencyWindow bounds the round-trip sample ring.
const latencyWindow = 64

// New assembles a Task Manager. oracle may be nil (workers will answer
// without ground truth — useful only for plumbing tests).
func New(platform crowd.Platform, uim *ui.Manager, tracker *quality.Tracker, payer *wrm.Manager, oracle Oracle, cfg Config) *Manager {
	if cfg.Assignments <= 0 {
		cfg.Assignments = 3
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 72 * time.Hour
	}
	if cfg.Reward <= 0 {
		cfg.Reward = 2
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 3
	}
	if cfg.ModelPlatform != nil {
		if cfg.ModelReward <= 0 {
			cfg.ModelReward = 1
		}
		if cfg.ModelAssignments <= 0 {
			cfg.ModelAssignments = 1
		}
		if cfg.ConfidenceFloor <= 0 {
			cfg.ConfidenceFloor = 0.75
		}
		if cfg.AgreementFloor <= 0 {
			cfg.AgreementFloor = 0.66
		}
		if cfg.ModelVoteWeight <= 0 {
			cfg.ModelVoteWeight = 0.6
		}
	}
	m := &Manager{platform: platform, ui: uim, tracker: tracker, payer: payer, oracle: oracle, cfg: cfg}
	m.stats.ByPlatform = make(map[string]PlatformStats)
	m.sched.handoff = make(chan struct{})
	return m
}

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.MaxInFlight = m.cfg.MaxInFlight
	st.GroupLatencyP50, st.GroupLatencyP90 = m.latencyPercentilesLocked()
	st.LatencySamples = m.latPos
	st.ByPlatform = make(map[string]PlatformStats, len(m.stats.ByPlatform))
	for name, ps := range m.stats.ByPlatform {
		st.ByPlatform[name] = ps
	}
	return st
}

// platformStatsLocked mutates one platform's split counters in place.
// Callers hold m.mu.
func (m *Manager) platformStatsLocked(name string, f func(*PlatformStats)) {
	ps := m.stats.ByPlatform[name]
	f(&ps)
	m.stats.ByPlatform[name] = ps
}

// escalationRate is the observed fraction of model-tier HITs that fell
// below the routing floors and escalated to the human platform. Before
// any model HIT has resolved it returns the planning prior.
func (m *Manager) escalationRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.ModelPlatform == nil {
		return 0
	}
	modelHITs := m.stats.ByPlatform[m.cfg.ModelPlatform.Name()].HITs
	if modelHITs == 0 {
		return defaultEscalationRate
	}
	return float64(m.stats.EscalatedHITs) / float64(modelHITs)
}

// Prices is the price list at the observed escalation rate.
func (m *Manager) Prices() Prices { return m.cfg.Prices(m.escalationRate()) }

// defaultEscalationRate is the planning prior before feedback arrives: a
// quarter of model answers contested, matching the Sharp preset on
// mid-difficulty comparisons.
const defaultEscalationRate = 0.25

// recordLatency notes one group's post-to-resolution round-trip.
func (m *Manager) recordLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latSamples) < latencyWindow {
		m.latSamples = append(m.latSamples, d)
	} else {
		m.latSamples[m.latPos%latencyWindow] = d
	}
	m.latPos++
	m.roundtrip.Observe(d.Seconds())
}

// LatencyStats returns observed group round-trip percentiles (virtual
// time) over the recent-sample window, plus the total observation count.
func (m *Manager) LatencyStats() (p50, p90 time.Duration, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p50, p90 = m.latencyPercentilesLocked()
	return p50, p90, m.latPos
}

func (m *Manager) latencyPercentilesLocked() (p50, p90 time.Duration) {
	if len(m.latSamples) == 0 {
		return 0, 0
	}
	// Sorted on the stack: the engine reads these on every compile.
	var buf [latencyWindow]time.Duration
	sorted := buf[:copy(buf[:], m.latSamples)]
	slices.Sort(sorted)
	idx := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return idx(0.5), idx(0.9)
}

// Config returns the manager's effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// Load reports the async scheduler's current occupancy: groups live on
// the platform and submissions queued behind the in-flight window. The
// query server keys admission control off the queue depth — a deep queue
// means new crowd work would only pile onto the backlog.
func (m *Manager) Load() (inflight, queued int) {
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	return len(m.sched.inflight), len(m.sched.queued)
}

// Platform exposes the underlying platform (the REPL reports its name).
func (m *Manager) Platform() crowd.Platform { return m.platform }

func (m *Manager) nextHITID(prefix string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	// prefix-000042: fmt's "%s-%06d", built without fmt.
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], int64(m.seq), 10)
	var b [32]byte
	id := append(append(b[:0], prefix...), '-')
	for i := len(n); i < 6; i++ {
		id = append(id, '0')
	}
	return string(append(id, n...))
}

// ProbeRequest asks the crowd to fill the Ask columns of one tuple whose
// known column values are Known (lower-cased column names).
type ProbeRequest struct {
	Known map[string]sqltypes.Value
	Ask   []string
}

// ProbeResult carries the majority-vote decision per asked column.
type ProbeResult struct {
	Decisions map[string]quality.Decision
}

// ProbeValuesAsync crowdsources missing column values for a batch of
// tuples of one table, as a single HIT group (CrowdProbe's data path;
// batching is what makes CrowdJoin efficient, experiment E6). It submits
// the group without waiting: the returned call's Wait collects the
// answers, aligned with reqs, so operators keep several groups in flight.
func (m *Manager) ProbeValuesAsync(table string, reqs []ProbeRequest) (*Call[[]ProbeResult], error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	group := &crowd.HITGroup{
		Title:       "Fill in missing " + table + " data",
		Description: "Provide missing column values for the " + table + " table.",
		Kind:        crowd.TaskProbeValues,
		Reward:      m.cfg.Reward,
		Assignments: m.cfg.Assignments,
		Expiry:      m.cfg.MaxWait,
		HITs:        make([]*crowd.HIT, len(reqs)),
	}
	hits := make([]crowd.HIT, len(reqs))
	for i, r := range reqs {
		fields, html, err := m.ui.ProbeForm(table, r.Known, r.Ask)
		if err != nil {
			return nil, err
		}
		hit := &hits[i]
		*hit = crowd.HIT{
			ID:     m.nextHITID("probe"),
			Kind:   crowd.TaskProbeValues,
			Title:  group.Title,
			Fields: fields,
			HTML:   html,
		}
		if m.oracle != nil {
			hit.Truth = m.oracle.ProbeTruth(table, r.Known, r.Ask)
		}
		group.HITs[i] = hit
	}
	return newCall(m, group, func(byHIT map[string][]*crowd.Assignment) []ProbeResult {
		out := make([]ProbeResult, len(reqs))
		for i, r := range reqs {
			res := ProbeResult{Decisions: make(map[string]quality.Decision, len(r.Ask))}
			for _, col := range r.Ask {
				res.Decisions[col] = m.decide(byHIT[group.HITs[i].ID], col)
			}
			out[i] = res
		}
		return out
	}), nil
}

// TupleRequest asks for Want candidate tuples with the given prefill.
type TupleRequest struct {
	Prefill map[string]sqltypes.Value
	Want    int
}

// NewTuplesBatchAsync solicits candidate tuples for a CROWD table, for
// many prefill keys (typically the probing query's join key, as in the
// paper's NotableAttendee example) in ONE HIT group — CrowdJoin's batching
// path (experiment E6): one group per join instead of one per outer
// tuple. It submits without waiting; the returned call's Wait collects
// the candidates, aligned with reqs, each one worker's raw column->answer
// map.
func (m *Manager) NewTuplesBatchAsync(table string, reqs []TupleRequest) (*Call[[][]map[string]string], error) {
	total := 0
	for _, r := range reqs {
		total += r.Want
	}
	if total <= 0 {
		return nil, nil
	}
	group := &crowd.HITGroup{
		Title:       fmt.Sprintf("Contribute new %s entries", table),
		Description: fmt.Sprintf("Add new rows to the %s table.", table),
		Kind:        crowd.TaskNewTuple,
		Reward:      m.cfg.Reward,
		Assignments: 1, // one candidate per solicited slot
		Expiry:      m.cfg.MaxWait,
	}
	hitReq := make(map[string]int) // HIT ID -> request index
	for ri, r := range reqs {
		for i := 0; i < r.Want; i++ {
			fields, html, err := m.ui.NewTupleForm(table, r.Prefill)
			if err != nil {
				return nil, err
			}
			hit := &crowd.HIT{
				ID:     m.nextHITID("tuple"),
				Kind:   crowd.TaskNewTuple,
				Title:  group.Title,
				Fields: fields,
				HTML:   html,
			}
			if m.oracle != nil {
				hit.Truth = m.oracle.NewTupleTruth(table, r.Prefill, i)
			}
			hitReq[hit.ID] = ri
			group.HITs = append(group.HITs, hit)
		}
	}
	return newCall(m, group, func(byHIT map[string][]*crowd.Assignment) [][]map[string]string {
		return collectTuples(reqs, group, hitReq, byHIT)
	}), nil
}

// collectTuples turns a solicitation group's assignments into usable
// candidate tuples aligned with the requests.
func collectTuples(reqs []TupleRequest, group *crowd.HITGroup, hitReq map[string]int, byHIT map[string][]*crowd.Assignment) [][]map[string]string {
	out := make([][]map[string]string, len(reqs))
	for _, hit := range group.HITs {
		ri := hitReq[hit.ID]
		prefill := reqs[ri].Prefill
		for _, a := range byHIT[hit.ID] {
			tuple := make(map[string]string, len(a.Answers)+len(prefill))
			usable := false
			for _, ans := range a.Answers {
				tuple[ans.Field] = ans.Value
				if !quality.IsGarbage(ans.Value) {
					usable = true
				}
			}
			// Pre-filled columns were shown read-only; the Task Manager
			// knows their values and completes the candidate tuple.
			for col, v := range prefill {
				if _, answered := tuple[col]; !answered && !v.IsUnknown() {
					tuple[col] = v.String()
				}
			}
			if usable {
				out[ri] = append(out[ri], tuple)
			}
		}
	}
	return out
}

// ComparePair is one binary comparison task.
type ComparePair struct {
	Left, Right string
}

// CompareEqualAsync asks the crowd whether pairs of values denote the same
// entity (CROWDEQUAL), without waiting: the returned call's Wait collects
// one "yes"/"no" majority-vote decision per pair.
func (m *Manager) CompareEqualAsync(question string, pairs []ComparePair) (*Call[[]quality.Decision], error) {
	return m.compareAsync(crowd.TaskCompareEqual, question, pairs)
}

// CompareOrderAsync asks the crowd which of two items ranks higher
// (CROWDORDER), without waiting; each decision's Value is the winning item.
func (m *Manager) CompareOrderAsync(question string, pairs []ComparePair) (*Call[[]quality.Decision], error) {
	return m.compareAsync(crowd.TaskCompareOrder, question, pairs)
}

func (m *Manager) compareAsync(kind crowd.TaskKind, question string, pairs []ComparePair) (*Call[[]quality.Decision], error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	group := &crowd.HITGroup{
		Title:         "Compare items",
		Description:   question,
		Kind:          kind,
		Reward:        m.cfg.Reward,
		Assignments:   m.cfg.Assignments,
		Expiry:        m.cfg.MaxWait,
		AdaptiveVotes: m.cfg.AdaptiveVotes,
		HITs:          make([]*crowd.HIT, len(pairs)),
	}
	hits := make([]crowd.HIT, len(pairs))
	for i, p := range pairs {
		var fields []crowd.Field
		var html string
		var err error
		if kind == crowd.TaskCompareEqual {
			fields, html, err = m.ui.CompareEqualForm(question, p.Left, p.Right)
		} else {
			fields, html, err = m.ui.CompareOrderForm(question, p.Left, p.Right)
		}
		if err != nil {
			return nil, err
		}
		hit := &hits[i]
		*hit = crowd.HIT{
			ID:     m.nextHITID("cmp"),
			Kind:   kind,
			Title:  group.Title,
			Fields: fields,
			HTML:   html,
		}
		if m.oracle != nil {
			hit.Truth = m.oracle.CompareTruth(kind, question, p.Left, p.Right)
		}
		group.HITs[i] = hit
	}
	return newCall(m, group, func(byHIT map[string][]*crowd.Assignment) []quality.Decision {
		out := make([]quality.Decision, len(pairs))
		for i := range pairs {
			out[i] = m.decide(byHIT[group.HITs[i].ID], ui.AnswerField)
		}
		return out
	}), nil
}

// decide resolves one field over a HIT's assignments and feeds the
// quality tracker. Without a model tier it is the paper's majority vote;
// with one it is the tier-weighted resolution — each vote weighted by
// the worker's observed accuracy score, model votes further scaled by
// ModelVoteWeight — over the merged model and human answers.
func (m *Manager) decide(assignments []*crowd.Assignment, field string) quality.Decision {
	var buf [16]quality.Vote // a HIT's replication; more spill to the heap
	votes := buf[:0]
	for _, a := range assignments {
		if ans, ok := a.Answers.Get(field); ok {
			votes = append(votes, quality.Vote{WorkerID: a.WorkerID, Answer: ans})
		}
	}
	// source is the platform of a worker's vote: its last assignment that
	// answers field. A HIT has a handful of votes, so a scan beats a map.
	source := func(workerID string) string {
		for i := len(assignments) - 1; i >= 0; i-- {
			if a := assignments[i]; a.WorkerID == workerID {
				if _, ok := a.Answers.Get(field); ok {
					return a.Source
				}
			}
		}
		return ""
	}
	var d quality.Decision
	if m.cfg.ModelPlatform != nil {
		modelName := m.cfg.ModelPlatform.Name()
		d = quality.WeightedVote(votes, func(workerID string) float64 {
			w := m.tracker.Score(workerID)
			if source(workerID) == modelName {
				w *= m.cfg.ModelVoteWeight
			}
			return w
		}, 0.5)
	} else {
		d = quality.MajorityVote(votes, quality.MajorityFor(m.cfg.Assignments))
	}
	m.tracker.Record(d)
	m.mu.Lock()
	m.stats.Decisions++
	if len(votes) > 0 && len(votes) < m.cfg.Assignments {
		m.stats.PartialResults++
	}
	// Per-tier accuracy proxy: which platform's votes land on the
	// winning side. (Assignments fabricated without a Source — plumbing
	// tests — stay out of the split.)
	for _, w := range d.Agreed {
		if src := source(w); src != "" {
			m.platformStatsLocked(src, func(ps *PlatformStats) { ps.VotesAgreed++ })
		}
	}
	for _, w := range d.Disagreed {
		if src := source(w); src != "" {
			m.platformStatsLocked(src, func(ps *PlatformStats) { ps.VotesDisagreed++ })
		}
	}
	m.mu.Unlock()
	return d
}
