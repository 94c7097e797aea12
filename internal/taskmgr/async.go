package taskmgr

// The asynchronous HIT-group scheduler (paper §3: "the Task Manager posts
// the tasks and the executor continues processing while the crowd works").
// Submit posts a group without waiting for its answers and returns a
// Pending handle; Wait blocks until the group completes or hits its
// deadline. Up to Config.MaxInFlight groups are live on the platform at
// once — further submissions queue and are admitted as slots free up.
//
// Virtual time advances only inside Wait: the first goroutine that blocks
// on an unresolved group takes the driver role, repeatedly polling every
// in-flight group and stepping the platform clock by pollInterval until
// its own group resolves, then hands the role to the next waiter. Exactly
// one goroutine ever steps the clock, so for a fixed seed and a fixed
// Submit order the simulation replays identically regardless of how many
// goroutines are waiting — the property the determinism tests pin down.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/faultinject"
	"crowddb/internal/quality"
)

// pollInterval is the virtual-clock step: how often the Task Manager
// polls the platform, and how far each poll advances the simulated crowd.
const pollInterval = time.Minute

// ErrCancelled resolves a Pending whose submission was withdrawn before it
// was posted to the platform (see Pending.Cancel).
var ErrCancelled = errors.New("taskmgr: submission cancelled")

// Pending is a handle to an asynchronously submitted HIT group.
type Pending struct {
	m     *Manager
	group *crowd.HITGroup

	// Scheduler-owned fields, guarded by m.sched.mu until resolution.
	id         crowd.GroupID
	posted     bool
	wasQueued  bool
	postedAt   time.Duration
	resolvedAt time.Duration
	deadline   time.Duration
	// platform is the tier the group is currently live on (the model
	// platform first when routing is enabled, the human platform after
	// escalation or when routing is off); reward is the per-assignment
	// price it was posted at there.
	platform crowd.Platform
	reward   crowd.Cents
	// escalated marks a group re-posted to the human tier; modelByHIT
	// stashes the model tier's answers so resolution merges both tiers.
	escalated  bool
	modelByHIT map[string][]*crowd.Assignment
	// pollFails counts this group's transient status/expire/results
	// failures; the group is retried on later poll ticks (virtual-time
	// backoff) until Config.RetryAttempts is exhausted.
	pollFails int
	// expiredNoted guards the ExpiredGroups counter across collect
	// retries of the same expired group.
	expiredNoted bool

	// Result fields, written exactly once before done is closed.
	byHIT map[string][]*crowd.Assignment
	err   error
	done  chan struct{}
}

// Done reports, without blocking, whether the group has resolved.
func (p *Pending) Done() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the group completes, expires, or fails, and returns
// its assignments indexed by HIT ID. Concurrent waiters are safe; Wait may
// be called more than once and returns the same result each time.
func (p *Pending) Wait() (map[string][]*crowd.Assignment, error) {
	return p.WaitCtx(context.Background())
}

// WaitCtx is Wait with cancellation: it returns ctx.Err() as soon as the
// context is done, leaving the group live on the platform. An abandoned
// group keeps its window slot until the next driver (any later waiter)
// polls it to resolution — the scheduler self-heals, no goroutine stays
// behind. A cancelled WaitCtx may be retried; the group's result is
// unchanged by the abandonment.
func (p *Pending) WaitCtx(ctx context.Context) (map[string][]*crowd.Assignment, error) {
	m := p.m
	for {
		select {
		case <-p.done:
			return p.byHIT, p.err
		default:
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.sched.mu.Lock()
		if m.sched.driving {
			// Another waiter owns the clock: block until our group resolves
			// or the driver hands off, then re-contend.
			handoff := m.sched.handoff
			m.sched.mu.Unlock()
			select {
			case <-p.done:
				return p.byHIT, p.err
			case <-handoff:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		m.sched.driving = true
		m.sched.mu.Unlock()

		m.drive(p, ctx)

		m.sched.mu.Lock()
		m.sched.driving = false
		close(m.sched.handoff)
		m.sched.handoff = make(chan struct{})
		m.sched.mu.Unlock()
	}
}

// Cancel withdraws a submission that is still queued behind the in-flight
// window, resolving it with ErrCancelled, and reports whether it did.
// A group already posted to the platform is not recalled (the crowd may
// already be working it); cancelling a query therefore stops new HITs
// from ever reaching the platform while letting paid work settle.
func (p *Pending) Cancel() bool {
	m := p.m
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	for i, q := range m.sched.queued {
		if q == p {
			m.sched.queued = append(m.sched.queued[:i], m.sched.queued[i+1:]...)
			m.resolveLocked(p, nil, ErrCancelled)
			return true
		}
	}
	return false
}

// scheduler holds the in-flight window and the clock-driver token. Its
// mutex guards the pending lists and the Pending bookkeeping fields; it is
// never held while polling the platform (only across Post, which platforms
// must support concurrently anyway).
type scheduler struct {
	mu       sync.Mutex
	inflight []*Pending
	queued   []*Pending
	driving  bool
	handoff  chan struct{} // closed and replaced on every driver release
	// polling is pollInflight's copy of inflight, reused tick after tick.
	// Only the driver touches it, and the driver role passes under mu.
	polling []*Pending
}

// Submit validates and posts a HIT group asynchronously. If the in-flight
// window is full the group is queued and posted when a slot frees (its
// deadline then runs from that later posting time). Submission errors are
// delivered through Wait.
func (m *Manager) Submit(group *crowd.HITGroup) *Pending {
	p := &Pending{m: m, group: group, done: make(chan struct{})}
	m.sched.mu.Lock()
	if len(m.sched.inflight) < m.cfg.MaxInFlight {
		m.admitLocked(p)
	} else {
		p.wasQueued = true
		m.sched.queued = append(m.sched.queued, p)
		m.noteQueueDepthLocked()
	}
	m.sched.mu.Unlock()
	return p
}

// admitLocked posts p to its first tier — the model platform when
// escalation routing is enabled, the human platform otherwise —
// retrying transient post errors at once. Called with sched.mu held
// (platforms must support concurrent Post anyway; the retries do not
// sleep, so the lock is not held across a wait). Only an exhausted
// retry budget resolves p with an error — and because a failed Post
// never reached the platform, a retried post is still posted exactly
// once and can never double-pay.
func (m *Manager) admitLocked(p *Pending) {
	target, spec := m.platform, p.group
	if m.cfg.ModelPlatform != nil {
		// Model tier first: same HITs (IDs carry over so escalation and
		// resolution can merge answers), the model tier's price, and its
		// own replication — except for new-tuple solicitations, where
		// each assignment is a distinct wanted candidate.
		ms := *p.group
		ms.Reward = m.cfg.ModelReward
		if ms.Kind != crowd.TaskNewTuple {
			ms.Assignments = m.cfg.ModelAssignments
		}
		target, spec = m.cfg.ModelPlatform, &ms
	}
	id, err := m.postWithRetry(target, spec)
	if err != nil {
		m.resolveLocked(p, nil, fmt.Errorf("taskmgr: post: %w", err))
		return
	}
	p.id = id
	p.posted = true
	p.platform = target
	p.reward = spec.Reward
	p.postedAt = target.Now()
	p.deadline = p.postedAt + m.cfg.MaxWait
	m.sched.inflight = append(m.sched.inflight, p)

	m.mu.Lock()
	m.stats.GroupsPosted++
	m.stats.HITsPosted += len(spec.HITs)
	if target == m.cfg.ModelPlatform {
		m.stats.ModelGroupsPosted++
	}
	m.platformStatsLocked(target.Name(), func(ps *PlatformStats) {
		ps.Groups++
		ps.HITs += len(spec.HITs)
	})
	if n := len(m.sched.inflight); n > m.stats.PeakInFlight {
		m.stats.PeakInFlight = n
	}
	m.mu.Unlock()
}

// postWithRetry attempts target.Post up to Config.RetryAttempts times.
func (m *Manager) postWithRetry(target crowd.Platform, group *crowd.HITGroup) (crowd.GroupID, error) {
	var id crowd.GroupID
	var err error
	for attempt := 1; ; attempt++ {
		faultinject.Hit("taskmgr.platform.post")
		id, err = target.Post(group)
		if err == nil || attempt >= m.cfg.RetryAttempts {
			return id, err
		}
		m.noteRetry()
	}
}

// noteRetry counts one absorbed transient failure.
func (m *Manager) noteRetry() {
	m.mu.Lock()
	m.stats.Retries++
	m.mu.Unlock()
}

// noteTransient records a transient poll-path failure for p and reports
// whether the scheduler should retry it on a later tick (true) or give
// up and surface the error (false).
func (m *Manager) noteTransient(p *Pending) bool {
	m.sched.mu.Lock()
	p.pollFails++
	retry := p.pollFails < m.cfg.RetryAttempts
	m.sched.mu.Unlock()
	if retry {
		m.noteRetry()
	}
	return retry
}

func (m *Manager) noteQueueDepthLocked() {
	m.mu.Lock()
	if n := len(m.sched.queued); n > m.stats.PeakQueueDepth {
		m.stats.PeakQueueDepth = n
	}
	m.mu.Unlock()
}

// resolveLocked publishes p's result and admits queued groups into the
// freed slot. Called with sched.mu held.
func (m *Manager) resolveLocked(p *Pending, byHIT map[string][]*crowd.Assignment, err error) {
	for i, q := range m.sched.inflight {
		if q == p {
			m.sched.inflight = append(m.sched.inflight[:i], m.sched.inflight[i+1:]...)
			break
		}
	}
	if p.posted && err == nil {
		p.resolvedAt = p.platform.Now()
		// Observed round-trip: the cost model's latency feedback.
		m.recordLatency(p.resolvedAt - p.postedAt)
	}
	for len(m.sched.queued) > 0 && len(m.sched.inflight) < m.cfg.MaxInFlight {
		next := m.sched.queued[0]
		m.sched.queued = m.sched.queued[1:]
		m.admitLocked(next)
	}
	p.byHIT = byHIT
	p.err = err
	close(p.done)
}

// drive owns the platform clock: it polls every in-flight group, resolves
// the finished ones, and steps virtual time by pollInterval until target
// resolves. Exactly one goroutine runs drive at a time.
//
// CrowdTime accounting lives here: virtual time only ever advances in the
// Step below, so counting each step taken while at least one group is in
// flight yields the exact union of the in-flight intervals — overlapping
// groups count once, and for serial use it matches the old synchronous
// post-to-collect turnaround.
func (m *Manager) drive(target *Pending, ctx context.Context) {
	for {
		// A cancelled driver releases the clock without stepping further;
		// the next waiter (if any) takes over exactly where it left off.
		if ctx.Err() != nil {
			return
		}
		m.pollInflight()
		select {
		case <-target.done:
			return
		default:
		}
		m.sched.mu.Lock()
		busy := len(m.sched.inflight) > 0
		m.sched.mu.Unlock()
		m.platform.Step(pollInterval)
		if m.cfg.ModelPlatform != nil {
			// Both tiers share the poll cadence so their virtual
			// clocks stay in step across escalations.
			m.cfg.ModelPlatform.Step(pollInterval)
		}
		if busy {
			m.mu.Lock()
			m.stats.CrowdTime += pollInterval
			m.mu.Unlock()
		}
	}
}

// pollInflight checks every in-flight group once and resolves those that
// are done or past their deadline.
func (m *Manager) pollInflight() {
	m.sched.mu.Lock()
	live := append(m.sched.polling[:0], m.sched.inflight...)
	m.sched.mu.Unlock()

	for _, p := range live {
		faultinject.Hit("taskmgr.platform.status")
		st, err := p.platform.Status(p.id)
		if err != nil {
			if m.noteTransient(p) {
				continue // retried on the next poll tick
			}
			m.finish(p, nil, fmt.Errorf("taskmgr: status: %w", err))
			continue
		}
		switch {
		case st.Done():
			if st.Expired {
				m.countExpired(p)
			}
			m.collect(p)
		case p.platform.Now() >= p.deadline:
			// Deadline: expire and work with what we have (the paper's
			// operators must tolerate incomplete crowd answers).
			if err := p.platform.Expire(p.id); err != nil {
				if m.noteTransient(p) {
					continue
				}
				m.finish(p, nil, fmt.Errorf("taskmgr: expire: %w", err))
				continue
			}
			m.countExpired(p)
			m.collect(p)
		}
	}
	clear(live) // hold no resolved group until the next tick
	m.sched.polling = live[:0]
}

// countExpired counts p as expired exactly once, however many collect
// retries the group goes through afterwards.
func (m *Manager) countExpired(p *Pending) {
	m.sched.mu.Lock()
	noted := p.expiredNoted
	p.expiredNoted = true
	m.sched.mu.Unlock()
	if noted {
		return
	}
	m.mu.Lock()
	m.stats.ExpiredGroups++
	m.mu.Unlock()
}

// collect gathers a finished group's assignments, settles payments, and
// resolves the Pending. A transient Results failure leaves the group in
// flight — the next poll tick sees it Done again and retries — until the
// retry budget is exhausted. Settle failures are never retried: payment
// is not known to be idempotent, and retrying could double-pay.
func (m *Manager) collect(p *Pending) {
	faultinject.Hit("taskmgr.platform.results")
	results, err := p.platform.Results(p.id)
	if err != nil {
		if m.noteTransient(p) {
			return
		}
		m.finish(p, nil, fmt.Errorf("taskmgr: results: %w", err))
		return
	}
	tier := p.platform.Name()
	for _, a := range results {
		// Stamp provenance so tier-weighted voting can tell the merged
		// answers apart (the model platform self-stamps; human
		// platforms do not know they are a tier).
		if a.Source == "" {
			a.Source = tier
		}
	}
	if m.payer != nil {
		approved, err := m.payer.Settle(p.platform, results)
		if err != nil {
			m.finish(p, nil, fmt.Errorf("taskmgr: settle: %w", err))
			return
		}
		m.mu.Lock()
		// Priced at the tier the group was posted on — the model tier's
		// reward differs from the human one.
		m.stats.ApprovedSpend += crowd.Cents(approved) * p.reward
		m.platformStatsLocked(tier, func(ps *PlatformStats) {
			ps.ApprovedSpend += crowd.Cents(approved) * p.reward
		})
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.stats.AssignmentsIn += len(results)
	m.platformStatsLocked(tier, func(ps *PlatformStats) { ps.Assignments += len(results) })
	m.mu.Unlock()

	byHIT := groupByHIT(results, len(p.group.HITs))

	if m.cfg.ModelPlatform != nil && p.platform == m.cfg.ModelPlatform && !p.escalated {
		// Model tier resolved: escalate the HITs whose answers miss the
		// confidence or agreement floors; the rest stand as-is.
		if contested := m.contestedHITs(p.group, byHIT); len(contested) > 0 {
			if m.escalate(p, byHIT, contested) {
				return // now live on the human tier; a later poll resolves it
			}
			// The human tier refused the re-post even after retries;
			// degrade gracefully to the model answers we already paid for.
		}
	} else if p.escalated {
		// Human answers for the contested HITs merge with the model
		// answers for everything (model votes first, then human votes;
		// voting is order-independent, this just keeps replay stable).
		for hitID, human := range byHIT {
			byHIT[hitID] = append(append([]*crowd.Assignment{}, p.modelByHIT[hitID]...), human...)
		}
		for hitID, model := range p.modelByHIT {
			if _, ok := byHIT[hitID]; !ok {
				byHIT[hitID] = model
			}
		}
	}
	m.finish(p, byHIT, nil)
}

// groupByHIT indexes assignments by HIT ID, each HIT's in their order in
// results. The per-HIT slices are runs of one stably sorted copy, so the
// index costs that copy and the map, however many HITs there are.
func groupByHIT(results []*crowd.Assignment, hits int) map[string][]*crowd.Assignment {
	sorted := slices.Clone(results)
	slices.SortStableFunc(sorted, func(a, b *crowd.Assignment) int { return strings.Compare(a.HITID, b.HITID) })
	byHIT := make(map[string][]*crowd.Assignment, hits)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].HITID == sorted[i].HITID {
			j++
		}
		byHIT[sorted[i].HITID] = sorted[i:j:j]
		i = j
	}
	return byHIT
}

// contestedHITs returns the group's HITs whose model-tier answers are
// not trustworthy on their own: mean confidence below ConfidenceFloor,
// no usable answer, failed quorum, or a winning share below
// AgreementFloor on any input field.
func (m *Manager) contestedHITs(group *crowd.HITGroup, byHIT map[string][]*crowd.Assignment) []*crowd.HIT {
	var contested []*crowd.HIT
	for _, hit := range group.HITs {
		as := byHIT[hit.ID]
		if len(as) == 0 {
			contested = append(contested, hit)
			continue
		}
		conf := 0.0
		for _, a := range as {
			conf += a.Confidence
		}
		if conf/float64(len(as)) < m.cfg.ConfidenceFloor {
			contested = append(contested, hit)
			continue
		}
		for _, field := range hit.InputFields() {
			votes := make([]quality.Vote, 0, len(as))
			for _, a := range as {
				if ans, ok := a.Answers[field]; ok {
					votes = append(votes, quality.Vote{WorkerID: a.WorkerID, Answer: ans})
				}
			}
			d := quality.MajorityVote(votes, quality.MajorityFor(len(as)))
			if !d.Quorum || d.Confidence < m.cfg.AgreementFloor {
				contested = append(contested, hit)
				break
			}
		}
	}
	return contested
}

// escalate re-posts the contested HITs to the human platform at the
// human price and replication, keeping p in flight on the new tier. The
// group's deadline restarts from the human posting. Reports false when
// the post failed past its retry budget — the caller then resolves with
// the model answers alone.
func (m *Manager) escalate(p *Pending, modelByHIT map[string][]*crowd.Assignment, contested []*crowd.HIT) bool {
	spec := *p.group
	spec.HITs = contested
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	id, err := m.postWithRetry(m.platform, &spec)
	if err != nil {
		return false
	}
	p.id = id
	p.platform = m.platform
	p.reward = spec.Reward
	p.escalated = true
	p.modelByHIT = modelByHIT
	p.postedAt = m.platform.Now()
	p.deadline = p.postedAt + m.cfg.MaxWait
	p.pollFails = 0

	m.mu.Lock()
	m.stats.GroupsPosted++
	m.stats.HITsPosted += len(contested)
	m.stats.EscalatedGroups++
	m.stats.EscalatedHITs += len(contested)
	m.platformStatsLocked(m.platform.Name(), func(ps *PlatformStats) {
		ps.Groups++
		ps.HITs += len(contested)
	})
	m.mu.Unlock()
	return true
}

// finish resolves p under the scheduler lock.
func (m *Manager) finish(p *Pending, byHIT map[string][]*crowd.Assignment, err error) {
	m.sched.mu.Lock()
	m.resolveLocked(p, byHIT, err)
	m.sched.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Call: the one future every crowd operator consumes.

// Call is an in-flight crowd request: a submitted HIT group plus the
// step that turns its assignments into the operator's result type
// (ProbeValuesAsync, NewTuplesBatchAsync, CompareEqualAsync and
// CompareOrderAsync each return an instantiation). A nil *Call is the
// empty request: it resolves to the zero T at once.
type Call[T any] struct {
	pending *Pending
	// decode feeds the quality tracker and the decision counters, so it
	// runs exactly once however often Wait is called.
	decode func(byHIT map[string][]*crowd.Assignment) T
	once   sync.Once
	res    T
}

// newCall submits group and wraps its handle with the result decoder.
func newCall[T any](m *Manager, group *crowd.HITGroup, decode func(map[string][]*crowd.Assignment) T) *Call[T] {
	return &Call[T]{pending: m.Submit(group), decode: decode}
}

// Wait blocks for the group's answers; results align with the request
// slice. Wait is idempotent: repeated calls return the same result.
func (c *Call[T]) Wait() (T, error) {
	return c.WaitCtx(context.Background())
}

// WaitCtx is Wait with cancellation. A cancelled WaitCtx returns ctx's
// error without consuming the result — a later Wait still collects it.
func (c *Call[T]) WaitCtx(ctx context.Context) (T, error) {
	var zero T
	if c == nil {
		return zero, nil
	}
	byHIT, err := c.pending.WaitCtx(ctx)
	if err != nil {
		return zero, err
	}
	c.once.Do(func() { c.res = c.decode(byHIT) })
	return c.res, nil
}

// Abort withdraws the request if it is still queued behind the in-flight
// window (see Pending.Cancel) and reports whether it did; posted groups
// are left to resolve. Callers refund work counted for a withdrawn
// request — it never reached the platform, so it was never committed.
func (c *Call[T]) Abort() bool {
	return c != nil && c.pending.Cancel()
}

// Telemetry reports the underlying group's scheduler lifecycle (zero for
// the nil call).
func (c *Call[T]) Telemetry() GroupTelemetry {
	if c == nil {
		return GroupTelemetry{}
	}
	return c.pending.Telemetry()
}
