package taskmgr

import (
	"time"

	"crowddb/internal/obs"
)

// GroupTelemetry is one HIT group's scheduler lifecycle, in virtual
// platform time: whether it waited behind the in-flight window, and when
// it was posted and resolved. The exec layer stamps it onto trace spans.
type GroupTelemetry struct {
	Queued     bool
	Posted     bool
	PostedAt   time.Duration
	ResolvedAt time.Duration
	// Tier names the platform the group last ran on ("model" until an
	// escalation moves it to the human platform); Escalated reports
	// whether the escalation router re-posted part of it to humans.
	Tier      string
	Escalated bool
}

// Telemetry snapshots the group's scheduler lifecycle. Safe any time;
// fields are final once the group resolves.
func (p *Pending) Telemetry() GroupTelemetry {
	if p == nil {
		return GroupTelemetry{}
	}
	p.m.sched.mu.Lock()
	defer p.m.sched.mu.Unlock()
	tel := GroupTelemetry{
		Queued:     p.wasQueued,
		Posted:     p.posted,
		PostedAt:   p.postedAt,
		ResolvedAt: p.resolvedAt,
		Escalated:  p.escalated,
	}
	if p.platform != nil {
		tel.Tier = p.platform.Name()
	}
	return tel
}

// RegisterMetrics exports the Task Manager's counters into the registry:
// scrape-time reads of the existing Stats plus a live round-trip
// histogram fed by recordLatency. Virtual (simulated) crowd seconds, not
// wall time.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	m.mu.Lock()
	// One minute to ~2.3 virtual days, doubling.
	m.roundtrip = reg.Histogram("crowddb_taskmgr_group_roundtrip_seconds",
		"HIT group post-to-resolution round trip, in virtual crowd seconds",
		obs.ExpBuckets(60, 2, 12))
	m.mu.Unlock()
	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(m.Stats()) }
	}
	reg.CounterFunc("crowddb_taskmgr_groups_posted_total",
		"HIT groups posted to the crowd platform",
		stat(func(s Stats) float64 { return float64(s.GroupsPosted) }))
	reg.CounterFunc("crowddb_taskmgr_hits_posted_total",
		"individual HITs posted to the crowd platform",
		stat(func(s Stats) float64 { return float64(s.HITsPosted) }))
	reg.CounterFunc("crowddb_taskmgr_assignments_in_total",
		"worker assignments collected",
		stat(func(s Stats) float64 { return float64(s.AssignmentsIn) }))
	reg.CounterFunc("crowddb_taskmgr_decisions_total",
		"quality-controlled decisions handed back to operators",
		stat(func(s Stats) float64 { return float64(s.Decisions) }))
	reg.CounterFunc("crowddb_taskmgr_retries_total",
		"transient platform call failures absorbed by the retry policy",
		stat(func(s Stats) float64 { return float64(s.Retries) }))
	reg.CounterFunc("crowddb_taskmgr_expired_groups_total",
		"HIT groups that hit MaxWait before reaching quorum",
		stat(func(s Stats) float64 { return float64(s.ExpiredGroups) }))
	reg.CounterFunc("crowddb_taskmgr_approved_spend_cents_total",
		"cents approved and paid to workers through the WRM",
		stat(func(s Stats) float64 { return float64(s.ApprovedSpend) }))
	reg.GaugeFunc("crowddb_taskmgr_inflight_groups",
		"HIT groups currently live on the platform",
		func() float64 { in, _ := m.Load(); return float64(in) })
	reg.GaugeFunc("crowddb_taskmgr_queued_groups",
		"HIT groups queued behind the in-flight window",
		func() float64 { _, q := m.Load(); return float64(q) })

	// Tier split: the escalation router's activity. Flat zeros when no
	// model tier is configured, so dashboards can rely on the families
	// existing.
	modelTier := func(s Stats) PlatformStats {
		if m.cfg.ModelPlatform == nil {
			return PlatformStats{}
		}
		return s.ByPlatform[m.cfg.ModelPlatform.Name()]
	}
	humanTier := func(s Stats) PlatformStats { return s.ByPlatform[m.platform.Name()] }
	reg.CounterFunc("crowddb_crowd_tier_model_groups_total",
		"HIT groups posted to the model tier by the escalation router",
		stat(func(s Stats) float64 { return float64(s.ModelGroupsPosted) }))
	reg.CounterFunc("crowddb_crowd_tier_model_answers_total",
		"model-tier assignments collected",
		stat(func(s Stats) float64 { return float64(modelTier(s).Assignments) }))
	reg.CounterFunc("crowddb_crowd_tier_model_spend_cents_total",
		"cents approved on the model tier",
		stat(func(s Stats) float64 { return float64(modelTier(s).ApprovedSpend) }))
	reg.CounterFunc("crowddb_crowd_tier_human_answers_total",
		"human-platform assignments collected",
		stat(func(s Stats) float64 { return float64(humanTier(s).Assignments) }))
	reg.CounterFunc("crowddb_crowd_tier_human_spend_cents_total",
		"cents approved on the human platform",
		stat(func(s Stats) float64 { return float64(humanTier(s).ApprovedSpend) }))
	reg.CounterFunc("crowddb_crowd_tier_escalations_total",
		"HIT groups escalated from the model tier to the human platform",
		stat(func(s Stats) float64 { return float64(s.EscalatedGroups) }))
	reg.CounterFunc("crowddb_crowd_tier_escalated_hits_total",
		"individual HITs escalated to the human platform",
		stat(func(s Stats) float64 { return float64(s.EscalatedHITs) }))
}
