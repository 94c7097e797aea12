// Package model simulates a model-worker crowdsourcing platform: the
// "workers" are LLM-style answerers with a configurable cost/latency/
// accuracy/confidence profile instead of a human marketplace. A decade
// after the paper, the cheapest worker for most CNULL probes and
// comparisons is a model — humans are reserved for the contested tail —
// so this platform is the cheap tier the Task Manager's escalation
// router posts to first (see taskmgr: ModelPlatform).
//
// Unlike the human simulators (amt, mobile), answers are pre-generated
// at Post time: every assignment's worker, answer, confidence, and
// virtual completion time are drawn from the seeded RNG the moment the
// group is posted. Replay is therefore deterministic for a fixed seed
// and Post order regardless of how often the scheduler polls — the same
// property the determinism tests pin for the human platforms, with a
// stronger guarantee (poll cadence cannot perturb the RNG stream).
package model

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/quality"
)

// Profile describes one model tier's behavior. The two presets bracket
// the trade-off experiments sweep: Sharp (expensive, accurate,
// well-calibrated confidence) and Cheap (sloppy, overconfident).
type Profile struct {
	// Workers is how many distinct model replicas answer (worker IDs
	// rotate across them; quality tracking scores each separately).
	Workers int
	// Accuracy is the per-answer correctness on a trivial task; HIT
	// difficulty scales it toward a coin flip exactly as the human
	// simulator does (eff = acc·(1−d) + 0.5·d).
	Accuracy float64
	// CorrectConfidence / WrongConfidence are the mean self-reported
	// confidences on correct and incorrect answers; ConfidenceNoise is
	// the ± half-width of the uniform spread around each. A calibrated
	// profile keeps the two ranges disjoint so a confidence floor
	// between them routes exactly the wrong answers to humans; a sloppy
	// profile overlaps them.
	CorrectConfidence float64
	WrongConfidence   float64
	ConfidenceNoise   float64
	// Latency is the mean virtual time per assignment; LatencyJitter is
	// the ± fraction of uniform spread around it.
	Latency       time.Duration
	LatencyJitter float64
	// GarbageRate is how often the model emits an unusable non-answer.
	GarbageRate float64
	// CostPerCall is the suggested per-assignment price in cents; the
	// router's ModelReward defaults from it.
	CostPerCall crowd.Cents
}

// Sharp is the expensive well-calibrated tier: high accuracy, and
// confidence ranges disjoint around the default 0.75 escalation floor
// (correct ∈ [0.80,0.94], wrong ∈ [0.48,0.62]), so escalations track
// actual mistakes.
func Sharp() Profile {
	return Profile{
		Workers:           4,
		Accuracy:          0.95,
		CorrectConfidence: 0.87,
		WrongConfidence:   0.55,
		ConfidenceNoise:   0.07,
		Latency:           5 * time.Second,
		LatencyJitter:     0.4,
		CostPerCall:       1,
	}
}

// Cheap is the sloppy tier: lower accuracy and overlapping, overconfident
// ranges (correct ∈ [0.63,0.93], wrong ∈ [0.53,0.83]) — its confidence is
// a weak escalation signal, which is exactly what experiments sweeping
// "cheap sloppy" vs "expensive sharp" want to expose.
func Cheap() Profile {
	return Profile{
		Workers:           4,
		Accuracy:          0.72,
		CorrectConfidence: 0.78,
		WrongConfidence:   0.68,
		ConfidenceNoise:   0.15,
		Latency:           2 * time.Second,
		LatencyJitter:     0.5,
		GarbageRate:       0.02,
		CostPerCall:       1,
	}
}

// ParseSpec builds a Profile from a flag string: a preset name ("sharp",
// "cheap"), optionally followed by comma-separated key=value overrides,
// e.g. "sharp,accuracy=0.9,latency=3s,workers=8". Keys: workers,
// accuracy, confidence, wrong-confidence, noise, latency, jitter,
// garbage, cost. A spec with no preset prefix overrides Sharp.
func ParseSpec(spec string) (Profile, error) {
	prof := Sharp()
	parts := strings.Split(spec, ",")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "=") {
			if i != 0 {
				return prof, fmt.Errorf("model: preset %q must come first in spec %q", part, spec)
			}
			switch part {
			case "sharp":
				prof = Sharp()
			case "cheap":
				prof = Cheap()
			default:
				return prof, fmt.Errorf("model: unknown preset %q (want sharp or cheap)", part)
			}
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "workers":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return prof, fmt.Errorf("model: bad workers %q", val)
			}
			prof.Workers = n
		case "accuracy", "confidence", "wrong-confidence", "noise", "jitter", "garbage":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both comparisons
				return prof, fmt.Errorf("model: bad %s %q (want 0..1)", key, val)
			}
			switch key {
			case "accuracy":
				prof.Accuracy = f
			case "confidence":
				prof.CorrectConfidence = f
			case "wrong-confidence":
				prof.WrongConfidence = f
			case "noise":
				prof.ConfidenceNoise = f
			case "jitter":
				prof.LatencyJitter = f
			case "garbage":
				prof.GarbageRate = f
			}
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return prof, fmt.Errorf("model: bad latency %q", val)
			}
			prof.Latency = d
		case "cost":
			c, err := strconv.Atoi(val)
			if err != nil || c <= 0 {
				return prof, fmt.Errorf("model: bad cost %q", val)
			}
			prof.CostPerCall = crowd.Cents(c)
		default:
			return prof, fmt.Errorf("model: unknown profile key %q", key)
		}
	}
	return prof, nil
}

// Config assembles a model platform.
type Config struct {
	Seed    int64
	Profile Profile
	// Name identifies the platform; defaults to "model". Distinct names
	// let one deployment route across several model tiers.
	Name string
}

// assignRec is one generated assignment plus its group bookkeeping.
type assignRec struct {
	a       *crowd.Assignment
	gr      *group
	readyAt time.Duration
}

type group struct {
	id        crowd.GroupID
	spec      *crowd.HITGroup
	assigns   []*assignRec
	settled   int // assignments approved or rejected
	expired   bool
	expiredAt time.Duration
}

// Platform is the simulated model-answerer service. It implements
// crowd.Platform; all methods serialize on one mutex, satisfying the
// interface's concurrency contract. It keeps a group only while it may
// still be asked about it (see forgetLocked), so its memory follows the
// groups in flight, not every group ever posted.
type Platform struct {
	name string
	prof Profile

	mu       sync.Mutex
	rng      *rand.Rand
	now      time.Duration
	groups   map[crowd.GroupID]*group
	byAssign map[string]*assignRec
	nextGrp  int
	nextAsn  int
	unsure   int
	calls    int // assignments ever generated (worker rotation)
}

// New builds a model platform. Zero-value profile fields fall back to
// the Sharp preset's.
func New(cfg Config) *Platform {
	p := cfg.Profile
	def := Sharp()
	if p.Workers <= 0 {
		p.Workers = def.Workers
	}
	if p.Accuracy <= 0 {
		p.Accuracy = def.Accuracy
	}
	if p.CorrectConfidence <= 0 {
		p.CorrectConfidence = def.CorrectConfidence
	}
	if p.WrongConfidence <= 0 {
		p.WrongConfidence = def.WrongConfidence
	}
	if p.Latency <= 0 {
		p.Latency = def.Latency
	}
	if p.CostPerCall <= 0 {
		p.CostPerCall = def.CostPerCall
	}
	name := cfg.Name
	if name == "" {
		name = "model"
	}
	return &Platform{
		name:     name,
		prof:     p,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		groups:   make(map[crowd.GroupID]*group),
		byAssign: make(map[string]*assignRec),
	}
}

// Name implements crowd.Platform.
func (p *Platform) Name() string { return p.name }

// Profile returns the platform's effective profile.
func (p *Platform) Profile() Profile { return p.prof }

// Post implements crowd.Platform. Every assignment is generated here,
// atomically: worker, answers, confidence, and completion time. The
// group is fully registered or not at all.
func (p *Platform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	if err := g.Validate(); err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextGrp++
	id := crowd.GroupID(fmt.Sprintf("%s-g-%04d", p.name, p.nextGrp))
	gr := &group{id: id, spec: g}
	for _, hit := range g.HITs {
		for r := 0; r < g.Assignments; r++ {
			worker := fmt.Sprintf("%s-w%02d", p.name, p.calls%p.prof.Workers)
			p.calls++
			answers, correct := p.answerLocked(hit)
			p.nextAsn++
			lat := p.jitterLocked(p.prof.Latency, p.prof.LatencyJitter)
			rec := &assignRec{
				a: &crowd.Assignment{
					ID:          fmt.Sprintf("%s-a-%06d", p.name, p.nextAsn),
					HITID:       hit.ID,
					WorkerID:    worker,
					Status:      crowd.AssignmentSubmitted,
					SubmittedAt: p.now + lat,
					Answers:     answers,
					Confidence:  p.confidenceLocked(correct),
					Source:      p.name,
				},
				gr:      gr,
				readyAt: p.now + lat,
			}
			gr.assigns = append(gr.assigns, rec)
			p.byAssign[rec.a.ID] = rec
			// Unanimous early answers satisfy an adaptive group without
			// its full replication, mirroring the human marketplace.
			if g.AdaptiveVotes && r+1 >= quality.MajorityFor(g.Assignments) && unanimous(gr, hit.ID) {
				break
			}
		}
	}
	p.groups[id] = gr
	return id, nil
}

// unanimous reports whether every generated answer for the HIT agrees on
// every field (exact match — the model emits clean strings).
func unanimous(gr *group, hitID string) bool {
	var first map[string]string
	for _, rec := range gr.assigns {
		if rec.a.HITID != hitID {
			continue
		}
		if first == nil {
			first = rec.a.Answers
			continue
		}
		if len(first) != len(rec.a.Answers) {
			return false
		}
		for k, v := range first {
			if rec.a.Answers[k] != v {
				return false
			}
		}
	}
	return first != nil
}

// answerLocked generates one model answer for the HIT, reporting whether
// every field came out correct (drives confidence calibration).
func (p *Platform) answerLocked(hit *crowd.HIT) (map[string]string, bool) {
	answers := make(map[string]string)
	correct := true
	for _, f := range hit.Fields {
		if f.Kind == crowd.FieldDisplay {
			continue
		}
		var truth string
		var difficulty float64
		if hit.Truth != nil {
			truth = hit.Truth.Truth[f.Name]
			difficulty = hit.Truth.Difficulty
		}
		switch {
		case p.prof.GarbageRate > 0 && p.rng.Float64() < p.prof.GarbageRate:
			answers[f.Name] = p.unsureLocked()
			correct = false
		case truth == "":
			// No ground truth to simulate against: the model abstains,
			// which quality control treats as garbage and the router
			// escalates — the safe behavior for an unanswerable task.
			answers[f.Name] = p.unsureLocked()
			correct = false
		default:
			eff := p.prof.Accuracy*(1-difficulty) + 0.5*difficulty
			if p.rng.Float64() < eff {
				answers[f.Name] = truth
			} else {
				answers[f.Name] = p.wrongLocked(hit, f, truth)
				correct = false
			}
		}
	}
	return answers, correct
}

// wrongLocked picks a plausible incorrect answer: the HIT's seeded wrong
// answers first, then another choice option, then an abstention.
func (p *Platform) wrongLocked(hit *crowd.HIT, f crowd.Field, truth string) string {
	if hit.Truth != nil {
		if ws := hit.Truth.Wrong[f.Name]; len(ws) > 0 {
			return ws[p.rng.Intn(len(ws))]
		}
	}
	if len(f.Options) > 0 {
		var others []string
		for _, o := range f.Options {
			if o != truth {
				others = append(others, o)
			}
		}
		if len(others) > 0 {
			return others[p.rng.Intn(len(others))]
		}
	}
	return p.unsureLocked()
}

func (p *Platform) unsureLocked() string {
	p.unsure++
	return fmt.Sprintf("unsure-%d", p.unsure)
}

// confidenceLocked draws a self-reported confidence from the profile's
// correct or wrong range, clamped to (0,1).
func (p *Platform) confidenceLocked(correct bool) float64 {
	base := p.prof.WrongConfidence
	if correct {
		base = p.prof.CorrectConfidence
	}
	c := base + p.prof.ConfidenceNoise*(2*p.rng.Float64()-1)
	if c < 0.05 {
		c = 0.05
	}
	if c > 0.99 {
		c = 0.99
	}
	return c
}

func (p *Platform) jitterLocked(d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + frac*(2*p.rng.Float64()-1)))
}

// readyLocked reports whether the assignment's answer has landed: its
// completion time has passed, and the group had not expired before it.
func (gr *group) readyLocked(rec *assignRec, now time.Duration) bool {
	if gr.expired && rec.readyAt > gr.expiredAt {
		return false
	}
	return rec.readyAt <= now
}

// Status implements crowd.Platform.
func (p *Platform) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gr, ok := p.groups[id]
	if !ok {
		return crowd.GroupStatus{}, fmt.Errorf("model: unknown group %q", id)
	}
	st := crowd.GroupStatus{Posted: len(gr.spec.HITs), Expired: gr.expired}
	perHIT := make(map[string]int)
	for _, rec := range gr.assigns {
		if gr.readyLocked(rec, p.now) {
			st.Submitted++
			perHIT[rec.a.HITID]++
		}
	}
	for _, hit := range gr.spec.HITs {
		want := gr.spec.Assignments
		if gr.spec.AdaptiveVotes {
			// An adaptive group generates fewer assignments for
			// unanimous HITs; all-generated-and-ready counts complete.
			if n := countFor(gr, hit.ID); n < want {
				want = n
			}
		}
		if perHIT[hit.ID] >= want {
			st.Completed++
		}
	}
	return st, nil
}

func countFor(gr *group, hitID string) int {
	n := 0
	for _, rec := range gr.assigns {
		if rec.a.HITID == hitID {
			n++
		}
	}
	return n
}

// Results implements crowd.Platform, returning copies of the ready
// assignments ordered by completion time then ID.
func (p *Platform) Results(id crowd.GroupID) ([]*crowd.Assignment, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gr, ok := p.groups[id]
	if !ok {
		return nil, fmt.Errorf("model: unknown group %q", id)
	}
	var out []*crowd.Assignment
	for _, rec := range gr.assigns {
		if !gr.readyLocked(rec, p.now) {
			continue
		}
		cp := *rec.a
		cp.Answers = make(map[string]string, len(rec.a.Answers))
		for k, v := range rec.a.Answers {
			cp.Answers[k] = v
		}
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SubmittedAt != out[j].SubmittedAt {
			return out[i].SubmittedAt < out[j].SubmittedAt
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Approve implements crowd.Platform: an assignment is approved at most
// once, and never after a rejection.
func (p *Platform) Approve(assignmentID string, bonus crowd.Cents) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.byAssign[assignmentID]
	if !ok {
		return fmt.Errorf("model: unknown assignment %q", assignmentID)
	}
	if rec.a.Status == crowd.AssignmentApproved {
		return fmt.Errorf("model: assignment %q already approved", assignmentID)
	}
	if rec.a.Status == crowd.AssignmentRejected {
		return fmt.Errorf("model: assignment %q already rejected", assignmentID)
	}
	p.settleLocked(rec, crowd.AssignmentApproved)
	return nil
}

// Reject implements crowd.Platform.
func (p *Platform) Reject(assignmentID, reason string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.byAssign[assignmentID]
	if !ok {
		return fmt.Errorf("model: unknown assignment %q", assignmentID)
	}
	if rec.a.Status == crowd.AssignmentApproved {
		return fmt.Errorf("model: assignment %q already approved", assignmentID)
	}
	if rec.a.Status == crowd.AssignmentSubmitted {
		p.settleLocked(rec, crowd.AssignmentRejected)
	}
	return nil
}

// settleLocked moves a submitted assignment to its final status.
func (p *Platform) settleLocked(rec *assignRec, to crowd.AssignmentStatus) {
	rec.a.Status = to
	rec.gr.settled++
	p.forgetLocked(rec.gr)
}

// forgetLocked drops a group the platform owes nothing more, with its
// assignments, under sim.Market's rule: done (complete or expired),
// nothing still to arrive, every landed answer settled. A group nobody
// answered is kept: its poster has yet to learn that from Status.
//
// An answer lands only once Results can have returned it, so a settled one
// has landed. Unexpired, every answer is still to arrive until it lands;
// expired, one that had not landed never will.
func (p *Platform) forgetLocked(gr *group) {
	if gr.settled == 0 {
		return
	}
	if gr.settled < len(gr.assigns) {
		if !gr.expired {
			return
		}
		for _, rec := range gr.assigns {
			if rec.a.Status == crowd.AssignmentSubmitted && gr.readyLocked(rec, p.now) {
				return
			}
		}
	}
	for _, rec := range gr.assigns {
		delete(p.byAssign, rec.a.ID)
	}
	delete(p.groups, gr.id)
}

// Expire implements crowd.Platform: answers not yet landed never will.
func (p *Platform) Expire(id crowd.GroupID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	gr, ok := p.groups[id]
	if !ok {
		return fmt.Errorf("model: unknown group %q", id)
	}
	if !gr.expired {
		gr.expired = true
		gr.expiredAt = p.now
		p.forgetLocked(gr)
	}
	return nil
}

// Step implements crowd.Platform.
func (p *Platform) Step(d time.Duration) {
	p.mu.Lock()
	p.now += d
	p.mu.Unlock()
}

// Now implements crowd.Platform.
func (p *Platform) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}
