// Package model simulates a model-worker crowdsourcing platform: the
// "workers" are LLM-style answerers with a configurable cost/latency/
// accuracy/confidence profile instead of a human marketplace. A decade
// after the paper, the cheapest worker for most CNULL probes and
// comparisons is a model — humans are reserved for the contested tail —
// so this platform is the cheap tier the Task Manager's escalation
// router posts to first (see taskmgr: ModelPlatform).
//
// Unlike the human simulators (amt, mobile), no worker arrives: every
// assignment's worker, answer, confidence and latency are drawn from the
// seeded RNG the moment the group is posted, and the group goes into a
// sim.Market already answered (PostAnswered). The market lands each answer
// at its latency and keeps the group's books exactly as it does for the
// human platforms. Replay is therefore deterministic for a fixed seed and
// Post order regardless of how often the scheduler polls — the same
// property the determinism tests pin for the human platforms, with a
// stronger guarantee (poll cadence cannot perturb the RNG stream).
package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/quality"
	"crowddb/internal/sim"
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

// Platform is the simulated model-answerer service. It implements
// crowd.Platform: it makes a group's answers itself and posts them into
// its own sim.Market, which lands each at its latency and serves the group
// lifecycle (Status, Results, Reject, Expire, Step, Now), forgetting a
// group by the market's rule. Post serializes on the platform's mutex so
// the answers are drawn in Post order.
type Platform struct {
	*sim.Market
	name string
	prof Profile

	mu     sync.Mutex
	rng    *rand.Rand
	unsure int
	calls  int // assignments ever generated (worker rotation)
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
		Market: sim.NewMarket(sim.Config{}), // no worker pool: answers are posted already made
		name:   name,
		prof:   p,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Name implements crowd.Platform.
func (p *Platform) Name() string { return p.name }

// Post implements crowd.Platform. Every assignment is generated here, in
// one go — worker, answers, confidence and latency — and the group is
// posted with them, so poll cadence cannot perturb the RNG stream.
func (p *Platform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	if err := g.Validate(); err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.PostAnswered(g, p.generateLocked(g))
}

// generateLocked draws every assignment of a valid group, HIT by HIT:
// answers, then latency, then confidence.
func (p *Platform) generateLocked(g *crowd.HITGroup) []sim.Answer {
	var answers []sim.Answer
	for i, hit := range g.HITs {
		first := len(answers)
		for r := 0; r < g.Assignments; r++ {
			worker := fmt.Sprintf("%s-w%02d", p.name, p.calls%p.prof.Workers)
			p.calls++
			out, correct := p.answerLocked(hit)
			lat := p.jitterLocked(p.prof.Latency, p.prof.LatencyJitter)
			answers = append(answers, sim.Answer{HIT: i, Latency: lat, Assignment: &crowd.Assignment{
				WorkerID:   worker,
				Answers:    out,
				Confidence: p.confidenceLocked(correct),
				Source:     p.name,
			}})
			// Unanimous early answers satisfy an adaptive group without
			// its full replication, mirroring the human marketplace.
			if g.AdaptiveVotes && r+1 >= quality.MajorityFor(g.Assignments) && unanimous(answers[first:]) {
				break
			}
		}
	}
	return answers
}

// Approve implements crowd.Platform.
func (p *Platform) Approve(assignmentID string, bonus crowd.Cents) error {
	_, err := p.Market.Approve(assignmentID, bonus)
	return err
}

// unanimous reports whether every answer agrees on every field (exact
// match — the model emits clean strings).
func unanimous(answers []sim.Answer) bool {
	for _, a := range answers[1:] {
		if !slices.Equal(a.Answers, answers[0].Answers) {
			return false
		}
	}
	return true
}

// answerLocked generates one model answer for the HIT, reporting whether
// every field came out correct (drives confidence calibration).
func (p *Platform) answerLocked(hit *crowd.HIT) (crowd.Answers, bool) {
	var answers crowd.Answers
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
			answers = append(answers, crowd.Answer{Field: f.Name, Value: p.unsureLocked()})
			correct = false
		case truth == "":
			// No ground truth to simulate against: the model abstains,
			// which quality control treats as garbage and the router
			// escalates — the safe behavior for an unanswerable task.
			answers = append(answers, crowd.Answer{Field: f.Name, Value: p.unsureLocked()})
			correct = false
		default:
			eff := p.prof.Accuracy*(1-difficulty) + 0.5*difficulty
			if p.rng.Float64() < eff {
				answers = append(answers, crowd.Answer{Field: f.Name, Value: truth})
			} else {
				answers = append(answers, crowd.Answer{Field: f.Name, Value: p.wrongLocked(hit, f, truth)})
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
