// Package quality implements CrowdDB's quality control (paper §3.2.1):
// "human inputs are inherently error prone and diverse in formats" —
// answers are first cleansed (normalized) and then resolved by majority
// vote across a HIT's replicated assignments. The package also tracks
// per-worker agreement scores the Worker Relationship Manager consults.
package quality

import (
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Normalize cleanses one raw crowd answer: trims, collapses inner
// whitespace, and lower-cases. Votes compare normalized forms, but the
// winning *display* value is the most common raw spelling of the winning
// normalized form.
func Normalize(s string) string {
	s = strings.TrimSpace(s)
	var sb strings.Builder
	lastSpace := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			if !lastSpace {
				sb.WriteByte(' ')
			}
			lastSpace = true
			continue
		}
		lastSpace = false
		sb.WriteRune(unicode.ToLower(r))
	}
	return sb.String()
}

// garbage is the set of normalized answers considered unusable noise.
var garbage = map[string]bool{
	"": true, "asdf": true, "idk": true, "i don't know": true, "dont know": true,
	"???": true, "?": true, "n/a": true, "na": true, "none": true, "-": true,
	"good": true, "unknown": true,
}

// IsGarbage reports whether a raw answer is unusable noise. Answers like
// "unsure-123" (the simulator's confused-worker marker) also count.
func IsGarbage(raw string) bool {
	n := Normalize(raw)
	return garbage[n] || strings.HasPrefix(n, "unsure-")
}

// Vote is one worker's answer to one field.
type Vote struct {
	WorkerID string
	Answer   string
}

// Decision is the outcome of majority voting over one field.
type Decision struct {
	// Value is the winning answer, in its most common raw spelling.
	Value string
	// Votes is how many (non-garbage) votes the winner received.
	Votes int
	// Total is the number of usable votes cast.
	Total int
	// Confidence is Votes/Total (0 when no usable votes).
	Confidence float64
	// Agreed lists workers who voted for the winner; Disagreed the rest.
	Agreed, Disagreed []string
	// Quorum reports whether the winner met the required majority.
	Quorum bool
}

// MajorityVote resolves a field's replicated answers. minAgree is the
// absolute number of matching votes required for quorum (the paper's
// operators use replication/2+1); a minAgree of 0 means "plurality of
// usable votes wins".
func MajorityVote(votes []Vote, minAgree int) Decision {
	d := tally(votes, nil)
	d.Quorum = d.Total > 0 && (minAgree <= 0 || d.Votes >= minAgree)
	return d
}

// MajorityFor returns the standard quorum for a replication factor:
// floor(n/2)+1.
func MajorityFor(replication int) int { return replication/2 + 1 }

// WeightedVote resolves a field's replicated answers with votes weighted
// by each worker's agreement score (the SIGMOD paper sketches score-based
// quality control as the step beyond plain majority). weight returns a
// worker's weight; the Tracker's Score is the natural choice. Quorum is
// met when the winner's weight share reaches minShare (e.g. 0.5).
func WeightedVote(votes []Vote, weight func(workerID string) float64, minShare float64) Decision {
	d := tally(votes, weight)
	d.Quorum = d.Total > 0 && d.Confidence >= minShare
	return d
}

// tally buckets a field's usable votes by normalized answer and decides
// everything but the quorum: the winner is the bucket of most weight, ties
// broken by normalized form, shown in its most common raw spelling, and
// Confidence is its share of the usable weight. A nil weight counts every
// vote as 1, so Confidence is the winner's share of the votes; a weight
// below or at 0 counts as 0.01.
func tally(votes []Vote, weight func(workerID string) float64) Decision {
	type bucket struct {
		weight float64
		count  int
		raw    map[string]int // raw spelling -> occurrences
		who    []string
	}
	buckets := make(map[string]*bucket)
	var d Decision
	totalWeight := 0.0
	for _, v := range votes {
		if IsGarbage(v.Answer) {
			d.Disagreed = append(d.Disagreed, v.WorkerID)
			continue
		}
		d.Total++
		w := 1.0
		if weight != nil {
			if w = weight(v.WorkerID); w <= 0 {
				w = 0.01
			}
		}
		totalWeight += w
		n := Normalize(v.Answer)
		b := buckets[n]
		if b == nil {
			b = &bucket{raw: make(map[string]int)}
			buckets[n] = b
		}
		b.weight += w
		b.count++
		b.raw[strings.TrimSpace(v.Answer)]++
		b.who = append(b.who, v.WorkerID)
	}
	if d.Total == 0 {
		return d
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		bi, bj := buckets[keys[i]], buckets[keys[j]]
		if bi.weight != bj.weight {
			return bi.weight > bj.weight
		}
		return keys[i] < keys[j]
	})
	win := buckets[keys[0]]
	d.Votes = win.count
	d.Confidence = win.weight / totalWeight
	d.Agreed = win.who
	// Most common raw spelling of the winner.
	var bestRaw string
	bestN := -1
	raws := make([]string, 0, len(win.raw))
	for r := range win.raw {
		raws = append(raws, r)
	}
	sort.Strings(raws)
	for _, r := range raws {
		if win.raw[r] > bestN {
			bestN = win.raw[r]
			bestRaw = r
		}
	}
	d.Value = bestRaw
	for _, k := range keys[1:] {
		d.Disagreed = append(d.Disagreed, buckets[k].who...)
	}
	return d
}

// Tracker accumulates per-worker agreement statistics across decisions. A
// worker's score is the Laplace-smoothed fraction of votes that agreed with
// the majority — CrowdDB's cheap proxy for worker reliability.
type Tracker struct {
	mu    sync.Mutex
	stats map[string]*WorkerQuality
}

// WorkerQuality is one worker's running agreement record.
type WorkerQuality struct {
	WorkerID  string
	Agreed    int
	Disagreed int
}

// Score is the smoothed agreement rate in (0,1).
func (w *WorkerQuality) Score() float64 {
	return (float64(w.Agreed) + 1) / (float64(w.Agreed+w.Disagreed) + 2)
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{stats: make(map[string]*WorkerQuality)} }

// Record folds one decision's agreement lists into the tracker.
func (t *Tracker) Record(d Decision) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range d.Agreed {
		t.get(w).Agreed++
	}
	for _, w := range d.Disagreed {
		t.get(w).Disagreed++
	}
}

func (t *Tracker) get(id string) *WorkerQuality {
	wq := t.stats[id]
	if wq == nil {
		wq = &WorkerQuality{WorkerID: id}
		t.stats[id] = wq
	}
	return wq
}

// Score returns a worker's current agreement score (0.5 for unknowns).
func (t *Tracker) Score(workerID string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if wq, ok := t.stats[workerID]; ok {
		return wq.Score()
	}
	return 0.5
}
