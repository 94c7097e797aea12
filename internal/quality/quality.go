// Package quality implements CrowdDB's quality control (paper §3.2.1):
// "human inputs are inherently error prone and diverse in formats" —
// answers are first cleansed (normalized) and then resolved by majority
// vote across a HIT's replicated assignments. The package also tracks
// per-worker agreement scores the Worker Relationship Manager consults.
package quality

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Normalize cleanses one raw crowd answer: trims, collapses inner
// whitespace, and lower-cases. Votes compare normalized forms, but the
// winning *display* value is the most common raw spelling of the winning
// normalized form. An answer that is already normal is returned as is,
// without allocating.
func Normalize(s string) string {
	if isNormalASCII(s) {
		return s
	}
	return normalizeRunes(s)
}

// isNormalASCII reports whether s is ASCII that Normalize leaves as it is:
// no upper case, and no white space but single blanks between words. It
// is false for any other text, which normalizeRunes then cleanses.
func isNormalASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, 'A' <= c && c <= 'Z', c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i-1] == ' '):
			return false
		}
	}
	return true
}

// normalizeRunes is Normalize for any text, rune by rune.
func normalizeRunes(s string) string {
	s = strings.TrimSpace(s)
	var sb strings.Builder
	sb.Grow(len(s))
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
func IsGarbage(raw string) bool { return garbageNormal(Normalize(raw)) }

// garbageNormal is IsGarbage for an answer already normalized.
func garbageNormal(n string) bool { return garbage[n] || strings.HasPrefix(n, "unsure-") }

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
// broken by normalized form, shown in its most common raw spelling (ties
// broken by spelling), and Confidence is its share of the usable weight. A
// nil weight counts every vote as 1, so Confidence is the winner's share
// of the votes; a weight below or at 0 counts as 0.01. Agreed lists the
// winner's voters and Disagreed the garbage voters, then each losing
// bucket's in rank order, each in vote order.
//
// A field has a handful of votes, so its buckets are a slice searched in
// turn, kept on the stack up to 16 of them; each vote is normalized once,
// and the two worker lists share one array, the only allocation when
// every answer is already normal.
func tally(votes []Vote, weight func(workerID string) float64) Decision {
	type bucket struct {
		norm   string
		weight float64
		count  int
	}
	var bucketBuf [16]bucket
	var ofBuf, rankBuf [16]int
	buckets := bucketBuf[:0]
	of := ofBuf[:0] // each vote's bucket, -1 for garbage
	var d Decision
	totalWeight := 0.0
	for _, v := range votes {
		n := Normalize(v.Answer)
		if garbageNormal(n) {
			of = append(of, -1)
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
		b := 0
		for b < len(buckets) && buckets[b].norm != n {
			b++
		}
		if b == len(buckets) {
			buckets = append(buckets, bucket{norm: n})
		}
		buckets[b].weight += w
		buckets[b].count++
		of = append(of, b)
	}
	who := func(b int, into []string) []string {
		for i, v := range votes {
			if of[i] == b {
				into = append(into, v.WorkerID)
			}
		}
		return into
	}
	if d.Total == 0 {
		if len(votes) > 0 {
			d.Disagreed = who(-1, make([]string, 0, len(votes)))
		}
		return d
	}
	// Rank the buckets: most weight first, then by normalized form.
	rank := rankBuf[:0]
	for b := range buckets {
		rank = append(rank, b)
		for i := len(rank) - 1; i > 0; i-- {
			x, y := &buckets[rank[i]], &buckets[rank[i-1]]
			if x.weight < y.weight || (x.weight == y.weight && x.norm > y.norm) {
				break
			}
			rank[i], rank[i-1] = rank[i-1], rank[i]
		}
	}
	win := rank[0]
	d.Votes = buckets[win].count
	d.Confidence = buckets[win].weight / totalWeight
	// Most common raw spelling of the winner, the least such on a tie.
	bestN := 0
	for i, v := range votes {
		if of[i] != win {
			continue
		}
		raw, n := strings.TrimSpace(v.Answer), 0
		for j, u := range votes {
			if of[j] == win && strings.TrimSpace(u.Answer) == raw {
				n++
			}
		}
		if n > bestN || (n == bestN && raw < d.Value) {
			d.Value, bestN = raw, n
		}
	}
	names := who(win, make([]string, 0, len(votes)))
	d.Agreed = names[:d.Votes:d.Votes]
	names = who(-1, names)
	for _, b := range rank[1:] {
		names = who(b, names)
	}
	if len(names) > d.Votes {
		d.Disagreed = names[d.Votes:]
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
