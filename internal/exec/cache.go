package exec

import (
	"context"
	"sync"
)

// CompareCache is the cross-session memo for CrowdCompare answers. The
// engine persists it in a system table so comparisons, like all crowd
// answers, are paid for only once (paper §3: "Results obtained from the
// crowd are always stored in the database for future use").
//
// Residency rule: every answer memoized or loaded stays in the map for the
// life of the process, so the map is the one place a read looks. There is
// no eviction because there is nothing to evict to — the system table
// lives in the same in-memory MVCC heap, so a dropped entry would still
// cost a stored row and an index key (measured: capping 100 000 answers at
// 1 000 resident saved 13 % of the bytes).
//
// Singleflight: Claim marks a question as in flight, so identical
// concurrent questions from other sessions wait for the first asker's HIT
// group instead of paying the crowd twice. Claims resolve when the leader
// memoizes the answer (PutEqual/PutOrder) or abandons it.
//
// All methods are safe for concurrent use.
type CompareCache struct {
	mu      sync.Mutex
	entries map[Key]string // answer: "yes"/"no" for equal, the winning label for order
	flights map[Key]*flight
	dirty   []Entry // memoized since the last TakeDirty, in memoization order
	stats   CacheStats
}

// CacheStats counts the shared cache's activity across all sessions.
type CacheStats struct {
	// Hits counts claims answered from a resident entry.
	Hits int64
	// Misses counts claims that found neither an entry nor a flight (the
	// claimant became the leader and will pay the crowd).
	Misses int64
	// Shared counts claims that joined another session's in-flight
	// question instead of posting their own HIT group.
	Shared int64
	// Size is the current number of resident entries.
	Size int
}

// NewCompareCache returns an empty cache.
func NewCompareCache() *CompareCache {
	return &CompareCache{entries: make(map[Key]string), flights: make(map[Key]*flight)}
}

// InFlight reports the number of unresolved singleflight claims. A quiet
// cache must read zero: every leader either memoized an answer or
// abandoned its claim (the cancellation tests pin this down).
func (c *CompareCache) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// Stats returns a snapshot of the cache counters.
func (c *CompareCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Size = len(c.entries)
	return st
}

const (
	kindEqual = "equal"
	kindOrder = "order"
)

// Key identifies one crowd comparison (the system table's primary key).
// The pair is unordered: Left <= Right.
type Key struct {
	Kind     string // "equal" | "order"
	Question string
	Left     string
	Right    string
}

func newKey(kind, question, l, r string) Key {
	if r < l {
		l, r = r, l
	}
	return Key{kind, question, l, r}
}

// get reads without touching the hit/miss counters: the claim path owns
// the accounting, and post-resolution re-reads (e.g. the crowd sorter
// consulting verdicts while partitioning) would inflate the numbers.
func (c *CompareCache) get(kind, question, l, r string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[newKey(kind, question, l, r)]
	return v, ok
}

func (c *CompareCache) put(kind, question, l, r, val string) {
	key := newKey(kind, question, l, r)
	c.mu.Lock()
	c.entries[key] = val
	c.dirty = append(c.dirty, Entry{key, val})
	f := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if f != nil {
		f.resolve(val, true)
	}
}

// TakeDirty drains the entries memoized since the last call, in
// memoization order. The engine persists exactly these after each query
// instead of re-scanning the whole (cross-session, potentially large)
// cache.
func (c *CompareCache) TakeDirty() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.dirty
	c.dirty = nil
	return d
}

// GetEqual looks up a cached CROWDEQUAL verdict.
func (c *CompareCache) GetEqual(question, l, r string) (bool, bool) {
	v, ok := c.get(kindEqual, question, l, r)
	return v == "yes", ok
}

// PutEqual memoizes a CROWDEQUAL verdict and resolves any in-flight claim.
func (c *CompareCache) PutEqual(question, l, r string, same bool) {
	v := "no"
	if same {
		v = "yes"
	}
	c.put(kindEqual, question, l, r, v)
}

// GetOrder looks up a cached CROWDORDER winner.
func (c *CompareCache) GetOrder(question, l, r string) (string, bool) {
	return c.get(kindOrder, question, l, r)
}

// PutOrder memoizes a CROWDORDER winner and resolves any in-flight claim.
func (c *CompareCache) PutOrder(question, l, r, winner string) {
	c.put(kindOrder, question, l, r, winner)
}

// ---------------------------------------------------------------------------
// Singleflight claims

// flight is one in-flight crowd question; resolve publishes the answer (or
// the leader's abandonment) exactly once.
type flight struct {
	once sync.Once
	done chan struct{}
	val  string
	ok   bool
}

func (f *flight) resolve(val string, ok bool) {
	f.once.Do(func() {
		f.val = val
		f.ok = ok
		close(f.done)
	})
}

// Claim is the outcome of asking the cache who owns a crowd question.
// Exactly one of three states holds:
//
//   - Hit: the answer is resident; Value carries it.
//   - Leader: the caller owns the question. It must either memoize an
//     answer (PutEqual/PutOrder) or call Abandon — otherwise followers
//     block forever.
//   - follower (neither flag): another session is already asking the
//     crowd; Wait blocks for its answer.
type Claim struct {
	Hit    bool
	Leader bool
	Value  string
	c      *CompareCache
	key    Key
	f      *flight
}

// Wait blocks until the claimed question resolves and returns the answer.
// ok is false when the leader abandoned the flight (error, no quorum, or
// budget denial); the caller should re-claim or fall back.
func (cl Claim) Wait() (string, bool) {
	return cl.WaitCtx(context.Background())
}

// WaitCtx is Wait with cancellation: it returns ("", false) as soon as the
// context is done, leaving the flight (and its eventual answer) untouched
// for other followers.
func (cl Claim) WaitCtx(ctx context.Context) (string, bool) {
	if cl.Hit {
		return cl.Value, true
	}
	if cl.f == nil {
		return "", false
	}
	select {
	case <-cl.f.done:
		return cl.f.val, cl.f.ok
	case <-ctx.Done():
		return "", false
	}
}

// Abandon releases a leader claim without an answer, waking followers with
// ok=false. Safe to call after the answer was memoized (it is then a
// no-op), so leaders can simply defer it.
func (cl Claim) Abandon() {
	if cl.f == nil || cl.c == nil {
		return
	}
	cl.c.mu.Lock()
	if cl.c.flights[cl.key] == cl.f {
		delete(cl.c.flights, cl.key)
	}
	cl.c.mu.Unlock()
	cl.f.resolve("", false)
}

// ClaimEqual claims a CROWDEQUAL question (see Claim).
func (c *CompareCache) ClaimEqual(question, l, r string) Claim {
	return c.claim(kindEqual, question, l, r)
}

// ClaimOrder claims a CROWDORDER question (see Claim).
func (c *CompareCache) ClaimOrder(question, l, r string) Claim {
	return c.claim(kindOrder, question, l, r)
}

func (c *CompareCache) claim(kind, question, l, r string) Claim {
	key := newKey(kind, question, l, r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.entries[key]; ok {
		c.stats.Hits++
		return Claim{Hit: true, Value: v}
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Shared++
		return Claim{c: c, key: key, f: f}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	return Claim{Leader: true, c: c, key: key, f: f}
}

// ---------------------------------------------------------------------------
// Persistence

// Entry is one persisted cache row (kind, question, left, right, answer).
type Entry struct {
	Key
	Answer string // "yes"/"no" or the winning label
}

// Load restores persisted entries. They are already durable, so they are
// not marked dirty, and Load does not touch the stats counters.
func (c *CompareCache) Load(entries []Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		c.entries[newKey(e.Kind, e.Question, e.Left, e.Right)] = e.Answer
	}
}
