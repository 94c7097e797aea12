// Package sim is the discrete-event crowd simulator that stands in for the
// live crowds of the paper's evaluation (AMT workers and VLDB attendees).
// It models, in virtual time: price-elastic Poisson worker arrival, worker
// affinity (returning workers do most of the work), per-worker skill and
// diligence, log-normal task latency, and answer noise — the behaviours the
// paper's platform micro-benchmarks measure. Every simulated platform posts
// into its Market: the human ones (amt, mobile) for its workers to answer,
// the model tier with answers it made itself (PostAnswered); the Market
// keeps every group's books. Everything is seeded and deterministic.
package sim

import (
	"container/heap"
	"time"
)

// event is one scheduled callback in virtual time. seq breaks ties so
// same-instant events run in schedule order (determinism).
type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Clock is a virtual clock with an event queue. It is not safe for
// concurrent use; the Market serializes access.
type Clock struct {
	now time.Duration
	pq  eventQueue
	seq int64
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Schedule runs fn after delay of virtual time. A negative delay runs at the
// current instant (on the next Run step).
func (c *Clock) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	c.seq++
	heap.Push(&c.pq, &event{at: c.now + delay, seq: c.seq, fn: fn})
}

// RunFor advances virtual time by d, firing every event due in the window.
// Events scheduled by fired events are honored if they fall in the window.
func (c *Clock) RunFor(d time.Duration) {
	deadline := c.now + d
	for len(c.pq) > 0 && c.pq[0].at <= deadline {
		e := heap.Pop(&c.pq).(*event)
		c.now = e.at
		e.fn()
	}
	c.now = deadline
}
