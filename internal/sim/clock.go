// Package sim is the discrete-event crowd simulator that stands in for the
// live crowds of the paper's evaluation (AMT workers and VLDB attendees).
// It models, in virtual time: price-elastic Poisson worker arrival, worker
// affinity (returning workers do most of the work), per-worker skill and
// diligence, log-normal task latency, and answer noise — the behaviours the
// paper's platform micro-benchmarks measure. Every simulated platform posts
// into its Market: the human ones (amt, mobile) for its workers to answer,
// the model tier with answers it made itself (PostAnswered); the Market
// keeps every group's books. Everything is seeded and deterministic.
//
// A group's books are sized when it is posted: its HITs' workers and
// answers, and its assignments, are sliced from arrays made then, and its
// clock events are values in the clock's own heap. So a worker arriving,
// an answer landing or a poll allocates only what it hands out — the
// answer itself, its ID, Results' copies.
package sim

import "time"

// Clock is a virtual clock with a queue of events of type E, kept as
// values in a binary heap the clock owns: once the heap has grown,
// scheduling an event allocates nothing. Events due at the same instant
// fire in schedule order (determinism). It is not safe for concurrent
// use; the Market serializes access. The zero Clock is at virtual time
// zero with nothing scheduled.
type Clock[E any] struct {
	now time.Duration
	seq int64
	q   []timed[E]
}

// timed is one scheduled event; seq breaks ties between equal instants.
type timed[E any] struct {
	at  time.Duration
	seq int64
	ev  E
}

func (a *timed[E]) before(b *timed[E]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Now returns the current virtual time.
func (c *Clock[E]) Now() time.Duration { return c.now }

// Schedule queues ev to fire after delay of virtual time. A negative delay
// fires at the current instant (on the next RunFor).
func (c *Clock[E]) Schedule(delay time.Duration, ev E) {
	c.seq++
	c.q = append(c.q, timed[E]{at: c.now + max(delay, 0), seq: c.seq, ev: ev})
	// Sift the new event up.
	for i := len(c.q) - 1; i > 0; {
		p := (i - 1) / 2
		if !c.q[i].before(&c.q[p]) {
			break
		}
		c.q[i], c.q[p] = c.q[p], c.q[i]
		i = p
	}
}

// RunFor advances virtual time by d, passing every event due in the window
// to fire, in time order. Events scheduled by fire are honored if they
// fall in the window.
func (c *Clock[E]) RunFor(d time.Duration, fire func(E)) {
	deadline := c.now + d
	for len(c.q) > 0 && c.q[0].at <= deadline {
		e := c.pop()
		c.now = e.at
		fire(e.ev)
	}
	c.now = deadline
}

// pop removes and returns the earliest event.
func (c *Clock[E]) pop() timed[E] {
	top, n := c.q[0], len(c.q)-1
	c.q[0] = c.q[n]
	c.q[n] = timed[E]{} // drop the event's references
	c.q = c.q[:n]
	// Sift the moved event down.
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && c.q[r].before(&c.q[l]) {
			l = r
		}
		if !c.q[l].before(&c.q[i]) {
			break
		}
		c.q[i], c.q[l] = c.q[l], c.q[i]
		i = l
	}
	return top
}
