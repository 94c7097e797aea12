package exec

import (
	"crowddb/internal/obs"
	"crowddb/internal/quality"
	"crowddb/internal/taskmgr"
)

// window is the dispatch window: the one lifecycle every HIT group a
// crowd operator posts goes through. The operator charges its work to a
// Stats counter, posts every group of a batch, then collects them in
// submission order. post checks for cancellation, publishes progress and
// opens the group's span; collect stamps the group's scheduler telemetry
// and quorum outcome on it. close runs on every way out (post and collect
// call it before returning an error): it refunds what was charged but
// never reached the scheduler, ends open spans as drained, and settles
// open groups — after a cancellation queued submissions are withdrawn and
// refunded while posted ones are left to the next clock driver; otherwise
// posted groups are waited out so they do not keep occupying the
// scheduler's window after the query unwinds.
//
// Only work that reached the scheduler stays charged: the counter feeds
// the comparison budget, the job's cents and the session settlement.
type window[T any] struct {
	ctx     *Ctx
	span    string // span name of every group
	counter *int   // the Stats counter the work is charged to
	// tally reports a group's usable answers and reached quorums.
	tally func(T) (answers, quorum int)

	groups   []windowGroup[T]
	next     int  // groups[next:] are posted and not yet collected
	unposted int  // charged units not yet handed to the scheduler
	unnoted  bool // charged since progress was last published
}

// windowGroup is one posted HIT group.
type windowGroup[T any] struct {
	call  *taskmgr.Call[T]
	span  *obs.Span
	units int // the group's share of the charge
}

// charge counts n units of crowd work the operator is about to post.
func (w *window[T]) charge(n int) {
	*w.counter += n
	w.unposted += n
	w.unnoted = true
}

// post submits one group worth units of the charge. submit sets the
// span's attributes and hands the request to the Task Manager.
func (w *window[T]) post(units int, submit func(sp *obs.Span) (*taskmgr.Call[T], error)) error {
	if err := w.ctx.Canceled(); err != nil {
		w.close()
		return err
	}
	if w.unnoted {
		w.unnoted = false
		w.ctx.noteProgress()
	}
	sp := w.ctx.startCrowdSpan(w.span)
	call, err := submit(sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		w.close()
		return err
	}
	w.unposted -= units
	w.groups = append(w.groups, windowGroup[T]{call: call, span: sp, units: units})
	return nil
}

// open reports whether a posted group is still to be collected.
func (w *window[T]) open() bool { return w.next < len(w.groups) }

// collect waits for the oldest open group and returns its result.
func (w *window[T]) collect() (T, error) {
	g := w.groups[w.next]
	res, err := g.call.WaitCtx(w.ctx.context())
	if err != nil {
		g.span.SetAttr("error", err.Error())
		w.close()
		return res, err
	}
	w.next++
	if g.span != nil {
		answers, quorum := w.tally(res)
		finishGroupSpan(g.span, g.call.Telemetry(), answers, quorum)
	}
	return res, nil
}

// close settles whatever the window still holds (see window); a no-op
// once every charged unit was posted and collected.
func (w *window[T]) close() {
	*w.counter -= w.unposted
	w.unposted = 0
	for _, g := range w.groups[w.next:] {
		g.span.SetAttr("drained", "true")
		g.span.End()
		if w.ctx.Canceled() != nil {
			if g.call.Abort() {
				*w.counter -= g.units
			}
			continue
		}
		g.call.Wait() //nolint:errcheck // settling after an error: the result is dropped
	}
	w.next = len(w.groups)
}

// The tally functions of the three request kinds.

func probeTally(results []taskmgr.ProbeResult) (answers, quorum int) {
	for _, res := range results {
		for _, d := range res.Decisions {
			answers += d.Total
			if d.Quorum {
				quorum++
			}
		}
	}
	return answers, quorum
}

func tupleTally(batches [][]map[string]string) (candidates, _ int) {
	for _, cands := range batches {
		candidates += len(cands)
	}
	return candidates, 0
}

func compareTally(ds []quality.Decision) (answers, quorum int) {
	for _, d := range ds {
		answers += d.Total
		if d.Quorum {
			quorum++
		}
	}
	return answers, quorum
}
