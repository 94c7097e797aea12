package exec

import (
	"crowddb/internal/obs"
	"crowddb/internal/quality"
	"crowddb/internal/taskmgr"
)

// compareBroker is the one place every crowd comparison of a statement —
// CROWDEQUAL and CROWDORDER alike — passes through on its way to the
// crowd and back into the compare cache. Its users (the CrowdFilter's
// equalStream, the CROWDORDER quicksort, the per-row CROWDEQUAL resolver)
// decide which pairs they need and when; the broker classifies each pair
// against the cache and keeps the counters (claim), runs the pairs this
// session leads through the dispatch window and memoizes every verdict
// that reached a quorum (post, collect), waits for the pairs other
// sessions are asking (adopt), and releases and refunds whatever is left
// on any way out (close).
//
// Call-order contract. For a fixed seed the simulated crowd replays
// identically only if the Task Manager sees the same requests in the same
// order, and concurrent sessions stay deadlock-free only if nobody waits
// on a foreign flight while holding an unanswered claim. So, for every
// batch (a CrowdFilter's buffered rows, one quicksort round, one resolver
// attempt):
//
//  1. claims are taken in the caller's order — row-major for the filter,
//     segment order for the sort;
//  2. every group of the batch is posted before any is collected;
//  3. groups are collected in submission order;
//  4. leader claims still unanswered are released before any follower
//     wait — a session symmetric to this one may be blocked on exactly
//     those claims.
//
// What the callers do between those steps (evaluating ready rows,
// partitioning segments) touches only memory and is invisible to the
// crowd.
type compareBroker struct {
	ctx    *Ctx
	kind   string // kindEqual | kindOrder
	win    window[[]quality.Decision]
	posted []brokerGroup // posted[i] is what win.groups[i] asked
	// leaders are this session's own claims (memoizing a verdict resolves
	// one, release abandons the rest), followers other sessions'.
	leaders, followers []Claim
}

type brokerGroup struct {
	question string
	pairs    []taskmgr.ComparePair
}

// claimOutcome is how the cache classified a pair.
type claimOutcome int

const (
	claimHit      claimOutcome = iota // the verdict is memoized
	claimFollower                     // another session is asking: adopt waits for it
	claimDenied                       // no crowd attached or budget spent: the pair stays unknown
	claimLeader                       // this session asks: the caller must post the pair
)

func newCompareBroker(ctx *Ctx, kind string) compareBroker {
	name := "crowd:compare_equal"
	if kind == kindOrder {
		name = "crowd:compare_order"
	}
	return compareBroker{ctx: ctx, kind: kind, win: window[[]quality.Decision]{
		ctx: ctx, span: name, counter: &ctx.Stats.Comparisons, tally: compareTally,
	}}
}

// claim classifies one pair and does the bookkeeping that goes with the
// outcome; a leader pair is charged to Stats.Comparisons here, which is
// what the budget check of the next claim reads.
func (b *compareBroker) claim(question, l, r string) (verdict string, outcome claimOutcome) {
	cl := b.ctx.Cache.claim(b.kind, question, l, r)
	switch {
	case cl.Hit:
		b.ctx.Stats.CacheHits++
		return cl.Value, claimHit
	case !cl.Leader:
		b.followers = append(b.followers, cl)
		return "", claimFollower
	case b.ctx.Tasks == nil || !b.ctx.budgetOK():
		cl.Abandon()
		if b.ctx.Tasks != nil {
			b.ctx.Stats.BudgetDenied++
		}
		return "", claimDenied
	}
	b.leaders = append(b.leaders, cl)
	b.win.charge(1)
	return "", claimLeader
}

// post submits one HIT group asking question about pairs this broker leads.
func (b *compareBroker) post(question string, pairs []taskmgr.ComparePair) error {
	err := b.win.post(len(pairs), func(sp *obs.Span) (*taskmgr.Call[[]quality.Decision], error) {
		sp.SetAttr("role", "leader")
		sp.SetInt("pairs", int64(len(pairs)))
		if b.kind == kindOrder {
			return b.ctx.Tasks.CompareOrderAsync(question, pairs)
		}
		return b.ctx.Tasks.CompareEqualAsync(question, pairs)
	})
	if err != nil {
		b.release()
		return err
	}
	b.posted = append(b.posted, brokerGroup{question: question, pairs: pairs})
	return nil
}

// collect waits for the oldest open group and memoizes its verdicts. The
// decisions align with the pairs that group was posted with; one without
// answers (Total == 0) reached no quorum and its pair stays unknown.
func (b *compareBroker) collect() ([]quality.Decision, error) {
	g := b.posted[b.win.next]
	ds, err := b.win.collect()
	if err != nil {
		b.release()
		return nil, err
	}
	for i, d := range ds {
		if d.Total == 0 {
			continue
		}
		p := g.pairs[i]
		if b.kind == kindOrder {
			b.ctx.Cache.PutOrder(g.question, p.Left, p.Right, d.Value)
		} else {
			b.ctx.Cache.PutEqual(g.question, p.Left, p.Right, quality.Normalize(d.Value) == "yes")
		}
	}
	return ds, nil
}

// release abandons every leader claim that got no verdict (post error, no
// quorum, cancellation) so follower sessions never hang; for memoized
// pairs it is a no-op. Idempotent.
func (b *compareBroker) release() {
	for _, cl := range b.leaders {
		cl.Abandon()
	}
	b.leaders = nil
}

// adopt waits for the flights this session follows, after releasing its
// own unanswered claims. A flight whose leader abandoned it is not
// adopted: the pair stays unknown and the caller falls back or retries.
// Like window.post, it publishes progress before it waits on the crowd.
func (b *compareBroker) adopt() error {
	b.release()
	if len(b.followers) == 0 {
		return nil
	}
	b.ctx.noteProgress()
	sp := b.ctx.startCrowdSpan("crowd:adopt_followers")
	sp.SetAttr("role", "follower")
	sp.SetInt("flights", int64(len(b.followers)))
	adopted := 0
	defer func() {
		sp.SetInt("adopted", int64(adopted))
		sp.End()
	}()
	for _, cl := range b.followers {
		if err := b.ctx.Canceled(); err != nil {
			return err
		}
		if _, ok := cl.WaitCtx(b.ctx.context()); ok {
			b.ctx.Stats.SharedFlights++
			adopted++
		}
	}
	b.followers = nil
	return nil
}

// close settles the broker on any way out: see window.close and release.
func (b *compareBroker) close() {
	b.win.close()
	b.release()
}
