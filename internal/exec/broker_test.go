package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/ui"
)

// scriptCrowd is a scripted crowd.Platform: every posted HIT is answered
// at once, unanimously, with its oracle truth — unless the script says
// otherwise.
type scriptCrowd struct {
	mu      sync.Mutex
	now     time.Duration
	groups  map[crowd.GroupID]*crowd.HITGroup
	postErr error  // every Post fails with it
	silent  bool   // nobody answers: groups expire empty (no quorum)
	held    bool   // groups stay open until release
	onStep  func() // runs once, inside the first Step
}

func (p *scriptCrowd) Name() string { return "script" }

func (p *scriptCrowd) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.postErr != nil {
		return "", p.postErr
	}
	if p.groups == nil {
		p.groups = map[crowd.GroupID]*crowd.HITGroup{}
	}
	id := crowd.GroupID(fmt.Sprintf("G%d", len(p.groups)+1))
	p.groups[id] = g
	return id, nil
}

func (p *scriptCrowd) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.groups[id].HITs)
	switch {
	case p.held:
		return crowd.GroupStatus{Posted: n}, nil
	case p.silent:
		return crowd.GroupStatus{Posted: n, Expired: true}, nil
	}
	return crowd.GroupStatus{Posted: n, Completed: n}, nil
}

func (p *scriptCrowd) Results(id crowd.GroupID) ([]*crowd.Assignment, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.silent {
		return nil, nil
	}
	g := p.groups[id]
	var out []*crowd.Assignment
	for _, h := range g.HITs {
		for w := 0; w < g.Assignments; w++ {
			out = append(out, &crowd.Assignment{
				ID: fmt.Sprintf("%s-%s-%d", id, h.ID, w), HITID: h.ID, WorkerID: fmt.Sprintf("w%d", w),
				Status: crowd.AssignmentSubmitted, Answers: h.Truth.Truth,
			})
		}
	}
	return out, nil
}

func (p *scriptCrowd) Approve(string, crowd.Cents) error { return nil }
func (p *scriptCrowd) Reject(string, string) error       { return nil }
func (p *scriptCrowd) Expire(crowd.GroupID) error        { return nil }

func (p *scriptCrowd) Step(d time.Duration) {
	p.mu.Lock()
	p.now += d
	hook := p.onStep
	p.onStep = nil
	p.mu.Unlock()
	if hook != nil {
		hook()
	}
}

func (p *scriptCrowd) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

func (p *scriptCrowd) release() {
	p.mu.Lock()
	p.held = false
	p.mu.Unlock()
}

// yesOracle answers every CROWDEQUAL "yes" and prefers the left item.
type yesOracle struct{ orderOracle }

func (yesOracle) CompareTruth(kind crowd.TaskKind, q, l, r string) *crowd.SimTruth {
	ans := "yes"
	if kind == crowd.TaskCompareOrder {
		ans = l
	}
	return &crowd.SimTruth{Truth: map[string]string{ui.AnswerField: ans}}
}

// scriptedCtx is an execution context over the scripted crowd with the
// given scheduler window and an in-memory store for its answers.
func scriptedCtx(t testing.TB, p *scriptCrowd, maxInFlight int) *Ctx {
	cat := catalog.New()
	uim := ui.NewManager(cat)
	uim.GenerateAll()
	cfg := taskmgr.DefaultConfig()
	cfg.MaxInFlight = maxInFlight
	tm := taskmgr.New(p, uim, quality.NewTracker(), nil, yesOracle{}, cfg)
	return &Ctx{Store: memoStore(t, 1), Cat: cat, Tasks: tm, Cache: NewCompareCache()}
}

// settle drives the scheduler until nothing this test left behind is in
// flight (a group abandoned by a cancelled wait resolves under the next
// clock driver).
func settle(t *testing.T, tm *taskmgr.Manager) {
	t.Helper()
	if in, q := tm.Load(); in+q == 0 {
		return
	}
	call, err := tm.CompareEqualAsync("settle", []taskmgr.ComparePair{{Left: "x", Right: "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBrokerOutcomes drives one pair through the comparison broker and
// the dispatch window for every way a comparison can go, for both kinds,
// and checks the money bookkeeping (Stats), that no singleflight claim
// and no scheduler slot outlives the broker, and what the cache learned.
func TestBrokerOutcomes(t *testing.T) {
	const q, l, r = "same?", "IBM", "I.B.M."
	pair := []taskmgr.ComparePair{{Left: l, Right: r}}
	type scenario struct {
		name string
		// setup scripts the crowd and the context before the claim and
		// returns what runs between the claim and the post / adoption.
		setup      func(p *scriptCrowd, ctx *Ctx, kind string, cancel context.CancelFunc) (afterClaim func())
		outcome    claimOutcome
		wantErr    error // errors.Is target; errAny = any error
		want       Stats
		groups     int  // HIT groups that reached the platform
		memoized   bool // the cache holds a verdict afterwards
		needSettle bool
	}
	errAny := errors.New("any")
	put := func(c *CompareCache, kind string) {
		if kind == kindOrder {
			c.put(kindOrder, q, l, r, l)
		} else {
			c.PutEqual(q, l, r, true)
		}
	}
	scenarios := []scenario{
		{name: "hit", outcome: claimHit, want: Stats{CacheHits: 1}, memoized: true,
			setup: func(p *scriptCrowd, ctx *Ctx, kind string, _ context.CancelFunc) func() {
				put(ctx.Cache, kind)
				return nil
			}},
		{name: "leader-with-quorum", outcome: claimLeader, want: Stats{Comparisons: 1, Memoized: 1}, groups: 1, memoized: true},
		{name: "leader-already-stored", outcome: claimLeader, want: Stats{Comparisons: 1, Memoized: 1}, groups: 1, memoized: true,
			setup: func(_ *scriptCrowd, ctx *Ctx, kind string, _ context.CancelFunc) func() {
				// Stored, not resident: a key already in the memo table is
				// not an error.
				tx := ctx.Store.Begin()
				if err := storeAnswer(tx, newKey(kind, q, l, r), "stored"); err != nil {
					t.Error(err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
				return nil
			}},
		{name: "leader-commit-fails", outcome: claimLeader, wantErr: errAny, want: Stats{Comparisons: 1}, groups: 1,
			setup: func(_ *scriptCrowd, ctx *Ctx, _ string, _ context.CancelFunc) func() {
				st, err := storage.NewStoreOptions(t.TempDir(), storage.Options{Shards: 1, Sync: storage.SyncGroup})
				if err == nil {
					err = CreateMemoTable(st)
				}
				if err != nil {
					t.Error(err)
					return nil
				}
				st.Close() // the group's commit syncs to a closed file
				ctx.Store = st
				return nil
			}},
		{name: "leader-no-quorum", outcome: claimLeader, want: Stats{Comparisons: 1}, groups: 1,
			setup: func(p *scriptCrowd, _ *Ctx, _ string, _ context.CancelFunc) func() {
				p.silent = true
				return nil
			}},
		{name: "follower-adopted", outcome: claimFollower, want: Stats{SharedFlights: 1}, memoized: true,
			setup: func(p *scriptCrowd, ctx *Ctx, kind string, _ context.CancelFunc) func() {
				ctx.Cache.claim(kind, q, l, r) // another session leads, and answers
				return func() { put(ctx.Cache, kind) }
			}},
		{name: "follower-abandoned", outcome: claimFollower, want: Stats{},
			setup: func(p *scriptCrowd, ctx *Ctx, kind string, _ context.CancelFunc) func() {
				foreign := ctx.Cache.claim(kind, q, l, r)
				return foreign.Abandon
			}},
		{name: "budget-denied", outcome: claimDenied, want: Stats{BudgetDenied: 1},
			setup: func(_ *scriptCrowd, ctx *Ctx, _ string, _ context.CancelFunc) func() {
				ctx.CompareBudget = -1
				return nil
			}},
		{name: "post-error", outcome: claimLeader, wantErr: errAny, want: Stats{Comparisons: 1},
			setup: func(p *scriptCrowd, _ *Ctx, _ string, _ context.CancelFunc) func() {
				p.postErr = errors.New("platform down")
				return nil
			}},
		{name: "cancel-before-post", outcome: claimLeader, wantErr: context.Canceled, want: Stats{},
			setup: func(_ *scriptCrowd, _ *Ctx, _ string, cancel context.CancelFunc) func() {
				return func() { cancel() }
			}},
		{name: "cancel-mid-collect", outcome: claimLeader, wantErr: context.Canceled, want: Stats{Comparisons: 1}, groups: 1, needSettle: true,
			setup: func(p *scriptCrowd, _ *Ctx, _ string, cancel context.CancelFunc) func() {
				p.held = true
				p.onStep = func() { cancel() }
				return nil
			}},
	}
	for _, kind := range []string{kindEqual, kindOrder} {
		for _, sc := range scenarios {
			t.Run(kind+"/"+sc.name, func(t *testing.T) {
				p := &scriptCrowd{}
				ctx := scriptedCtx(t, p, 8)
				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx.Context = cctx
				var afterClaim func()
				if sc.setup != nil {
					afterClaim = sc.setup(p, ctx, kind, cancel)
				}

				b := newCompareBroker(ctx, kind)
				_, outcome := b.claim(q, l, r)
				if outcome != sc.outcome {
					t.Fatalf("outcome = %d, want %d", outcome, sc.outcome)
				}
				if afterClaim != nil {
					afterClaim()
				}
				var err error
				if outcome == claimLeader {
					if err = b.post(q, pair); err == nil {
						_, err = b.collect()
					}
				}
				if err == nil {
					err = b.adopt()
				}
				b.close()

				switch {
				case sc.wantErr == nil && err != nil:
					t.Fatalf("unexpected error: %v", err)
				case sc.wantErr == errAny && err == nil:
					t.Fatal("expected an error")
				case sc.wantErr != nil && sc.wantErr != errAny && !errors.Is(err, sc.wantErr):
					t.Fatalf("err = %v, want %v", err, sc.wantErr)
				}
				if ctx.Stats != sc.want {
					t.Errorf("stats = %+v, want %+v", ctx.Stats, sc.want)
				}
				if n := ctx.Cache.InFlight(); n != 0 {
					t.Errorf("%d singleflight claims outlive the broker", n)
				}
				if got := ctx.Tasks.Stats().GroupsPosted; got != sc.groups {
					t.Errorf("groups posted = %d, want %d", got, sc.groups)
				}
				if _, ok := ctx.Cache.get(kind, q, l, r); ok != sc.memoized {
					t.Errorf("memoized = %v, want %v", ok, sc.memoized)
				}
				if sc.needSettle {
					p.release()
					settle(t, ctx.Tasks)
				}
				if in, queued := ctx.Tasks.Load(); in != 0 || queued != 0 {
					t.Errorf("scheduler load = (%d,%d), want (0,0)", in, queued)
				}
			})
		}
	}
}

// progressFunc adapts a function to ProgressSink.
type progressFunc func(Stats)

func (f progressFunc) Progress(st Stats) { f(st) }

// TestProgressBeforeCrowdWait: the broker publishes progress before it
// blocks on the crowd — on the group it posted (window.collect) and on
// another session's flight (adopt) — so whoever watches Progress learns
// of the statement's first crowd wait while the statement is waiting.
func TestProgressBeforeCrowdWait(t *testing.T) {
	const q, l, r = "same?", "IBM", "I.B.M."
	for _, path := range []string{"posted-group", "parked-claim"} {
		t.Run(path, func(t *testing.T) {
			p := &scriptCrowd{held: path == "posted-group"}
			ctx := scriptedCtx(t, p, 8)
			progressed := make(chan struct{})
			var once sync.Once
			ctx.Progress = progressFunc(func(Stats) { once.Do(func() { close(progressed) }) })
			letGo := p.release
			if path == "parked-claim" {
				letGo = ctx.Cache.claim(kindEqual, q, l, r).Abandon // another session leads
			}
			done := make(chan error, 1)
			go func() {
				b := newCompareBroker(ctx, kindEqual)
				defer b.close()
				var err error
				if _, outcome := b.claim(q, l, r); outcome == claimLeader {
					if err = b.post(q, []taskmgr.ComparePair{{Left: l, Right: r}}); err == nil {
						_, err = b.collect()
					}
				}
				if err == nil {
					err = b.adopt()
				}
				done <- err
			}()
			select {
			case <-progressed:
			case err := <-done:
				t.Fatalf("the crowd wait ended (%v) before the test let it go", err)
			case <-time.After(10 * time.Second):
				t.Fatal("no progress was published while the statement waited on the crowd")
			}
			letGo()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			settle(t, ctx.Tasks)
		})
	}
}

// TestWindowRefundsQueuedOnCancel: with the scheduler's window full, a
// cancelled operator withdraws its queued groups and refunds exactly
// their share of the charge; the posted group stays charged.
func TestWindowRefundsQueuedOnCancel(t *testing.T) {
	p := &scriptCrowd{held: true}
	ctx := scriptedCtx(t, p, 1)
	cctx, cancel := context.WithCancel(context.Background())
	ctx.Context = cctx

	b := newCompareBroker(ctx, kindEqual)
	groups := [][]taskmgr.ComparePair{
		{{Left: "a", Right: "b"}, {Left: "a", Right: "c"}},
		{{Left: "d", Right: "e"}},
		{{Left: "f", Right: "g"}, {Left: "f", Right: "h"}, {Left: "f", Right: "i"}},
	}
	for _, g := range groups {
		for _, pr := range g {
			if _, outcome := b.claim("q", pr.Left, pr.Right); outcome != claimLeader {
				t.Fatalf("outcome %d", outcome)
			}
		}
	}
	// A seventh pair is charged but its group is never posted.
	b.claim("q", "y", "z")
	for _, g := range groups {
		if err := b.post("q", g); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Stats.Comparisons != 7 {
		t.Fatalf("charged %d, want 7", ctx.Stats.Comparisons)
	}
	cancel()
	if _, err := b.collect(); !errors.Is(err, context.Canceled) {
		t.Fatalf("collect: %v", err)
	}
	if ctx.Stats.Comparisons != 2 {
		t.Errorf("after cancel %d comparisons stay charged, want 2 (the one posted group)", ctx.Stats.Comparisons)
	}
	if n := ctx.Cache.InFlight(); n != 0 {
		t.Errorf("%d claims left", n)
	}
	if in, queued := ctx.Tasks.Load(); in != 1 || queued != 0 {
		t.Errorf("load = (%d,%d), want the posted group only", in, queued)
	}
	b.close() // idempotent
	if ctx.Stats.Comparisons != 2 {
		t.Errorf("second close refunded again: %d", ctx.Stats.Comparisons)
	}
	p.release()
	settle(t, ctx.Tasks)
}

// TestBrokerMutualFollowersNoDeadlock: two sessions each lead one pair
// and follow the other's. Both release or answer their own claims before
// waiting on the foreign flight, so neither can block the other — also
// when one of them gets no quorum. Run with -race -count=20.
func TestBrokerMutualFollowersNoDeadlock(t *testing.T) {
	for _, silent := range []bool{false, true} {
		p := &scriptCrowd{silent: silent}
		shared := scriptedCtx(t, p, 8)
		pairs := [2][2]string{{"IBM", "I.B.M."}, {"HP", "Hewlett-Packard"}}
		var led, followed, done sync.WaitGroup
		led.Add(2)
		followed.Add(2)
		stats := make([]Stats, 2)
		for s := 0; s < 2; s++ {
			done.Add(1)
			go func(s int) {
				defer done.Done()
				ctx := &Ctx{Store: shared.Store, Cat: shared.Cat, Tasks: shared.Tasks, Cache: shared.Cache}
				b := newCompareBroker(ctx, kindEqual)
				defer b.close()
				own, other := pairs[s], pairs[1-s]
				if _, outcome := b.claim("q", own[0], own[1]); outcome != claimLeader {
					t.Errorf("session %d: own pair outcome %d", s, outcome)
				}
				led.Done()
				led.Wait() // both lead before either follows
				if _, outcome := b.claim("q", other[0], other[1]); outcome != claimFollower {
					t.Errorf("session %d: foreign pair outcome %d", s, outcome)
				}
				followed.Done()
				followed.Wait() // both follow before either answers or releases
				if err := b.post("q", []taskmgr.ComparePair{{Left: own[0], Right: own[1]}}); err != nil {
					t.Error(err)
					return
				}
				if _, err := b.collect(); err != nil {
					t.Error(err)
					return
				}
				if err := b.adopt(); err != nil {
					t.Error(err)
				}
				stats[s] = ctx.Stats
			}(s)
		}
		finished := make(chan struct{})
		go func() { done.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("mutual followers deadlocked")
		}
		wantShared := 1
		if silent {
			wantShared = 0 // abandoned flights are not adopted
		}
		for s, st := range stats {
			if st.Comparisons != 1 || st.SharedFlights != wantShared {
				t.Errorf("silent=%v session %d: %+v", silent, s, st)
			}
		}
		if n := shared.Cache.InFlight(); n != 0 {
			t.Errorf("%d claims left", n)
		}
	}
}

// TestNoCrowdIsNotABudgetDenial: without a Task Manager CROWDORDER falls
// back to label order and CROWDEQUAL to unknown, and neither counts a
// budget denial — no budget ran out, there is nobody to ask.
func TestNoCrowdIsNotABudgetDenial(t *testing.T) {
	h, ctx := crowdHarness(t, 71)
	ctx.Tasks = nil
	for _, l := range []string{"b", "a", "c"} {
		h.insert(t, "item", Row{str(l)})
	}
	rows := h.runCtx(t, ctx, `SELECT label FROM item ORDER BY CROWDORDER(label, 'q')`)
	if len(rows) != 3 || rows[0][0].Str() != "a" || rows[2][0].Str() != "c" {
		t.Errorf("label-order fallback: %v", rows)
	}
	if rows := h.runCtx(t, ctx, `SELECT label FROM item WHERE label ~= 'A'`); len(rows) != 0 {
		t.Errorf("unknown verdicts must not pass the filter: %v", rows)
	}
	if ctx.Stats.BudgetDenied != 0 || ctx.Stats.Comparisons != 0 {
		t.Errorf("no crowd attached, yet %+v", ctx.Stats)
	}
	if n := ctx.Cache.InFlight(); n != 0 {
		t.Errorf("%d claims left", n)
	}
}

// TestEqualStreamRefundsOnEvalError: an operand that fails to evaluate
// in a later row unwinds the prefetch — the pairs claimed and charged for
// the earlier rows were never posted, so nothing may stay charged.
func TestEqualStreamRefundsOnEvalError(t *testing.T) {
	h, ctx := crowdHarness(t, 72)
	h.createTable(t, &catalog.Table{
		Name: "v",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "a", Type: sqltypes.TypeString},
			{Name: "b", Type: sqltypes.TypeString},
		},
	})
	h.insert(t, "v",
		Row{num(1), str("x"), str("1")},
		Row{num(2), str("y"), str("2")},
		Row{num(3), str("z"), str("oops")}, // b * 2 fails here
	)
	stmt, err := parser.Parse(`SELECT id FROM v WHERE CROWDEQUAL(a, b * 2)`)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(op, ctx); err == nil {
		t.Fatal("the non-numeric operand must fail the statement")
	}
	if ctx.Stats.Comparisons != 0 {
		t.Errorf("%d comparisons stay charged for pairs that were never posted", ctx.Stats.Comparisons)
	}
	if got := ctx.Tasks.Stats().GroupsPosted; got != 0 {
		t.Errorf("%d groups posted", got)
	}
	if n := ctx.Cache.InFlight(); n != 0 {
		t.Errorf("%d claims left", n)
	}
}

// TestCrowdEqualHookIsFree pins the per-row cost of wiring the CROWDEQUAL
// resolver into expression evaluation: filter and projection hand every row
// of every statement an environment that can reach the crowd, so on a
// crowd-free predicate it must not allocate.
func TestCrowdEqualHookIsFree(t *testing.T) {
	ctx := &Ctx{Cache: NewCompareCache()}
	schema := []plan.Col{{Name: "n"}}
	row := Row{num(7)}
	stmt, err := parser.Parse(`SELECT 1 FROM t WHERE n > 3 AND n < 9`)
	if err != nil {
		t.Fatal(err)
	}
	var b binder
	cond, env := b.bind(stmt.(*parser.Select).Where, schema), evalEnv{ctx: ctx}
	allocs := testing.AllocsPerRun(1000, func() {
		keep, err := cond.keeps(row, &env)
		if err != nil || !keep {
			t.Fatalf("eval: %v %v", keep, err)
		}
	})
	if allocs != 0 {
		t.Errorf("the per-row CROWDEQUAL hook costs %.0f allocations on a crowd-free predicate, want 0", allocs)
	}
}
