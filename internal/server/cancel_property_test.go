package server

// The cancellation property suite — the acceptance contract for the
// jobs API: cancelling a crowd query at a random point mid-crowd-wait
//
//   1. never leaks goroutines (counter-based check with settle-wait),
//   2. never double-spends the session budget (budget_left is exactly
//      the initial budget minus paid comparisons, and never negative),
//   3. leaves the CompareCache singleflight table claim-free, and
//   4. stops posting new HIT groups once the job is terminal.

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
)

// waitGoroutines blocks until the goroutine count settles back to at
// most base (cancelled jobs unwind asynchronously after the terminal
// state is visible); on timeout it dumps stacks and fails.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	var sb strings.Builder
	pprof.Lookup("goroutine").WriteTo(&sb, 1) //nolint:errcheck // diagnostics
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, sb.String())
}

// TestCancelledSubqueryStillSettlesBudget: comparisons an IN-subquery
// already paid for must reach the session settlement when the outer
// statement is cancelled mid-subquery — the refund may only cover work
// that never happened (regression: the subquery's stats used to merge
// into the statement only on success, so cancellation refunded spent
// budget).
func TestCancelledSubqueryStillSettlesBudget(t *testing.T) {
	const budget = 10
	eng := pairEngine(t, 91, 2)
	if _, err := eng.Exec(`CREATE TABLE Pair2 (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		t.Fatal(err)
	}
	cs := workload.NewCompanies(2, 91)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Pair2 VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	// Foreign-claim the second pair: the subquery's prefetch pays for the
	// first pair (own leader claim, collected), then parks as a follower
	// on this one until the job is cancelled.
	blocked := cs.List[1]
	leader := eng.Cache().ClaimEqual("", blocked.Canonical, blocked.Variants[len(blocked.Variants)-1])
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	defer leader.Abandon()

	job, jerr := srv.StartJob(sess.ID(),
		"SELECT id FROM Pair WHERE id IN (SELECT id FROM Pair2 WHERE a ~= b)")
	if jerr != nil {
		t.Fatal(jerr)
	}
	// Let the subquery pay for the unclaimed pair and park on the other.
	deadline := time.Now().Add(5 * time.Second)
	for eng.CacheStats().Misses == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if st := job.State(); st.Terminal() {
		t.Fatalf("job finished (%s) while a subquery pair was foreign-owned", st)
	}
	if _, cerr := srv.CancelJob(job.ID()); cerr != nil {
		t.Fatal(cerr)
	}
	if st := waitState(t, job); st != JobCancelled {
		t.Fatalf("state = %s, err = %v", st, job.Err())
	}
	info := sess.Info()
	if info.Stats.Comparisons != 1 {
		t.Fatalf("session saw %d paid comparisons, want 1 (the subquery's own leader pair)", info.Stats.Comparisons)
	}
	if info.BudgetLeft != budget-1 {
		t.Fatalf("budget_left = %d, want %d (paid subquery work must not be refunded)", info.BudgetLeft, budget-1)
	}
}

// TestFailedPrefetchRefundsSessionBudget: a CROWDEQUAL operand that
// fails to evaluate in a later row fails the statement after the earlier
// rows' pairs were claimed and charged, but before any HIT group was
// posted. None of that charge may reach the session settlement
// (regression: the three eval error returns of the prefetch released the
// claims but kept the charge, so the session lost budget for work that
// never happened).
func TestFailedPrefetchRefundsSessionBudget(t *testing.T) {
	const budget = 10
	eng := pairEngine(t, 92, 1)
	for _, sql := range []string{
		`CREATE TABLE Mixed (id INTEGER PRIMARY KEY, a STRING, b STRING)`,
		`INSERT INTO Mixed VALUES (1, 'x', '1')`,
		`INSERT INTO Mixed VALUES (2, 'y', '2')`,
		`INSERT INTO Mixed VALUES (3, 'z', 'oops')`, // b * 2 fails here
	} {
		if _, err := eng.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(eng, Config{})
	sess, serr := srv.CreateSession(budget)
	if serr != nil {
		t.Fatal(serr)
	}
	job, jerr := srv.StartJob(sess.ID(), "SELECT id FROM Mixed WHERE CROWDEQUAL(a, b * 2)")
	if jerr != nil {
		t.Fatal(jerr)
	}
	if st := waitState(t, job); st != JobFailed {
		t.Fatalf("state = %s, want failed (err %v)", st, job.Err())
	}
	info := sess.Info()
	if info.Stats.Comparisons != 0 {
		t.Errorf("session charged %d comparisons, none was posted", info.Stats.Comparisons)
	}
	if info.BudgetLeft != budget {
		t.Errorf("budget_left = %d, want the full %d back", info.BudgetLeft, budget)
	}
	if posted := eng.Tasks().Stats().GroupsPosted; posted != 0 {
		t.Errorf("%d HIT groups posted", posted)
	}
	if n := eng.Cache().InFlight(); n != 0 {
		t.Errorf("%d claims left", n)
	}
}

// TestCancelPropertyNoLeakNoDoubleSpendNoClaims runs the random-point
// cancellation property over fresh engines: a CROWDORDER job (many
// crowd rounds) is cancelled after a random delay that lands anywhere
// from pre-admission to deep inside the sort's crowd waits.
func TestCancelPropertyNoLeakNoDoubleSpendNoClaims(t *testing.T) {
	const (
		iters  = 18
		budget = 4
	)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < iters; i++ {
		i := i
		t.Run(fmt.Sprintf("iter%02d", i), func(t *testing.T) {
			eng := pairEngine(t, int64(100+i), 6)
			srv := New(eng, Config{})
			sess, serr := srv.CreateSession(budget)
			if serr != nil {
				t.Fatal(serr)
			}
			base := runtime.NumGoroutine()

			job, jerr := srv.StartJob(sess.ID(),
				"SELECT a FROM Pair ORDER BY CROWDORDER(a, 'Which name looks more official?')")
			if jerr != nil {
				t.Fatal(jerr)
			}
			time.Sleep(time.Duration(rng.Intn(4000)) * time.Microsecond)
			if _, cerr := srv.CancelJob(job.ID()); cerr != nil {
				t.Fatal(cerr)
			}
			state := waitState(t, job)
			if state != JobCancelled && state != JobDone {
				t.Fatalf("terminal state = %s (err %v)", state, job.Err())
			}

			// (1) No goroutine outlives the job.
			waitGoroutines(t, base)

			// (2) Budget settled exactly: left = budget - paid, never
			// negative, never more paid than budgeted.
			info := sess.Info()
			paid := info.Stats.Comparisons
			if paid > budget {
				t.Fatalf("paid %d comparisons against a budget of %d", paid, budget)
			}
			if info.BudgetLeft != budget-paid {
				t.Fatalf("budget_left = %d, want %d - %d (no double-spend, no lost refund)",
					info.BudgetLeft, budget, paid)
			}

			// (3) The singleflight table is claim-free.
			if n := eng.Cache().InFlight(); n != 0 {
				t.Fatalf("%d singleflight claims leaked", n)
			}

			// (4) A terminal job posts nothing new.
			posted := eng.Tasks().Stats().GroupsPosted
			time.Sleep(30 * time.Millisecond)
			if after := eng.Tasks().Stats().GroupsPosted; after != posted {
				t.Fatalf("groups posted after terminal state: %d -> %d", posted, after)
			}

			// The job's spend report agrees with the session's.
			jinfo := job.Info()
			if jinfo.Stats.Comparisons != paid {
				t.Errorf("job reports %d paid comparisons, session %d", jinfo.Stats.Comparisons, paid)
			}
		})
	}
}
