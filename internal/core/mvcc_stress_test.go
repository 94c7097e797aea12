package core

// Snapshot-isolation stress and compare-cache persistence regression
// tests. Run with -race: the point of the MVCC rewrite is that a long
// crowd SELECT shares the engine with committing writers without a
// statement lock.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"crowddb/internal/crowd/amt"
	"crowddb/internal/exec"
	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// pairCoreEngine mirrors the server suite's pair fixture: n company
// pairs whose variant is the lower-cased canonical, so every `a ~= b`
// comparison is a true match under the conference oracle. cfg supplies
// any further engine options; its crowd fields are overwritten.
func pairCoreEngine(t *testing.T, seed int64, n int, cfg Config) (*Engine, *workload.Companies) {
	t.Helper()
	conf := workload.NewConference(8, seed)
	if cfg.Platform == nil {
		cfg.Platform = amt.NewDefault(seed)
	}
	cfg.Oracle = conf.Oracle()
	cfg.Payment = wrm.DefaultPolicy()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, `CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`)
	cs := workload.NewCompanies(n, seed)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral()))
	}
	return eng, cs
}

// TestSnapshotSELECTConcurrentWithWriters is the headline regression for
// the killed engine statement lock: a crowd SELECT parked mid-crowd-wait
// must not block INSERT/UPDATE/DELETE traffic, and its result must be
// the database as of its snapshot — not the mutated present. Afterwards
// version GC reclaims everything the snapshot was holding.
func TestSnapshotSELECTConcurrentWithWriters(t *testing.T) {
	const n = 6
	eng, cs := pairCoreEngine(t, 97, n, Config{})

	// Pose as a foreign session's in-flight leader for row 0's
	// comparison: the SELECT will park on it until we abandon.
	c0 := cs.List[0]
	leader := eng.Cache().ClaimEqual("", c0.Canonical, c0.Variants[len(c0.Variants)-1])
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}

	stmts, err := parser.ParseAll("SELECT id FROM Pair WHERE a ~= b")
	if err != nil {
		t.Fatal(err)
	}
	snapCh := make(chan int64, 1)
	var rows []storage.Row
	opts := DefaultExecOpts()
	opts.Observer = &recorder{
		onSnapshot: func(ts int64) { snapCh <- ts },
		onRow:      func(r exec.Row) error { rows = append(rows, r); return nil },
	}
	done := make(chan struct{})
	var res *Result
	var selErr error
	go func() {
		defer close(done)
		res, selErr = eng.ExecStmtCtx(context.Background(), stmts[0], opts)
	}()

	var snapTS int64
	select {
	case snapTS = <-snapCh:
	case <-time.After(30 * time.Second):
		t.Fatal("SELECT never pinned a snapshot")
	}
	if snapTS <= 0 {
		t.Fatalf("snapshot ts = %d", snapTS)
	}

	// With the SELECT in flight (and soon parked on the foreign claim),
	// hammer the table from concurrent writers: every row class — new,
	// rewritten, deleted — plus churn that leaves retained versions.
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	writerErrs := make(chan error, 32)
	exec1 := func(sql string) {
		if _, err := eng.Exec(sql); err != nil {
			writerErrs <- fmt.Errorf("%s: %w", sql, err)
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := 100 + w*10 + i
				exec1(fmt.Sprintf("INSERT INTO Pair VALUES (%d, 'new-%d', 'x')", id, id))
				exec1(fmt.Sprintf("UPDATE Pair SET b = 'rewritten-%d-%d' WHERE id = %d", w, i, w+1))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		exec1("DELETE FROM Pair WHERE id = 5")
	}()
	go func() { wg.Wait(); close(writersDone) }()

	// Writers must complete while the reader is still parked: with the
	// old engine RWMutex this deadlocks (DML waits on the crowd SELECT,
	// which waits on a comparison nobody will answer).
	select {
	case err := <-writerErrs:
		t.Fatal(err)
	case <-writersDone:
	case <-done:
		t.Fatalf("SELECT finished while its comparison was foreign-owned (err=%v)", selErr)
	case <-time.After(30 * time.Second):
		t.Fatal("writers blocked behind the in-flight crowd SELECT")
	}
	select {
	case <-done:
		t.Fatalf("SELECT finished before its claim was released (err=%v)", selErr)
	default:
	}

	// Release the claim: the SELECT takes over, pays the crowd, finishes.
	leader.Abandon()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SELECT never finished after the claim was abandoned")
	}
	if selErr != nil {
		t.Fatal(selErr)
	}
	select {
	case err := <-writerErrs:
		t.Fatal(err)
	default:
	}
	if res.SnapshotTS != snapTS {
		t.Errorf("Result.SnapshotTS = %d, want %d", res.SnapshotTS, snapTS)
	}
	// The result is the snapshot: exactly the n original rows (all true
	// matches), untouched by the concurrent inserts, rewrites, deletes.
	if len(rows) != n {
		t.Fatalf("SELECT returned %d rows, want the %d snapshot rows: %v", len(rows), n, rows)
	}
	for i, row := range rows {
		if row[0].Int() != int64(i) {
			t.Errorf("row %d = %v, want id %d", i, row, i)
		}
	}

	// The statement released its snapshot on the way out; GC reclaimed
	// every version it was holding (15 rewrites + 1 delete).
	live, retained := eng.store.VersionStats()
	if retained != 0 {
		t.Errorf("retained versions after snapshot release = %d, want 0", retained)
	}
	// n original - 1 deleted + 15 inserted, plus compare-cache rows.
	if live < n-1+15 {
		t.Errorf("live rows = %d, want >= %d", live, n-1+15)
	}
	// And the latest view sees the writers' world.
	after := mustExec(t, eng, "SELECT id FROM Pair")
	if len(after.Rows) != n-1+15 {
		t.Errorf("latest row count = %d, want %d", len(after.Rows), n-1+15)
	}
}
