package bench

// E20: mixed read/write under MVCC snapshot isolation. Before the MVCC
// rewrite the engine held one statement RWMutex, so any DML submitted
// while a crowd SELECT sat mid-crowd-wait blocked until the crowd
// answered — minutes of virtual time, forever if the comparison was
// foreign-owned. This experiment measures writer statement latency (p50)
// with and without a crowd SELECT parked in flight, and checks the
// reader's result is exactly its snapshot.
//
// Determinism note for the benchdiff gate: row/shape and the row-count
// metrics (reader_rows_out, table_rows_out, snapshot_mismatch_err) are
// deterministic and gated; the p50 latencies and their ratio are
// wall-clock and reported as informational (their metric keys
// deliberately avoid the gate's directional classifiers).

import (
	"context"
	"fmt"
	"sort"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const (
	e20Pairs       = 6  // company pairs in the reader's table
	e20WriterStmts = 24 // alternating INSERT / UPDATE statements
)

// e20Engine builds the pair fixture: e20Pairs company rows whose variant
// is the lower-cased canonical, so every `a ~= b` comparison is a true
// match under the conference oracle.
func e20Engine(seed int64) (*core.Engine, *workload.Companies, error) {
	conf := workload.NewConference(8, seed)
	eng, err := core.Open(core.Config{
		Platform: amt.NewDefault(seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
		Tasks:    fastTasks(),
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Exec(`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		eng.Close()
		return nil, nil, err
	}
	cs := workload.NewCompanies(e20Pairs, seed)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			eng.Close()
			return nil, nil, err
		}
	}
	return eng, cs, nil
}

// e20RunWriters issues the fixed writer workload sequentially and
// returns the per-statement latencies: e20WriterStmts statements
// alternating new-row INSERTs with b-column UPDATEs of existing rows.
func e20RunWriters(eng *core.Engine) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, e20WriterStmts)
	for i := 0; i < e20WriterStmts; i++ {
		var sql string
		if i%2 == 0 {
			sql = fmt.Sprintf("INSERT INTO Pair VALUES (%d, 'new-%d', 'x')", 100+i, i)
		} else {
			sql = fmt.Sprintf("UPDATE Pair SET b = 'rewritten-%d' WHERE id = %d", i, i%e20Pairs)
		}
		start := time.Now()
		if _, err := eng.Exec(sql); err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		lat = append(lat, time.Since(start))
	}
	return lat, nil
}

func e20P50(lat []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// E20MixedReadWrite is the mixed read/write harness.
func E20MixedReadWrite(seed int64) *Table {
	tab := &Table{
		ID:      "E20",
		Title:   "mixed read/write: writer latency under an in-flight crowd SELECT (extension)",
		Exhibit: "MVCC snapshot reads vs the engine statement lock (post-paper extension)",
		Headers: []string{"phase", "writer stmts", "writer p50", "reader rows", "table rows after"},
		Metrics: map[string]float64{},
	}
	rowsAfter := func(eng *core.Engine) (int, error) {
		res, err := eng.Exec("SELECT COUNT(*) FROM Pair")
		if err != nil {
			return 0, err
		}
		return int(res.Rows[0][0].Int()), nil
	}

	// Phase A: writers alone — the latency floor.
	engA, _, err := e20Engine(seed)
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		return tab
	}
	latA, err := e20RunWriters(engA)
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		engA.Close()
		return tab
	}
	afterA, err := rowsAfter(engA)
	engA.Close()
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		return tab
	}
	p50A := e20P50(latA)
	tab.AddRow("writers alone", fmt.Sprintf("%d", e20WriterStmts), p50A.String(), "-", fmt.Sprintf("%d", afterA))

	// Phase B: the same writer workload while a crowd SELECT is parked
	// mid-crowd-wait on a foreign-owned comparison. With the old engine
	// statement lock this phase never completes.
	engB, cs, err := e20Engine(seed)
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		return tab
	}
	defer engB.Close()
	c0 := cs.List[0]
	leader := engB.Cache().ClaimEqual("", c0.Canonical, c0.Variants[len(c0.Variants)-1])
	if !leader.Leader {
		tab.Notes = append(tab.Notes, "setup: failed to lead the blocking claim")
		return tab
	}
	stmts, err := parser.ParseAll("SELECT id FROM Pair WHERE a ~= b")
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		return tab
	}
	snapCh := make(chan int64, 1)
	opts := core.DefaultExecOpts()
	opts.OnSnapshot = func(ts int64) { snapCh <- ts }
	type selOut struct {
		res *core.Result
		err error
	}
	selCh := make(chan selOut, 1)
	go func() {
		res, err := engB.ExecStmtCtx(context.Background(), stmts[0], opts)
		selCh <- selOut{res, err}
	}()
	<-snapCh // the reader has pinned its snapshot; writers now race it

	latB, err := e20RunWriters(engB)
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		return tab
	}
	afterB, err := rowsAfter(engB)
	if err != nil {
		tab.Notes = append(tab.Notes, err.Error())
		return tab
	}
	leader.Abandon() // release the reader; it finishes against its snapshot
	sel := <-selCh
	if sel.err != nil {
		tab.Notes = append(tab.Notes, sel.err.Error())
		return tab
	}
	// The reader's rows must be exactly its snapshot: ids 0..e20Pairs-1,
	// all true matches, none of the concurrent inserts or rewrites.
	mismatches := 0
	if len(sel.res.Rows) != e20Pairs {
		mismatches = e20Pairs
	} else {
		for i, row := range sel.res.Rows {
			if row[0].Int() != int64(i) {
				mismatches++
			}
		}
	}
	p50B := e20P50(latB)
	tab.AddRow("writers + parked crowd SELECT", fmt.Sprintf("%d", e20WriterStmts), p50B.String(),
		fmt.Sprintf("%d", len(sel.res.Rows)), fmt.Sprintf("%d", afterB))

	// Deterministic, gated coverage counters.
	tab.Metrics["reader_rows_out"] = float64(len(sel.res.Rows))
	tab.Metrics["table_rows_out"] = float64(afterB)
	tab.Metrics["snapshot_mismatch_err"] = float64(mismatches)
	// Wall-clock latencies: informational (keys avoid gate classifiers).
	tab.Metrics["writer_p50_micros_alone"] = float64(p50A.Microseconds())
	tab.Metrics["writer_p50_micros_with_reader"] = float64(p50B.Microseconds())
	if p50A > 0 {
		tab.Metrics["writer_p50_with_reader_vs_alone"] = float64(p50B) / float64(p50A)
	}
	tab.Notes = append(tab.Notes,
		"phase B parks a crowd SELECT on a foreign-owned comparison for the whole writer run; with the pre-MVCC engine statement lock it never completes",
		fmt.Sprintf("reader snapshot pinned before %d writer statements; %d mismatches against its snapshot", e20WriterStmts, mismatches))
	return tab
}
