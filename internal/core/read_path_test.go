package core

// Every stored-row read goes through the executor's table reader, so the
// crowd operators and DML see the access path a plain scan sees, the
// statistics follow only writes the store accepted, and EXPLAIN prints the
// row estimate its price was computed from.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const (
	coldGroups        = 100
	coldPairsPerGroup = 6
	coldItemsPerGroup = 5
)

// newCrowdColdEngine loads the crowd_cold schema of bench/perf — Pair for
// CROWDEQUAL, Item for CROWDORDER and CrowdProbe, coldGroups groups of
// each — with or without the indexes on grp.
func newCrowdColdEngine(t *testing.T, shards int, indexed bool) *Engine {
	t.Helper()
	o := workload.NewOracle()
	o.RegisterProbe("Item", func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
		return &crowd.SimTruth{Truth: map[string]string{ask[0]: fmt.Sprint(10 + len(known["name"].Str()))}, Difficulty: 0.05}
	})
	o.RegisterCompare(func(kind crowd.TaskKind, _, left, right string) *crowd.SimTruth {
		ans := max(left, right)
		if kind == crowd.TaskCompareEqual {
			ans = "no"
			if left[strings.IndexByte(left, '#'):] == right[strings.IndexByte(right, '#'):] {
				ans = "yes"
			}
		}
		return &crowd.SimTruth{Truth: map[string]string{"answer": ans}, Difficulty: 0.05}
	})
	eng, err := Open(Config{Shards: shards, Platform: newAMT(7), Oracle: o, Payment: wrm.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, "CREATE TABLE Pair (id INTEGER PRIMARY KEY, grp INTEGER, a STRING, b STRING)")
	mustExec(t, eng, "CREATE TABLE Item (name STRING PRIMARY KEY, grp INTEGER, headcount CROWD INTEGER)")
	if indexed {
		mustExec(t, eng, "CREATE INDEX pair_grp ON Pair (grp)")
		mustExec(t, eng, "CREATE INDEX item_grp ON Item (grp)")
	}
	var pairs, items []string
	for g := 0; g < coldGroups; g++ {
		for j := 0; j < coldPairsPerGroup; j++ {
			pairs = append(pairs, fmt.Sprintf("(%d, %d, 'Acme Corp #%d', 'Acme Corporation #%d')", g*coldPairsPerGroup+j, g, g*100+j, g*100+j+j%2))
		}
		for j := 0; j < coldItemsPerGroup; j++ {
			items = append(items, fmt.Sprintf("('item-g%d-i%d', %d)", g, j, g))
		}
	}
	mustExec(t, eng, "INSERT INTO Pair VALUES "+strings.Join(pairs, ", "))
	mustExec(t, eng, "INSERT INTO Item (name, grp) VALUES "+strings.Join(items, ", "))
	return eng
}

// TestAccessPathServesCrowdColdStatements: crowd_cold's three statement
// shapes examine their group's rows when item_grp/pair_grp exist and the
// whole table when they do not, and return the same rows for the same
// crowd work either way. (Before the crowd operators read through the
// table reader the CrowdProbe statement examined all 500 items with the
// index in place.)
func TestAccessPathServesCrowdColdStatements(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			indexed, plain := newCrowdColdEngine(t, shards, true), newCrowdColdEngine(t, shards, false)
			for _, g := range []int{7, 42, 99} {
				for _, tc := range []struct {
					sql            string
					perGroup, rows int
				}{
					{fmt.Sprintf("SELECT id FROM Pair WHERE grp = %d AND a ~= b", g), coldPairsPerGroup, coldGroups * coldPairsPerGroup},
					{fmt.Sprintf("SELECT name FROM Item WHERE grp = %d ORDER BY CROWDORDER(name, 'Which item is better?')", g), coldItemsPerGroup, coldGroups * coldItemsPerGroup},
					{fmt.Sprintf("SELECT name, headcount FROM Item WHERE grp = %d", g), coldItemsPerGroup, coldGroups * coldItemsPerGroup},
				} {
					a, b := mustExec(t, indexed, tc.sql), mustExec(t, plain, tc.sql)
					if a.Stats.RowsScanned != tc.perGroup {
						t.Errorf("%s: examined %d rows through the index, want the group's %d", tc.sql, a.Stats.RowsScanned, tc.perGroup)
					}
					if b.Stats.RowsScanned != tc.rows {
						t.Errorf("%s: examined %d rows without an index, want the table's %d", tc.sql, b.Stats.RowsScanned, tc.rows)
					}
					if len(a.Rows) == 0 || fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
						t.Errorf("%s:\nindexed %v\nplain   %v", tc.sql, a.Rows, b.Rows)
					}
					a.Stats.RowsScanned, b.Stats.RowsScanned = 0, 0
					if a.Stats != b.Stats || a.ActualCents != b.ActualCents || a.ActualCents == 0 {
						t.Errorf("%s: crowd work differs: indexed %+v ¢%.1f, plain %+v ¢%.1f", tc.sql, a.Stats, a.ActualCents, b.Stats, b.ActualCents)
					}
				}
			}
		})
	}
}

// postLog records, in posting order, what every posted HIT group asks.
type postLog struct {
	crowd.Platform
	mu  sync.Mutex
	log strings.Builder
}

func (p *postLog) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	p.mu.Lock()
	fmt.Fprintf(&p.log, "post %s hits=%d\n", g.Kind, len(g.HITs))
	for _, h := range g.HITs {
		fmt.Fprintf(&p.log, "  %s", h.ID)
		for _, f := range h.Fields {
			fmt.Fprintf(&p.log, " %s=%q", f.Name, f.Value)
		}
		p.log.WriteByte('\n')
	}
	p.mu.Unlock()
	return p.Platform.Post(g)
}

// TestAccessPathCrowdJoinSolicitsSameTuples: a CrowdJoin whose crowd inner
// has an indexed column pinned to a literal finds its stored matches
// through the index and asks the crowd for exactly the tuples — same
// groups, same forms, same order — it asks for when it has to scan the
// inner table, which is what every CrowdJoin did before it read through
// the table reader.
func TestAccessPathCrowdJoinSolicitsSameTuples(t *testing.T) {
	type outcome struct {
		posts   string
		rows    []string
		scanned []int
	}
	run := func(indexed bool) outcome {
		conf := workload.NewConference(20, 5)
		p := &postLog{Platform: newAMT(5)}
		eng, err := Open(Config{Platform: p, Oracle: conf.Oracle(), Payment: wrm.DefaultPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY)`)
		mustExec(t, eng, `CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, FOREIGN KEY (title) REF Talk(title))`)
		if indexed {
			mustExec(t, eng, `CREATE INDEX na_title ON NotableAttendee (title)`)
		}
		for _, talk := range conf.Talks[:8] {
			mustExec(t, eng, "INSERT INTO Talk VALUES ("+sqltypes.NewString(talk.Title).SQLLiteral()+")")
		}
		var out outcome
		join := `SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`
		for _, sql := range []string{
			join + " WHERE n.title = " + sqltypes.NewString(conf.Talks[2].Title).SQLLiteral(),
			join + " WHERE n.title = " + sqltypes.NewString(conf.Talks[2].Title).SQLLiteral(), // tops up what the first left missing
			join + " WHERE n.title = " + sqltypes.NewString(conf.Talks[5].Title).SQLLiteral(),
			join,
			join + " WHERE n.title = " + sqltypes.NewString(conf.Talks[5].Title).SQLLiteral(),
		} {
			res := mustExec(t, eng, sql)
			out.rows = append(out.rows, fmt.Sprint(res.Rows))
			out.scanned = append(out.scanned, res.Stats.RowsScanned)
		}
		out.posts = p.log.String()
		return out
	}
	indexed, plain := run(true), run(false)
	if indexed.posts != plain.posts || !strings.Contains(plain.posts, "title=") {
		t.Errorf("solicitations differ:\nindexed:\n%s\nplain:\n%s", indexed.posts, plain.posts)
	}
	if fmt.Sprint(indexed.rows) != fmt.Sprint(plain.rows) {
		t.Errorf("rows differ:\nindexed %v\nplain   %v", indexed.rows, plain.rows)
	}
	// The last statement finds a stored inner table: pinned, the index
	// hands over that talk's attendees only.
	last := len(plain.scanned) - 1
	if indexed.scanned[last] >= plain.scanned[last] {
		t.Errorf("pinned CrowdJoin examined %d rows through the index, %d without", indexed.scanned[last], plain.scanned[last])
	}
}

// TestStatsFollowOnlyAcceptedWrites: the catalog's row and CNULL counters
// move when the store accepts a write, not before — a statement the store
// rejects half-way leaves them describing what is stored.
func TestStatsFollowOnlyAcceptedWrites(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, "CREATE TABLE t (id INTEGER PRIMARY KEY, note CROWD STRING)")
	mustExec(t, eng, "INSERT INTO t (id) VALUES (1), (2)")
	check := func(after string, rows, cnulls int64) {
		t.Helper()
		tab, _ := eng.cat.Table("t")
		res := mustExec(t, eng, "SELECT COUNT(*), COUNT(note) FROM t")
		if got := res.Rows[0][0].Int(); got != rows || tab.RowCount() != rows {
			t.Errorf("after %s: %d rows stored, catalog counts %d, want %d", after, got, tab.RowCount(), rows)
		}
		if stored, counted := res.Rows[0][0].Int()-res.Rows[0][1].Int(), tab.Stats().CNullCount["note"]; stored != cnulls || counted != cnulls {
			t.Errorf("after %s: %d CNULL notes stored, catalog counts %d, want %d", after, stored, counted, cnulls)
		}
	}
	check("the inserts", 2, 2)
	if _, err := eng.Exec("UPDATE t SET note = 'x', id = 2 WHERE id = 1"); err == nil {
		t.Fatal("an UPDATE onto an existing key must fail")
	}
	check("a rejected UPDATE", 2, 2)
	if _, err := eng.Exec("INSERT INTO t (id) VALUES (3), (1)"); err == nil {
		t.Fatal("an INSERT of an existing key must fail")
	}
	check("an INSERT rejected at its second row", 3, 3)
	mustExec(t, eng, "UPDATE t SET note = 'x' WHERE id = 1")
	check("an UPDATE", 3, 2)
	mustExec(t, eng, "UPDATE t SET note = CNULL WHERE id = 1")
	check("an UPDATE back to CNULL", 3, 3)
	mustExec(t, eng, "DELETE FROM t WHERE id >= 2")
	check("a DELETE", 1, 1)
}

// TestExplainRowsArePricedRows: the row estimate EXPLAIN prints on a node
// is the one the cost next to it was computed from — a stop-after scan
// shows its bound, and the probe above it is priced for those rows.
func TestExplainRowsArePricedRows(t *testing.T) {
	eng, _ := newConferenceEngine(t, 3, "")
	defer eng.Close()
	res := mustExec(t, eng, "EXPLAIN SELECT title, nb_attendees FROM Talk LIMIT 2")
	var probe, scan string
	for _, line := range strings.Split(res.Plan, "\n") {
		if strings.Contains(line, "CrowdProbe(Talk)") {
			probe = line
		}
		if strings.Contains(line, " Scan(Talk)") {
			scan = line
		}
	}
	if !strings.Contains(scan, "stopafter=2") || !strings.Contains(scan, "~2 rows  ¢0") {
		t.Errorf("the scan reads 2 rows and must say so:\n%s", res.Plan)
	}
	if !strings.Contains(probe, "~2 rows  ¢12.0") {
		t.Errorf("the probe is priced for 2 probed rows and must say so:\n%s", res.Plan)
	}
	openWorld, err := Open(Config{Optimizer: optimizer.Options{AllowUnbounded: true}, Platform: newAMT(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer openWorld.Close()
	mustExec(t, openWorld, "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING)")
	res = mustExec(t, openWorld, "EXPLAIN SELECT name FROM NotableAttendee")
	if !strings.Contains(res.Plan, "~∞ rows  ¢∞") {
		t.Errorf("an unbounded crowd scan has no finite row estimate:\n%s", res.Plan)
	}
}
