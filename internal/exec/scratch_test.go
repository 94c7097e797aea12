package exec

// A statement's scratch is recycled: GROUP BY's table, the table reader's
// streams and chunks and the scan's batch header go back to their pools at
// Close, cleared. These tests pin that a reused table answers as a fresh
// one, that nothing a statement read stays reachable from a pool, that a
// second Close returns nothing, and that a GROUP BY's allocations no longer
// follow its groups.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/sqltypes"
)

var raceEnabled bool // set by race_test.go

// query compiles and runs sql, returning its error rather than failing.
func (h *harness) query(sql string) ([]Row, error) {
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	op, err := h.compile(ctx, sql)
	if err != nil {
		return nil, err
	}
	return Run(op, ctx)
}

// emptyPools drops everything the package's pools hold: a pool keeps what
// was put back through one collection, and loses it in the second.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// scanTalk is scan_read's table: rows talks in rooms rooms, nb_attendees
// spread over 0..999, over shards shards.
func scanTalk(t testing.TB, shards, rows, rooms int) *harness {
	t.Helper()
	h := &harness{cat: catalog.New(), store: memoStore(t, shards)}
	tab := &catalog.Table{
		Name: "Talk",
		Columns: []catalog.Column{
			{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "room", Type: sqltypes.TypeString},
			{Name: "nb_attendees", Type: sqltypes.TypeInt},
		},
	}
	if err := h.cat.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := h.store.CreateTable(tab.Name, tab.PrimaryKeyIndexes()); err != nil {
		t.Fatal(err)
	}
	tx := h.store.Begin()
	for i := range rows {
		row := Row{str(fmt.Sprintf("talk-%05d", i)), str(fmt.Sprintf("room-%04d", i%rooms)), num(int64((i*7919 + 13) % 1000))}
		if _, err := tx.Insert("Talk", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tab.AddRowCount(int64(rows))
	return h
}

// scanReadGroup is scan_read's GROUP BY statement.
const scanReadGroup = "SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10"

// TestAggregateTableReuseMatchesFresh: on one goroutine, statements that
// leave a table in every state it can be released in — 2 500 groups with
// MIN/MAX values and a deferred error, a different number of calls, no
// rows, a key that fails part way — each answer, back to back, exactly as
// they do on an emptied pool.
func TestAggregateTableReuseMatchesFresh(t *testing.T) {
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "name", Type: sqltypes.TypeString},
			{Name: "v", Type: sqltypes.TypeInt},
			{Name: "w", Type: sqltypes.TypeInt},
		},
	})
	for id := range 5000 {
		v := int64(id % 13)
		if id%2500 == 7 {
			v = math.MaxInt64 // group g-0007's SUM(v) overflows; v * 2 fails at row 7
		}
		h.insert(t, "s", Row{num(int64(id)), str(fmt.Sprintf("g-%04d", id%2500)), str(fmt.Sprintf("n%05d", (id*37)%5000)), num(v), num(int64(id % 7))})
	}
	stmts := []string{
		"SELECT g, MIN(name), MAX(name), COUNT(*), SUM(v) FROM s GROUP BY g HAVING g <> 'g-0007'",
		"SELECT g, MIN(name), MAX(name), SUM(v) FROM s GROUP BY g",
		"SELECT id % 3, COUNT(*), SUM(w), AVG(w), MIN(name), MAX(w) FROM s WHERE id < 300 GROUP BY id % 3",
		"SELECT COUNT(*), SUM(w), MIN(name), MAX(name) FROM s WHERE id < 0",
		"SELECT v * 2, COUNT(*) FROM s GROUP BY v * 2",
		"SELECT g, COUNT(*), MAX(w) FROM s WHERE id < 1000 GROUP BY g",
	}
	type answer struct {
		rows []Row
		err  string
	}
	fresh := make([]answer, len(stmts))
	for i, sql := range stmts {
		emptyPools()
		rows, err := h.query(sql)
		fresh[i] = answer{rows, fmt.Sprint(err)}
	}
	if fresh[1].err != "exec: SUM overflows INTEGER" || fresh[4].err != "exec: INTEGER overflow" {
		t.Fatalf("the failing statements answer %q and %q", fresh[1].err, fresh[4].err)
	}
	if len(fresh[0].rows) != 2499 || len(fresh[2].rows) != 3 || len(fresh[3].rows) != 1 || len(fresh[5].rows) != 1000 {
		t.Fatalf("fresh answers have %d, %d, %d and %d rows", len(fresh[0].rows), len(fresh[2].rows), len(fresh[3].rows), len(fresh[5].rows))
	}
	emptyPools()
	for round := range 3 {
		for i, sql := range stmts {
			rows, err := h.query(sql)
			if fmt.Sprint(err) != fresh[i].err || !identicalRows(rows, fresh[i].rows) {
				t.Fatalf("round %d, %s: %d rows, error %v; fresh: %d rows, error %s", round, sql, len(rows), err, len(fresh[i].rows), fresh[i].err)
			}
		}
	}
}

// heldNothing reports whether every run c has storage for is zero.
func heldNothing[T any](c *chunks[T]) bool {
	for _, d := range c.dir {
		for i := range d {
			if !reflect.ValueOf(&d[i]).Elem().IsZero() {
				return false
			}
		}
	}
	return true
}

// TestAggregateTableReuseClearsOnRelease: a released table holds no row,
// value or error in any run it handed out, keeps its storage, and is not
// pooled once it grew past aggTableCap; whatever the pool hands out after
// real statements holds nothing either.
func TestAggregateTableReuseClearsOnRelease(t *testing.T) {
	g := newAggTable(2)
	for i := range 3000 {
		id, _ := g.keys.add([]byte(fmt.Sprintf("k%d", i)))
		g.groups.at(g.groups.push()).first = Row{str("first"), num(int64(i))}
		g.states.push()
		if int(id) != i {
			t.Fatalf("key %d got id %d", i, id)
		}
		*g.best.at(g.best.push()) = str(fmt.Sprintf("best %d", i))
		*g.errs.at(g.errs.push()) = errSumOverflow
	}
	slots, groupChunks := len(g.keys.slots), len(g.groups.dir)
	if !g.clear() {
		t.Fatal("a 3 000-group table is not kept")
	}
	if !heldNothing(&g.groups) || !heldNothing(&g.states) || !heldNothing(&g.best) || !heldNothing(&g.errs) || !heldNothing(&g.keys.refs) {
		t.Fatal("a cleared table still holds what it was given")
	}
	if g.keys.len() != 0 || slices.ContainsFunc(g.keys.slots, func(s uint64) bool { return s != 0 }) || len(g.keys.arena) != 1 {
		t.Fatalf("cleared key table: %d keys, %d arena chunks", g.keys.len(), len(g.keys.arena))
	}
	if len(g.keys.slots) != slots || len(g.groups.dir) != groupChunks {
		t.Fatalf("clearing dropped storage: %d → %d slots, %d → %d group chunks", slots, len(g.keys.slots), groupChunks, len(g.groups.dir))
	}
	// A different number of calls gets state runs of its own width.
	if g.states.reset(5); len(g.states.dir) != 0 || g.states.w != 5 {
		t.Fatalf("re-widened states keep %d chunks of width %d", len(g.states.dir), g.states.w)
	}
	// The table answers afresh.
	if id, isNew := g.keys.add([]byte("k7")); id != 0 || !isNew {
		t.Fatalf("first key after clearing: id %d new %v", id, isNew)
	}

	big := newAggTable(1)
	for i := range aggTableCap + 1 {
		big.keys.add([]byte(fmt.Sprint(i)))
	}
	if big.clear() {
		t.Fatalf("a table of %d groups is kept", aggTableCap+1)
	}
	big.release()
	for range 4 { // each table is held, so the next Get draws another
		p := aggTables.Get().(*aggTable)
		if p == big {
			t.Fatal("an over-cap table came back from the pool")
		}
		defer aggTables.Put(p)
	}

	h := setupMeasures(t)
	for _, sql := range []string{
		"SELECT g, MIN(s), MAX(s), SUM(i) FROM m GROUP BY g",
		"SELECT g, SUM(s) FROM m GROUP BY g HAVING g = 'num'",
		"SELECT SUM(v) FROM w WHERE g = 'wrap'",
	} {
		h.query(sql)
		p := aggTables.Get().(*aggTable)
		if !heldNothing(&p.groups) || !heldNothing(&p.best) || !heldNothing(&p.errs) || p.keys.len() != 0 {
			t.Fatalf("after %s the pool hands out a table that holds rows, values or errors", sql)
		}
		aggTables.Put(p)
	}
}

// TestReaderScratchReturnedOnce: a scan closed twice gives its header and
// its streams back once, emptied — the next two scans opened together
// hold distinct buffers — and so does a reader closed twice.
func TestReaderScratchReturnedOnce(t *testing.T) {
	h := scanTalk(t, 2, 2000, 250)
	node := h.scanNode(t, "SELECT title FROM Talk WHERE nb_attendees < 900")
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	open := func() *seqScan {
		s := &seqScan{rd: tableReader{node: node}}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if b, err := s.NextBatch(ctx); err != nil || b.Len() == 0 {
			t.Fatalf("first batch: %d rows, %v", b.Len(), err)
		}
		return s
	}
	s := open()
	header := s.buf.Rows[:cap(s.buf.Rows)]
	var chunks [][]Row
	for _, st := range s.rd.streams {
		chunks = append(chunks, st.rows[:cap(st.rows)])
	}
	for range 2 {
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if s.hdr != nil || s.rd.set != nil {
		t.Fatal("a closed scan still holds its scratch")
	}
	for _, rows := range append(chunks, header) {
		if slices.ContainsFunc(rows, func(r Row) bool { return r != nil }) {
			t.Fatal("scratch went back holding rows")
		}
	}
	a, b := open(), open()
	if a.hdr == b.hdr || &a.buf.Rows[0] == &b.buf.Rows[0] {
		t.Fatal("two open scans share a batch header")
	}
	if a.rd.set == b.rd.set || &a.rd.streams[0] == &b.rd.streams[0] {
		t.Fatal("two open scans share their streams")
	}
	a.Close(ctx)
	b.Close(ctx)

	var r tableReader
	if err := r.open(ctx, node); err != nil {
		t.Fatal(err)
	}
	r.close()
	r.close()
	var r1, r2 tableReader
	if err := r1.open(ctx, node); err != nil {
		t.Fatal(err)
	}
	if err := r2.open(ctx, node); err != nil {
		t.Fatal(err)
	}
	if r1.set == r2.set || &r1.streams[0] == &r2.streams[0] {
		t.Fatal("two open readers share their streams")
	}
	r1.close()
	r2.close()
}

// TestReaderScratchConcurrentStatements: eight goroutines run scan_read's
// three statements over a two-shard table, each answer the one a lone run
// gives — the pools never hand one statement's scratch to another.
func TestReaderScratchConcurrentStatements(t *testing.T) {
	h := scanTalk(t, 2, 2000, 250)
	var stmts []string
	for x := 930; x < 940; x++ {
		stmts = append(stmts,
			fmt.Sprintf("SELECT title, nb_attendees FROM Talk WHERE nb_attendees > %d", x),
			fmt.Sprintf("SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < %d GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10", x),
			fmt.Sprintf("SELECT title, nb_attendees FROM Talk WHERE nb_attendees > %d ORDER BY nb_attendees DESC LIMIT 10", x))
	}
	want := make([][]Row, len(stmts))
	for i, sql := range stmts {
		rows, err := h.query(sql)
		if err != nil || len(rows) == 0 {
			t.Fatalf("%s: %d rows, %v", sql, len(rows), err)
		}
		want[i] = rows
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(stmts) {
				i := (w*7 + k) % len(stmts)
				rows, err := h.query(stmts[i])
				if err != nil || !identicalRows(rows, want[i]) {
					t.Errorf("goroutine %d, %s: %d rows, %v; alone: %d rows", w, stmts[i], len(rows), err, len(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAggregateTableReuseAllocs: once warm, scan_read's GROUP BY costs
// about as many allocations at 2 500 groups as at 25 and at most 32 KiB a
// statement — the group table, the shard chunks and the batch header come
// from the pools. The median of several single runs is read, so a
// collection that empties the pools between two runs cannot fail it.
func TestAggregateTableReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what is put back")
	}
	measure := func(rooms int) (allocs float64, bytes uint64) {
		h := scanTalk(t, 2, 5000, rooms)
		run := func() {
			if rows, err := h.query(scanReadGroup); err != nil || len(rows) != 10 {
				t.Fatalf("%d rooms: %d rows, %v", rooms, len(rows), err)
			}
		}
		var counts []float64
		var sizes []uint64
		for range 7 {
			counts = append(counts, testing.AllocsPerRun(1, run))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			sizes = append(sizes, after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(counts)
		slices.Sort(sizes)
		return counts[len(counts)/2], sizes[len(sizes)/2]
	}
	fewAllocs, fewBytes := measure(25)
	manyAllocs, manyBytes := measure(2500)
	t.Logf("25 groups: %.0f allocations, %d B; 2 500 groups: %.0f allocations, %d B", fewAllocs, fewBytes, manyAllocs, manyBytes)
	if manyAllocs > fewAllocs+8 {
		t.Errorf("2 500 groups cost %.0f allocations, 25 groups %.0f: the group table is not reused", manyAllocs, fewAllocs)
	}
	if manyBytes > 32<<10 {
		t.Errorf("2 500 groups allocate %d B a statement, want ≤ 32 KiB", manyBytes)
	}
}
