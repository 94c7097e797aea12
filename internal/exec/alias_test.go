package exec

// The read-only row contract, end to end: the store hands its row images
// out uncopied, so nothing that touches rows — no operator, no crowd
// write-back, no caller scribbling on a result — may write through to
// them. A pinned snapshot is the witness.

import (
	"fmt"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/optimizer"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/ui"
)

// noteOracle answers every probe of the note column.
type noteOracle struct{ orderOracle }

func (noteOracle) ProbeTruth(_ string, _ map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
	truth := map[string]string{}
	for _, col := range ask {
		truth[col] = "from the crowd"
	}
	return &crowd.SimTruth{Truth: truth}
}

func deepCopyRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

func TestAliasStatementsLeaveStoredImagesIntact(t *testing.T) {
	st, err := storage.NewStoreOptions("", storage.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{cat: catalog.New(), store: st}
	h.createTable(t, &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "grp", Type: sqltypes.TypeString},
			{Name: "val", Type: sqltypes.TypeInt},
			{Name: "note", Type: sqltypes.TypeString, Crowd: true},
		},
	})
	const rows = 40
	for i := 0; i < rows; i++ {
		h.insert(t, "t", Row{num(int64(i)), str(fmt.Sprintf("g%d", i%4)), num(int64(i * 3 % 17)), sqltypes.CNull()})
	}
	if err := h.cat.CreateIndex(&catalog.Index{Name: "t_grp", Table: "t", Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateIndex("t", "t_grp", []int{1}, false); err != nil {
		t.Fatal(err)
	}

	snap := st.AcquireSnapshot()
	defer snap.Release()
	ids, images := storedAt(t, st, "t", snap.TS())
	if len(images) != rows {
		t.Fatalf("snapshot scan: %d rows", len(images))
	}
	want := deepCopyRows(images)

	// Every statement kind that touches rows; whatever comes back is the
	// caller's to scribble on.
	scribble := func(result []Row) {
		for _, r := range result {
			for i := range r {
				r[i] = str("clobbered")
			}
		}
	}
	for _, sql := range []string{
		"SELECT * FROM t",
		"SELECT * FROM t WHERE id = 7",
		"SELECT * FROM t WHERE grp = 'g1'",
		"SELECT id, val FROM t WHERE val > 5",
		"SELECT id, val + 1, grp FROM t WHERE val > 5 ORDER BY val DESC, id LIMIT 9",
		"SELECT * FROM t ORDER BY val, id",
		"SELECT DISTINCT grp FROM t",
		"SELECT grp, COUNT(*), SUM(val), MIN(note), MAX(id) FROM t GROUP BY grp HAVING COUNT(*) > 1",
		"SELECT a.id, b.id, a.note FROM t a JOIN t b ON b.val = a.val WHERE a.id < 10",
		"SELECT a.id, b.grp FROM t a, t b WHERE a.id < 3 AND b.id > a.id + 35",
		"SELECT a.id, b.id FROM t a LEFT JOIN t b ON b.id = a.id + 39",
	} {
		ctx := &Ctx{Store: st, Cat: h.cat, Cache: NewCompareCache()}
		scribble(h.runCtxOpts(t, ctx, sql, optimizer.Options{}))
	}

	// Writers (what UPDATE and DELETE do underneath): new versions, never
	// edits of an installed one.
	for i := 0; i < rows; i += 5 {
		updated := images[i].Clone()
		updated[2] = num(-1)
		if err := storeUpdate(st, "t", ids[i], updated); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i < rows; i += 10 {
		if err := storeDelete(st, "t", ids[i]); err != nil {
			t.Fatal(err)
		}
	}

	// A CrowdProbe write-back against the scripted platform: the crowd's
	// answers land in the rows the scan handed over AND in the store.
	uim := ui.NewManager(h.cat)
	uim.GenerateAll()
	tm := taskmgr.New(&scriptCrowd{}, uim, quality.NewTracker(), nil, noteOracle{}, taskmgr.DefaultConfig())
	ctx := &Ctx{Store: st, Cat: h.cat, Tasks: tm, Cache: NewCompareCache()}
	probed := h.runCtxOpts(t, ctx, "SELECT id, note FROM t WHERE id < 20", optimizer.Options{})
	if ctx.Stats.ProbeRequests == 0 {
		t.Fatal("the probe statement asked the crowd nothing")
	}
	for _, r := range probed {
		if r[1].Str() != "from the crowd" {
			t.Fatalf("probe result %v: the write-back did not reach the result", r)
		}
	}
	scribble(probed)

	// The pinned snapshot still reads what it read before — through a new
	// scan and through the images it was handed at the start.
	_, again := storedAt(t, st, "t", snap.TS())
	for name, got := range map[string][]Row{"rescan": again, "held images": images} {
		if rowsKey(got) != rowsKey(want) {
			t.Errorf("pinned snapshot changed (%s):\ngot  %swant %s", name, rowsKey(got), rowsKey(want))
		}
	}

	// And a fresh query sees exactly the writes above, no scribbles.
	fresh := h.run(t, "SELECT id, val, note FROM t ORDER BY id", optimizer.Options{})
	var expect []Row
	for i := 0; i < rows; i++ {
		if i%10 == 3 {
			continue
		}
		r := Row{want[i][0], want[i][2], sqltypes.CNull()}
		if i%5 == 0 {
			r[1] = num(-1)
		}
		if i < 20 {
			r[2] = str("from the crowd")
		}
		expect = append(expect, r)
	}
	if rowsKey(fresh) != rowsKey(expect) {
		t.Errorf("fresh query:\ngot  %swant %s", rowsKey(fresh), rowsKey(expect))
	}
}
