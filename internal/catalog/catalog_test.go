package catalog

import (
	"slices"
	"strings"
	"testing"

	"crowddb/internal/sqltypes"
)

func talkTable() *Table {
	return &Table{
		Name: "Talk",
		Columns: []Column{
			{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "abstract", Type: sqltypes.TypeString, Crowd: true},
			{Name: "nb_attendees", Type: sqltypes.TypeInt, Crowd: true},
		},
	}
}

func notableTable() *Table {
	return &Table{
		Name:  "NotableAttendee",
		Crowd: true,
		Columns: []Column{
			{Name: "name", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "title", Type: sqltypes.TypeString},
		},
		ForeignKeys: []ForeignKey{{Columns: []string{"title"}, RefTable: "Talk", RefColumns: []string{"title"}}},
	}
}

func TestCreateAndLookup(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	tab, ok := c.Table("talk") // case-insensitive
	if !ok || tab.Name != "Talk" {
		t.Fatal("lookup failed")
	}
	if len(tab.PrimaryKey) != 1 || tab.PrimaryKey[0] != "title" {
		t.Errorf("inline PK not promoted: %v", tab.PrimaryKey)
	}
	if !tab.HasCrowdColumns() || tab.Crowd {
		t.Error("Talk: crowd columns but not crowd table")
	}
}

func TestDuplicateTable(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(talkTable()); err == nil {
		t.Error("duplicate create must fail")
	}
}

func TestCrowdTableRequiresPK(t *testing.T) {
	c := New()
	bad := &Table{Name: "X", Crowd: true, Columns: []Column{{Name: "a", Type: sqltypes.TypeString}}}
	if err := c.CreateTable(bad); err == nil || !strings.Contains(err.Error(), "PRIMARY KEY") {
		t.Errorf("CROWD table without PK must be rejected, got %v", err)
	}
}

func TestForeignKeyValidation(t *testing.T) {
	c := New()
	// FK to missing table fails.
	if err := c.CreateTable(notableTable()); err == nil {
		t.Error("FK to unknown table must fail")
	}
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(notableTable()); err != nil {
		t.Fatalf("valid FK rejected: %v", err)
	}
	// FK to unknown column fails.
	bad := notableTable()
	bad.Name = "Bad"
	bad.ForeignKeys[0].RefColumns = []string{"nonexistent"}
	if err := c.CreateTable(bad); err == nil {
		t.Error("FK to unknown column must fail")
	}
}

func TestDropRestrictedByFK(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(notableTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("Talk"); err == nil {
		t.Error("drop of referenced table must fail")
	}
	if err := c.DropTable("NotableAttendee"); err != nil {
		t.Errorf("drop referencing table: %v", err)
	}
	if err := c.DropTable("Talk"); err != nil {
		t.Errorf("drop after reference gone: %v", err)
	}
	if err := c.DropTable("Talk"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestIndexes(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex(&Index{Name: "idx_t", Table: "Talk", Columns: []string{"title"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex(&Index{Name: "idx_t", Table: "Talk", Columns: []string{"title"}}); err == nil {
		t.Error("duplicate index name must fail")
	}
	if err := c.CreateIndex(&Index{Name: "idx_bad", Table: "Nope", Columns: []string{"x"}}); err == nil {
		t.Error("index on unknown table must fail")
	}
	if err := c.CreateIndex(&Index{Name: "idx_bad2", Table: "Talk", Columns: []string{"zzz"}}); err == nil {
		t.Error("index on unknown column must fail")
	}
	if ix := c.Indexes("talk"); len(ix) != 1 || ix[0].Name != "idx_t" || !ix[0].Unique {
		t.Errorf("Indexes should list the one unique index, got %v", ix)
	}
}

func TestIndexDroppedWithTable(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex(&Index{Name: "i1", Table: "Talk", Columns: []string{"title"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("Talk"); err != nil {
		t.Fatal(err)
	}
	if got := c.Indexes("Talk"); len(got) != 0 {
		t.Errorf("indexes must drop with table: %v", got)
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := c.CreateTable(&Table{Name: n, Columns: []Column{{Name: "x", Type: sqltypes.TypeInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Tables()
	if ts[0].Name != "alpha" || ts[2].Name != "zeta" {
		t.Errorf("not sorted: %v", []string{ts[0].Name, ts[1].Name, ts[2].Name})
	}
}

func TestValidateDuplicateColumn(t *testing.T) {
	bad := &Table{Name: "X", Columns: []Column{
		{Name: "a", Type: sqltypes.TypeInt}, {Name: "A", Type: sqltypes.TypeInt},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate column (case-insensitive) must fail")
	}
}

func TestDefaultStats(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("Talk")
	if tab.Stats().ExpectedCrowdCard != DefaultCrowdCard {
		t.Errorf("default crowd card: %d", tab.Stats().ExpectedCrowdCard)
	}
	// CNULL accounting works on a fresh table (the internal map is
	// initialized and clamps at zero on the way down).
	tab.AdjustCNull("abstract", 1)
	if n := tab.Stats().CNullCount["abstract"]; n != 1 {
		t.Errorf("CNULL count after increment: %d", n)
	}
	tab.AdjustCNull("abstract", -2)
	if n := tab.Stats().CNullCount["abstract"]; n != 0 {
		t.Errorf("CNULL count must clamp at zero, got %d", n)
	}
}

// RowWritten moves the row count and the CNULL counters from the image a
// write replaced to the one it stored.
func TestRowWrittenFollowsImages(t *testing.T) {
	tab := talkTable()
	row := func(abstract, n sqltypes.Value) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewString("t"), abstract, n}
	}
	open, half := row(sqltypes.CNull(), sqltypes.CNull()), row(sqltypes.NewString("a"), sqltypes.CNull())
	for _, step := range []struct {
		before, after           []sqltypes.Value
		rows, abstracts, counts int64
	}{
		{nil, open, 1, 1, 1},
		{nil, half, 2, 1, 2},
		{open, half, 2, 0, 2}, // an answer memorized
		{half, half, 2, 0, 2}, // nothing a counter tracks changed
		{half, open, 2, 1, 2}, // set back to CNULL
		{half, nil, 1, 1, 1},  // deleted
		{open, nil, 0, 0, 0},
		{open, nil, -1, 0, 0}, // CNULL counters clamp at zero
	} {
		tab.RowWritten(step.before, step.after)
		st := tab.Stats()
		if st.RowCount != step.rows || st.CNullCount["abstract"] != step.abstracts || st.CNullCount["nb_attendees"] != step.counts {
			t.Fatalf("after %v -> %v: %d rows, CNULLs %v; want %d rows, %d abstracts, %d counts",
				step.before, step.after, st.RowCount, st.CNullCount, step.rows, step.abstracts, step.counts)
		}
	}
}

func TestObservedFilterSelectivityEWMA(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("Talk")
	if _, ok := tab.FilterSelectivity(); ok {
		t.Error("no observation yet")
	}
	tab.ObserveFilter(100, 50)
	if sel, ok := tab.FilterSelectivity(); !ok || sel != 0.5 {
		t.Errorf("first observation must seed the EWMA: %v %v", sel, ok)
	}
	// Subsequent observations move the average toward the new value.
	tab.ObserveFilter(100, 10)
	if sel, _ := tab.FilterSelectivity(); sel >= 0.5 || sel <= 0.1 {
		t.Errorf("EWMA must land between old and new: %v", sel)
	}
	// Zero scanned rows are ignored (no divide-by-zero, no skew).
	before, _ := tab.FilterSelectivity()
	tab.ObserveFilter(0, 0)
	if after, _ := tab.FilterSelectivity(); after != before {
		t.Errorf("empty scans must not move the EWMA: %v -> %v", before, after)
	}
}

func TestObservedCrowdFanoutEWMA(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("Talk")
	if _, ok := tab.CrowdFanout(); ok {
		t.Error("no observation yet")
	}
	tab.ObserveCrowdFanout(2, 6)
	if fan, ok := tab.CrowdFanout(); !ok || fan != 3 {
		t.Errorf("first fanout observation: %v %v", fan, ok)
	}
	tab.ObserveCrowdFanout(1, 1)
	if fan, _ := tab.CrowdFanout(); fan >= 3 || fan <= 1 {
		t.Errorf("EWMA must land between old and new: %v", fan)
	}
}

// TestVersionMovesWithWhatPlansRead: every DDL moves the version and the
// schema version; a statistic moves the version only, and only when it
// takes a new value.
func TestVersionMovesWithWhatPlansRead(t *testing.T) {
	c := New()
	t1 := talkTable()
	ddl := func(what string, change func()) {
		t.Helper()
		v, s := c.Version(), c.SchemaVersion()
		change()
		if c.Version() == v || c.SchemaVersion() == s {
			t.Errorf("%s: version %d -> %d, schema version %d -> %d; want both moved", what, v, c.Version(), s, c.SchemaVersion())
		}
	}
	moves := func(what string, change func(), want bool) {
		t.Helper()
		v, s := c.Version(), c.SchemaVersion()
		change()
		if moved := c.Version() != v; moved != want {
			t.Errorf("%s: version moved = %v, want %v", what, moved, want)
		}
		if c.SchemaVersion() != s {
			t.Errorf("%s: the schema version moved", what)
		}
	}
	ddl("CreateTable", func() { c.CreateTable(t1) })
	ddl("CreateIndex", func() { c.CreateIndex(&Index{Name: "i", Table: "Talk", Columns: []string{"title"}}) })
	row := []sqltypes.Value{sqltypes.NewString("a"), sqltypes.CNull(), sqltypes.NewInt(1)}
	moves("an insert", func() { t1.RowWritten(nil, row) }, true)
	moves("an update that keeps count and CNULLs", func() { t1.RowWritten(row, row) }, false)
	filled := []sqltypes.Value{sqltypes.NewString("a"), sqltypes.NewString("x"), sqltypes.NewInt(1)}
	moves("an update that fills a CNULL", func() { t1.RowWritten(row, filled) }, true)
	moves("SetRowCount to the same count", func() { t1.SetRowCount(1) }, false)
	moves("SetRowCount", func() { t1.SetRowCount(2) }, true)
	moves("AddRowCount(0)", func() { t1.AddRowCount(0) }, false)
	moves("AdjustCNull below zero", func() { t1.AdjustCNull("abstract", -1) }, false)
	moves("AdjustCNull", func() { t1.AdjustCNull("abstract", 1) }, true)
	moves("the first filter observation", func() { t1.ObserveFilter(10, 5) }, true)
	moves("the same selectivity again", func() { t1.ObserveFilter(4, 2) }, false)
	moves("another selectivity", func() { t1.ObserveFilter(4, 1) }, true)
	moves("the first fanout observation", func() { t1.ObserveCrowdFanout(2, 4) }, true)
	moves("the same fanout again", func() { t1.ObserveCrowdFanout(1, 2) }, false)
	moves("SetShardCount", func() { t1.SetShardCount(8) }, false)
	ddl("DropTable", func() { c.DropTable("Talk") })
}

// Indexes lists a table's indexes sorted by name, under any spelling of
// the table's name, from the list CREATE INDEX keeps: a read allocates
// nothing, and a list handed out does not change under a later CREATE.
func TestIndexesKeptSorted(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"idx_b", "idx_c"} {
		if err := c.CreateIndex(&Index{Name: name, Table: "talk", Columns: []string{"title"}}); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Indexes("Talk")
	if err := c.CreateIndex(&Index{Name: "idx_a", Table: "TALK", Columns: []string{"title"}}); err != nil {
		t.Fatal(err)
	}
	names := func(ix []*Index) (out []string) {
		for _, idx := range ix {
			out = append(out, idx.Name)
		}
		return out
	}
	for _, table := range []string{"Talk", "talk"} {
		if got := names(c.Indexes(table)); !slices.Equal(got, []string{"idx_a", "idx_b", "idx_c"}) {
			t.Errorf("Indexes(%q) = %v", table, got)
		}
	}
	if got := names(before); !slices.Equal(got, []string{"idx_b", "idx_c"}) {
		t.Errorf("a list handed out before CREATE INDEX changed to %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.Indexes("Talk") }); n != 0 {
		t.Errorf("Indexes: %.0f allocations, want 0", n)
	}
}

// Table finds a table under any spelling of its name, and a lookup of a
// mixed-case name allocates nothing.
func TestTableLookupFoldsWithoutAllocating(t *testing.T) {
	c := New()
	if err := c.CreateTable(talkTable()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Talk", "talk", "TALK"} {
		if _, ok := c.Table(name); !ok {
			t.Errorf("Table(%q) not found", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.Table("Talk") }); n != 0 {
		t.Errorf("Table(%q): %.0f allocations, want 0", "Talk", n)
	}
}

// FuzzAppendFold holds the fold a lookup uses to strings.ToLower, which
// keys a table when it is created.
func FuzzAppendFold(f *testing.F) {
	for _, s := range []string{"", "Talk", "NotableAttendee", "ÄÖÜ", "İstanbul", "ǅ", "\xff\xfeX", "aKelvin"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := string(AppendFold(nil, s)), strings.ToLower(s); got != want {
			t.Fatalf("AppendFold(%q) = %q, strings.ToLower %q", s, got, want)
		}
	})
}
