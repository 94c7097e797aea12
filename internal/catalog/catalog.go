// Package catalog holds CrowdDB's schema metadata: table and column
// definitions including the paper's CROWD annotations (§2.1), foreign keys
// (which CrowdJoin and UI generation rely on), free-text annotations used
// for task-form generation (§3.1), and per-table statistics the rule-based
// optimizer consults for cardinality prediction (§3.2.2).
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"crowddb/internal/sqltypes"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       sqltypes.Type
	Crowd      bool // value may be CNULL and is crowdsourced on first use
	PrimaryKey bool
	Annotation string // free text shown on generated task forms
}

// ForeignKey links columns of this table to a referenced table. CrowdDB uses
// FKs both for CrowdJoin and to pre-fill referencing values on task forms.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Index describes a secondary index maintained by the storage layer.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// Statistics are the optimizer's per-table numbers. For CROWD tables the
// paper's optimizer works with *expected* cardinalities because the open
// world means the true size is unknowable.
type Statistics struct {
	RowCount int64
	// ExpectedCrowdCard is the predicted number of crowd tuples matching a
	// single probe key (used to bound CrowdJoin fan-out). Defaults to
	// DefaultCrowdCard when never set.
	ExpectedCrowdCard int64
	// CNullCount tracks, per column name, how many stored values are still
	// CNULL — CrowdProbe uses it to estimate outstanding work.
	CNullCount map[string]int64

	// ShardCount is written by SetShardCount and read by nothing.
	ShardCount int64

	// Runtime feedback: observations the executor reports back after each
	// statement, consumed only by the cost model's predictions (never by
	// execution itself, so feedback cannot change query answers — only
	// which plan the optimizer prefers and what EXPLAIN forecasts).

	// ObservedFilterSel is an exponential moving average of kept/scanned
	// for scans with a pushed-down predicate on this table.
	ObservedFilterSel  float64
	FilterObservations int64
	// ObservedCrowdFanout is an EWMA of accepted crowd tuples per
	// solicited key (the measured counterpart of ExpectedCrowdCard).
	ObservedCrowdFanout float64
	FanoutObservations  int64
}

// feedbackAlpha is the EWMA weight of a new observation: high enough that
// a handful of statements converge, low enough that one outlier does not
// swing predictions.
const feedbackAlpha = 0.3

// DefaultCrowdCard is the default expected number of crowdsourced tuples per
// probe against a CROWD table.
const DefaultCrowdCard = 3

// Table is a full table definition. Statistics live behind a mutex because
// concurrent SELECTs update them from the crowd operators (memorizing a
// probed value decrements the CNULL count, an accepted crowd tuple bumps
// the row count) while other queries' optimizations read them.
type Table struct {
	Name        string
	Crowd       bool // CREATE CROWD TABLE: open-world, tuples may be crowdsourced
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	Annotation  string

	statsMu sync.Mutex
	stats   Statistics
	// cat is the catalog the table is registered in (nil before): a
	// statistic that changes moves its Version.
	cat *Catalog
}

// changed notes, under statsMu, that a statistic the optimizer reads
// took a new value.
func (t *Table) changed() {
	if t.cat != nil {
		t.cat.version.Add(1)
	}
}

// Stats returns a consistent copy of the table's statistics.
func (t *Table) Stats() Statistics {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	cp := t.stats
	cp.CNullCount = make(map[string]int64, len(t.stats.CNullCount))
	for k, v := range t.stats.CNullCount {
		cp.CNullCount[k] = v
	}
	return cp
}

// OutstandingCNulls returns the most stored values still CNULL in any of
// cols and the stored-row count, read together without copying the
// counters.
func (t *Table) OutstandingCNulls(cols []string) (cnulls, rows int64) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	for _, col := range cols {
		cnulls = max(cnulls, t.stats.CNullCount[col])
	}
	return cnulls, t.stats.RowCount
}

// RowCount returns the current stored-row count.
func (t *Table) RowCount() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats.RowCount
}

// SetShardCount is kept only because bench/perf/probes.go compiles against it.
func (t *Table) SetShardCount(n int64) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	t.stats.ShardCount = n
}

// AddRowCount adjusts the stored-row count by delta.
func (t *Table) AddRowCount(delta int64) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if delta != 0 {
		t.stats.RowCount += delta
		t.changed()
	}
}

// SetRowCount overwrites the stored-row count (recovery).
func (t *Table) SetRowCount(n int64) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if n != t.stats.RowCount {
		t.stats.RowCount = n
		t.changed()
	}
}

// AdjustCNull adjusts a column's outstanding-CNULL count by delta,
// clamping at zero (answers can race recovery's recount).
func (t *Table) AdjustCNull(col string, delta int64) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats.CNullCount == nil {
		t.stats.CNullCount = make(map[string]int64)
	}
	was := t.stats.CNullCount[col]
	n := max(was+delta, 0)
	t.stats.CNullCount[col] = n
	if n != was {
		t.changed()
	}
}

// RowWritten moves the row count and the per-column CNULL counters from a
// stored row's image before a write to its image after: an insert has no
// before image (nil), a delete no after image. Call it only once the store
// has accepted the write, so that a rejected write leaves the statistics
// describing what is stored.
func (t *Table) RowWritten(before, after []sqltypes.Value) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	changed := true
	switch {
	case before == nil:
		t.stats.RowCount++
	case after == nil:
		t.stats.RowCount--
	default:
		changed = false
	}
	if t.stats.CNullCount == nil {
		t.stats.CNullCount = make(map[string]int64)
	}
	for ci, c := range t.Columns {
		was, is := before != nil && before[ci].IsCNull(), after != nil && after[ci].IsCNull()
		switch n := t.stats.CNullCount[c.Name]; {
		case is && !was:
			t.stats.CNullCount[c.Name] = n + 1
			changed = true
		case was && !is && n > 0: // clamped at zero: answers can race recovery's recount
			t.stats.CNullCount[c.Name] = n - 1
			changed = true
		}
	}
	if changed {
		t.changed()
	}
}

// ResetCNullCounts clears all CNULL counters (before a recovery recount).
func (t *Table) ResetCNullCounts() {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if len(t.stats.CNullCount) > 0 {
		t.stats.CNullCount = make(map[string]int64)
		t.changed()
	}
}

// ExpectedCrowdCard returns the predicted crowd tuples per probe key.
func (t *Table) ExpectedCrowdCard() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats.ExpectedCrowdCard
}

// ObserveFilter feeds back one filtered-scan execution: scanned input
// rows vs rows the pushed predicate kept.
func (t *Table) ObserveFilter(scanned, kept int64) {
	if scanned <= 0 {
		return
	}
	sel := float64(kept) / float64(scanned)
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	was := t.stats.ObservedFilterSel
	if t.stats.FilterObservations == 0 {
		t.stats.ObservedFilterSel = sel
	} else {
		t.stats.ObservedFilterSel += feedbackAlpha * (sel - t.stats.ObservedFilterSel)
	}
	if t.stats.FilterObservations == 0 || t.stats.ObservedFilterSel != was {
		t.changed()
	}
	t.stats.FilterObservations++
}

// FilterSelectivity returns the observed pushed-predicate selectivity and
// whether any observation exists.
func (t *Table) FilterSelectivity() (float64, bool) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats.ObservedFilterSel, t.stats.FilterObservations > 0
}

// ObserveCrowdFanout feeds back one solicitation round: keys asked vs
// crowd tuples accepted.
func (t *Table) ObserveCrowdFanout(keys, accepted int64) {
	if keys <= 0 {
		return
	}
	fan := float64(accepted) / float64(keys)
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	was := t.stats.ObservedCrowdFanout
	if t.stats.FanoutObservations == 0 {
		t.stats.ObservedCrowdFanout = fan
	} else {
		t.stats.ObservedCrowdFanout += feedbackAlpha * (fan - t.stats.ObservedCrowdFanout)
	}
	if t.stats.FanoutObservations == 0 || t.stats.ObservedCrowdFanout != was {
		t.changed()
	}
	t.stats.FanoutObservations++
}

// CrowdFanout returns the observed tuples-per-key fanout and whether any
// observation exists.
func (t *Table) CrowdFanout() (float64, bool) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stats.ObservedCrowdFanout, t.stats.FanoutObservations > 0
}

// Column returns the column definition by name (case-insensitive, like H2).
func (t *Table) Column(name string) (*Column, bool) {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i], true
		}
	}
	return nil, false
}

// ColumnIndex returns the ordinal of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// HasCrowdColumns reports whether any column is CROWD-annotated.
func (t *Table) HasCrowdColumns() bool {
	for _, c := range t.Columns {
		if c.Crowd {
			return true
		}
	}
	return false
}

// PrimaryKeyIndexes returns the ordinals of the primary-key columns.
func (t *Table) PrimaryKeyIndexes() []int {
	idx := make([]int, 0, len(t.PrimaryKey))
	for _, pk := range t.PrimaryKey {
		idx = append(idx, t.ColumnIndex(pk))
	}
	return idx
}

// Validate checks internal consistency of a table definition.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table has no name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	seen := map[string]bool{}
	for _, c := range t.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: table %s: duplicate column %s", t.Name, c.Name)
		}
		seen[lc] = true
	}
	for _, pk := range t.PrimaryKey {
		if t.ColumnIndex(pk) < 0 {
			return fmt.Errorf("catalog: table %s: primary key column %s not found", t.Name, pk)
		}
	}
	// The paper requires CROWD tables to have a primary key so that
	// crowd-contributed tuples can be deduplicated.
	if t.Crowd && len(t.PrimaryKey) == 0 {
		return fmt.Errorf("catalog: CROWD table %s requires a PRIMARY KEY", t.Name)
	}
	for _, fk := range t.ForeignKeys {
		for _, c := range fk.Columns {
			if t.ColumnIndex(c) < 0 {
				return fmt.Errorf("catalog: table %s: foreign key column %s not found", t.Name, c)
			}
		}
	}
	return nil
}

// Catalog is the thread-safe registry of tables and indexes.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table // lower-cased name -> def
	indexes map[string]*Index // lower-cased index name -> def
	// byTable lists each table's indexes sorted by name, under the table's
	// declared name. A list is replaced, never changed, so Indexes hands
	// it out as it is.
	byTable map[string][]*Index
	version atomic.Uint64
	schema  atomic.Uint64
}

// Version counts the changes a compiled plan can depend on: every DDL,
// and every statistic of a registered table that takes a new value. A
// plan compiled after reading version v is current while Version is v.
// When only statistics moved — SchemaVersion did not — a plan whose shape
// reads none of them is still the one a compile would make; only its
// costs are not.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// SchemaVersion counts the DDL alone: tables created and dropped, indexes
// created. Read it after Version: a DDL moves it first.
func (c *Catalog) SchemaVersion() uint64 { return c.schema.Load() }

// ddl notes, under mu, a change to the schema: SchemaVersion moves before
// Version, so a reader that sees the new Version sees the new schema
// version too.
func (c *Catalog) ddl() {
	c.schema.Add(1)
	c.version.Add(1)
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
		byTable: make(map[string][]*Index),
	}
}

// CreateTable registers a validated table definition.
func (c *Catalog) CreateTable(t *Table) error {
	// Promote inline PRIMARY KEY markers into the table-level key before
	// validation, so the CROWD-table PK requirement sees them.
	if len(t.PrimaryKey) == 0 {
		for _, col := range t.Columns {
			if col.PrimaryKey {
				t.PrimaryKey = append(t.PrimaryKey, col.Name)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return err
	}
	t.statsMu.Lock()
	if t.stats.CNullCount == nil {
		t.stats.CNullCount = make(map[string]int64)
	}
	if t.stats.ExpectedCrowdCard == 0 {
		t.stats.ExpectedCrowdCard = DefaultCrowdCard
	}
	t.statsMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	// FK targets must exist.
	for _, fk := range t.ForeignKeys {
		ref, ok := c.tables[strings.ToLower(fk.RefTable)]
		if !ok {
			return fmt.Errorf("catalog: table %s: foreign key references unknown table %s", t.Name, fk.RefTable)
		}
		for _, rc := range fk.RefColumns {
			if ref.ColumnIndex(rc) < 0 {
				return fmt.Errorf("catalog: table %s: foreign key references unknown column %s.%s", t.Name, fk.RefTable, rc)
			}
		}
	}
	t.statsMu.Lock()
	t.cat = c
	t.statsMu.Unlock()
	c.tables[key] = t
	c.ddl()
	return nil
}

// DropTable removes a table. It fails if another table references it.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	for _, other := range c.tables {
		if strings.EqualFold(other.Name, name) {
			continue
		}
		for _, fk := range other.ForeignKeys {
			if strings.EqualFold(fk.RefTable, name) {
				return fmt.Errorf("catalog: cannot drop %s: referenced by %s", name, other.Name)
			}
		}
	}
	delete(c.tables, key)
	delete(c.byTable, t.Name)
	c.ddl()
	for iname, idx := range c.indexes {
		if strings.EqualFold(idx.Table, name) {
			delete(c.indexes, iname)
		}
	}
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	var buf [64]byte
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[string(AppendFold(buf[:0], name))]
	return t, ok
}

// AppendFold appends name case-folded as strings.ToLower folds it: the key
// a table's name is looked up by. A map indexed with
// string(AppendFold(buf[:0], name)), buf on the stack, allocates nothing
// for a name that fits buf.
func AppendFold(dst []byte, name string) []byte {
	for _, r := range name {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// Tables returns all table definitions sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateIndex registers an index definition after validating it.
func (c *Catalog) CreateIndex(idx *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(idx.Name)
	if _, exists := c.indexes[key]; exists {
		return fmt.Errorf("catalog: index %s already exists", idx.Name)
	}
	t, ok := c.tables[strings.ToLower(idx.Table)]
	if !ok {
		return fmt.Errorf("catalog: index %s: unknown table %s", idx.Name, idx.Table)
	}
	for _, col := range idx.Columns {
		if t.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: index %s: unknown column %s.%s", idx.Name, idx.Table, col)
		}
	}
	c.indexes[key] = idx
	list := append(slices.Clone(c.byTable[t.Name]), idx)
	slices.SortFunc(list, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	c.byTable[t.Name] = list
	c.ddl()
	return nil
}

// Indexes returns all indexes on the given table, sorted by name. The
// list is the catalog's own: callers must not modify it.
func (c *Catalog) Indexes(table string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if list, ok := c.byTable[table]; ok {
		return list
	}
	for name, list := range c.byTable {
		if strings.EqualFold(name, table) {
			return list
		}
	}
	return nil
}
