package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"crowddb/internal/sqltypes"
)

// v1Table is one table of the data directory in testdata/v1.
type v1Table struct {
	name string
	pk   []int
	rows []Row // in insertion order, which is id order
}

// v1Tables is what testdata/v1 holds: keys whose version-1 bytes carry
// escaped 0x00s, integers past ±2^53, −0.0 and a composite key, on 4
// shards. The directory was written once, by the storage package of
// commit 77de236 (the last to key its indexes by the version-1 bytes):
// NewStoreOptions with 4 shards, the tables and the ints_grp index
// created, each table's first half of rows inserted, a Checkpoint, the
// second halves inserted, and Close. It must not be rewritten by later
// code, or it stops showing that the routing did not change.
var v1Tables = []v1Table{
	{name: "ints", pk: []int{0}, rows: []Row{
		{sqltypes.NewInt(1<<53 + 1), sqltypes.NewString("a")},
		{sqltypes.NewInt(-(1<<53 + 1)), sqltypes.NewString("b")},
		{sqltypes.NewInt(math.MinInt64), sqltypes.NewString("a\x00")},
		{sqltypes.NewInt(math.MaxInt64), sqltypes.NewString("a")},
		{sqltypes.NewInt(0), sqltypes.NewString("b")},
		{sqltypes.NewInt(1 << 53), sqltypes.NewString("a")},
		{sqltypes.NewInt(-1), sqltypes.NewString("\x00")},
		{sqltypes.NewInt(42), sqltypes.NewString("a")},
	}},
	{name: "floats", pk: []int{0}, rows: []Row{
		{sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewInt(1)},
		{sqltypes.NewFloat(1.5), sqltypes.NewInt(2)},
		{sqltypes.NewFloat(-2.25), sqltypes.NewInt(3)},
		{sqltypes.NewFloat(1 << 53), sqltypes.NewInt(4)},
		{sqltypes.NewFloat(1e300), sqltypes.NewInt(5)},
		{sqltypes.NewFloat(-1e-300), sqltypes.NewInt(6)},
	}},
	{name: "strs", pk: []int{0}, rows: []Row{
		{sqltypes.NewString("a\x00b"), sqltypes.NewInt(1)},
		{sqltypes.NewString("\x00"), sqltypes.NewInt(2)},
		{sqltypes.NewString("a"), sqltypes.NewInt(3)},
		{sqltypes.NewString(""), sqltypes.NewInt(4)},
		{sqltypes.NewString("\x00\x00"), sqltypes.NewInt(5)},
		{sqltypes.NewString("ab"), sqltypes.NewInt(6)},
		{sqltypes.NewString("a\x00"), sqltypes.NewInt(7)},
		{sqltypes.NewString("\x00\xc3\xa9\x00"), sqltypes.NewInt(8)},
	}},
	{name: "pairs", pk: []int{0, 1}, rows: []Row{
		{sqltypes.NewString("a"), sqltypes.NewInt(1), sqltypes.NewFloat(0.5)},
		{sqltypes.NewString("a\x00"), sqltypes.NewInt(1), sqltypes.NewFloat(1.5)},
		{sqltypes.NewString("a"), sqltypes.NewInt(2), sqltypes.NewFloat(2.5)},
		{sqltypes.NewString("ab"), sqltypes.NewInt(1), sqltypes.NewFloat(3.5)},
		{sqltypes.NewString(""), sqltypes.NewInt(math.MinInt64), sqltypes.NewFloat(4.5)},
		{sqltypes.NewString("x\x00y"), sqltypes.NewInt(1<<53 + 1), sqltypes.NewFloat(5.5)},
		{sqltypes.NewString("\x00"), sqltypes.NewInt(-(1<<53 + 1)), sqltypes.NewFloat(6.5)},
	}},
}

// v1Index is testdata/v1's one secondary index.
var v1Index = struct {
	table, name string
	cols        []int
}{"ints", "ints_grp", []int{1}}

// openV1Copy opens a copy of testdata/v1, with shards.json replaced by meta
// when meta is not empty.
func openV1Copy(t *testing.T, meta string) (*Store, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v1"))); err != nil {
		t.Fatal(err)
	}
	if meta != "" {
		if err := os.WriteFile(shardMetaPath(dir), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return NewStoreOptions(dir, Options{})
}

// TestV1DataDirOpens: a data directory the previous key encoding wrote
// recovers on this code, and every key routes to the shard its row was
// written on: a primary-key probe, which reads only the key's home shard,
// finds every row, a second insert of every key is a duplicate, and the
// secondary index and a scan find every row in id order.
func TestV1DataDirOpens(t *testing.T) {
	s, err := openV1Copy(t, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 4 {
		t.Fatalf("%d shards, want 4", s.NumShards())
	}
	for _, tb := range v1Tables {
		if err := s.CreateTable(tb.name, tb.pk); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateIndex(v1Index.table, v1Index.name, v1Index.cols, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	same := func(a, b Row) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sqltypes.Identical(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	at := s.VisibleTS()
	for _, tb := range v1Tables {
		homes := map[int]bool{}
		for i, want := range tb.rows {
			pk := make([]sqltypes.Value, len(tb.pk))
			for j, c := range tb.pk {
				pk[j] = want[c]
			}
			id, got, ok := s.LookupPKRowAt(tb.name, at, pk...)
			if !ok || id != RowID(i+1) || !same(got, want) {
				t.Errorf("%s: probe for %v found %v (id %d, %v), want id %d", tb.name, pk, got, id, ok, i+1)
			}
			ts, _ := s.table(tb.name)
			homes[ts.shardOfKey(ts.pkKey(want))] = true
			if _, err := insert(s, tb.name, want); !errors.As(err, new(*DuplicateKeyError)) {
				t.Errorf("%s: second insert of %v: %v, want a duplicate key", tb.name, pk, err)
			}
		}
		if len(homes) < 2 {
			t.Errorf("%s: every key routes to one shard; the fixture shows nothing", tb.name)
		}
		ids, rows, err := scanRows(s, tb.name)
		if err != nil || len(rows) != len(tb.rows) {
			t.Fatalf("%s: scan found %d rows (%v), want %d", tb.name, len(rows), err, len(tb.rows))
		}
		for i, want := range tb.rows {
			if ids[i] != RowID(i+1) || !same(rows[i], want) {
				t.Errorf("%s: scan row %d is id %d %v, want id %d %v", tb.name, i, ids[i], rows[i], i+1, want)
			}
		}
	}
	ids, err := lookupIndex(s, v1Index.table, v1Index.name, sqltypes.NewString("a"))
	if want := []RowID{1, 4, 6, 8}; err != nil || !slices.Equal(ids, want) {
		t.Errorf("index probe for 'a': %v (%v), want %v", ids, err, want)
	}
}

// TestDataVersionRefused: a data directory whose shards.json names another
// version, or none, is refused with ErrDataVersion, which names the
// version found and the version this code writes.
func TestDataVersionRefused(t *testing.T) {
	for meta, found := range map[string]int{
		`{"version":2,"shards":4}` + "\n": 2,
		`{"shards":4}` + "\n":             0,
	} {
		_, err := openV1Copy(t, meta)
		var refused *ErrDataVersion
		if !errors.As(err, &refused) || refused.OnDisk != found || refused.Writes != dataVersion {
			t.Errorf("shards.json %q: %v, want ErrDataVersion found %d writes %d", meta, err, found, dataVersion)
		}
	}
}
