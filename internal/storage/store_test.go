package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"crowddb/internal/sqltypes"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStoreOptions("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// insert, update and del commit one row change in a transaction of its
// own; get reads a row at the current watermark.
func insert(s *Store, table string, row Row) (RowID, error) {
	tx := s.Begin()
	id, err := tx.Insert(table, row)
	if cerr := tx.Commit(); err == nil && cerr != nil {
		return 0, cerr
	}
	return id, err
}

func update(s *Store, table string, id RowID, row Row) error {
	tx := s.Begin()
	_, _, err := tx.Update(table, id, setRow(row))
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	return err
}

func del(s *Store, table string, id RowID) error {
	tx := s.Begin()
	_, err := tx.Delete(table, id)
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	return err
}

func get(s *Store, table string, id RowID) (Row, bool) {
	return s.GetAt(table, id, s.VisibleTS())
}

// setRow is the Txn.Update change that replaces the live version with row.
func setRow(row Row) func(Row) (Row, error) {
	return func(Row) (Row, error) { return row.Clone(), nil }
}

func talkRow(title string, attendees int64) Row {
	return Row{sqltypes.NewString(title), sqltypes.CNull(), sqltypes.NewInt(attendees)}
}

func setupTalk(t *testing.T, s *Store) {
	t.Helper()
	if err := s.CreateTable("Talk", []int{0}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetScan(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	id1, err := insert(s, "Talk", talkRow("CrowdDB", 100))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := insert(s, "Talk", talkRow("Qurk", 80))
	if err != nil {
		t.Fatal(err)
	}
	row, ok := get(s, "Talk", id1)
	if !ok || row[0].Str() != "CrowdDB" {
		t.Errorf("Get: %v %v", row, ok)
	}
	if !row[1].IsCNull() {
		t.Error("CNULL must round-trip through storage")
	}
	ids, _, err := scanRows(s, "Talk")
	if err != nil || len(ids) != 2 || ids[0] != id1 || ids[1] != id2 {
		t.Errorf("Scan: %v %v", ids, err)
	}
	n, _ := s.RowCount("Talk")
	if n != 2 {
		t.Errorf("RowCount: %d", n)
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	if _, err := insert(s, "Talk", talkRow("CrowdDB", 1)); err != nil {
		t.Fatal(err)
	}
	_, err := insert(s, "Talk", talkRow("CrowdDB", 2))
	var dup *DuplicateKeyError
	if !errors.As(err, &dup) {
		t.Fatalf("want DuplicateKeyError, got %v", err)
	}
	if dup.Table != "Talk" {
		t.Errorf("%+v", dup)
	}
}

func TestLookupPK(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 1))
	got, ok := lookupPK(s, "Talk", sqltypes.NewString("CrowdDB"))
	if !ok || got != id {
		t.Errorf("LookupPK: %v %v", got, ok)
	}
	if _, ok := lookupPK(s, "Talk", sqltypes.NewString("Nope")); ok {
		t.Error("missing key found")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	if err := s.CreateIndex("Talk", "idx_att", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	if err := update(s, "Talk", id, talkRow("CrowdDB", 250)); err != nil {
		t.Fatal(err)
	}
	rids, err := lookupIndex(s, "Talk", "idx_att", sqltypes.NewInt(250))
	if err != nil || len(rids) != 1 || rids[0] != id {
		t.Errorf("new key: %v %v", rids, err)
	}
	rids, _ = lookupIndex(s, "Talk", "idx_att", sqltypes.NewInt(100))
	if len(rids) != 0 {
		t.Errorf("old key still indexed: %v", rids)
	}
	// PK change to a conflicting key must fail.
	id2, _ := insert(s, "Talk", talkRow("Qurk", 80))
	if err := update(s, "Talk", id2, talkRow("CrowdDB", 80)); err == nil {
		t.Error("PK conflict on update must fail")
	}
}

// TestTxnUpdateChangesLiveVersion: Txn.Update hands its change the row's
// live version, so a write committed after the caller's snapshot read is
// built on, not undone; a nil change writes nothing; and a change that
// moves the row to another shard is re-applied under both shards' locks.
func TestTxnUpdateChangesLiveVersion(t *testing.T) {
	s, err := NewStoreOptions("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	setupTalk(t, s)
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	snap := s.AcquireSnapshot()
	defer snap.Release()
	if err := update(s, "Talk", id, talkRow("CrowdDB", 250)); err != nil {
		t.Fatal(err)
	}
	fill := func(live Row) (Row, error) {
		if !live[1].IsCNull() {
			return nil, nil
		}
		out := live.Clone()
		out[1] = sqltypes.NewString("an abstract")
		return out, nil
	}
	tx := s.Begin()
	live, row, err := tx.Update("Talk", id, fill)
	tx.Commit()
	if err != nil || live[2].Int() != 250 || row[2].Int() != 250 || row[1].Str() != "an abstract" {
		t.Fatalf("update over a newer live version: live %v, wrote %v, err %v", live, row, err)
	}
	if got, _ := s.GetAt("Talk", id, snap.TS()); got[2].Int() != 100 || !got[1].IsCNull() {
		t.Errorf("the snapshot's version changed: %v", got)
	}
	tx = s.Begin()
	_, row, err = tx.Update("Talk", id, fill)
	tx.Commit()
	if err != nil || row != nil {
		t.Errorf("a change with nothing left to fill wrote %v (err %v)", row, err)
	}
	if _, retained := s.VersionStats(); retained != 2 {
		t.Errorf("%d versions retained, want the 2 the real updates superseded", retained)
	}

	ts, _ := s.table("Talk")
	home := ts.shardOfKey(ts.pkKey(talkRow("CrowdDB", 0)))
	var moved string
	for i := 0; moved == ""; i++ {
		if k := fmt.Sprintf("moved-%d", i); ts.shardOfKey(ts.pkKey(talkRow(k, 0))) != home {
			moved = k
		}
	}
	calls := 0
	tx = s.Begin()
	_, row, err = tx.Update("Talk", id, func(live Row) (Row, error) {
		calls++
		out := live.Clone()
		out[0] = sqltypes.NewString(moved)
		return out, nil
	})
	tx.Commit()
	if err != nil || calls != 2 {
		t.Fatalf("a cross-shard move ran its change %d times (err %v), want 2: once to learn the new shard, once under both locks", calls, err)
	}
	if got, ok := get(s, "Talk", id); !ok || got[0].Str() != moved || got[1].Str() != "an abstract" || got[2].Int() != 250 {
		t.Errorf("after the move: %v %v", got, ok)
	}
}

func TestDelete(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	id, _ := insert(s, "Talk", talkRow("CrowdDB", 100))
	if err := del(s, "Talk", id); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, "Talk", id); ok {
		t.Error("row still present after delete")
	}
	if _, ok := lookupPK(s, "Talk", sqltypes.NewString("CrowdDB")); ok {
		t.Error("PK still indexed after delete")
	}
	if err := del(s, "Talk", id); err == nil {
		t.Error("double delete must fail")
	}
	// PK is reusable after delete.
	if _, err := insert(s, "Talk", talkRow("CrowdDB", 1)); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	if err := s.CreateIndex("Talk", "uniq_att", []int{2}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := insert(s, "Talk", talkRow("A", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := insert(s, "Talk", talkRow("B", 7)); err == nil {
		t.Error("unique index must reject duplicate")
	}
}

func TestCreateIndexOverExistingData(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	insert(s, "Talk", talkRow("A", 1))
	insert(s, "Talk", talkRow("B", 1))
	if err := s.CreateIndex("Talk", "i", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	rids, _ := lookupIndex(s, "Talk", "i", sqltypes.NewInt(1))
	if len(rids) != 2 {
		t.Errorf("backfill: %v", rids)
	}
	if err := s.CreateIndex("Talk", "u", []int{2}, true); err == nil {
		t.Error("unique index over duplicate data must fail")
	}
}

func TestUnknownTableErrors(t *testing.T) {
	s := memStore(t)
	if _, err := insert(s, "nope", Row{}); err == nil {
		t.Error("insert")
	}
	if _, _, err := scanRows(s, "nope"); err == nil {
		t.Error("scan")
	}
	if err := s.DropTable("nope"); err == nil {
		t.Error("drop")
	}
}

// TestIndexKeyComposite: a composite key does not collide with a key of
// fewer parts that runs its values together, ("ab") vs ("a","b").
func TestIndexKeyComposite(t *testing.T) {
	ab := sqltypes.AppendRowKey(nil, []sqltypes.Value{sqltypes.NewString("ab")})
	a_b := sqltypes.AppendRowKey(nil, []sqltypes.Value{sqltypes.NewString("a"), sqltypes.NewString("b")})
	if bytes.Equal(ab, a_b) {
		t.Error("composite key ambiguity")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{sqltypes.Null(), sqltypes.CNull()},
		{sqltypes.NewString("it's"), sqltypes.NewInt(-42), sqltypes.NewFloat(2.5), sqltypes.NewBool(true)},
		{},
	}
	for _, r := range rows {
		data, err := EncodeRow(r)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRow(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(r) {
			t.Fatalf("len %d vs %d", len(back), len(r))
		}
		for i := range r {
			if !sqltypes.Identical(r[i], back[i]) {
				t.Errorf("value %d: %v vs %v", i, r[i], back[i])
			}
		}
	}
}
