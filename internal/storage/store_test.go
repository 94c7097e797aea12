package storage

import (
	"bytes"
	"errors"
	"testing"

	"crowddb/internal/sqltypes"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	return s
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
	id1, err := s.Insert("Talk", talkRow("CrowdDB", 100))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Insert("Talk", talkRow("Qurk", 80))
	if err != nil {
		t.Fatal(err)
	}
	row, ok := s.Get("Talk", id1)
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
	if _, err := s.Insert("Talk", talkRow("CrowdDB", 1)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Insert("Talk", talkRow("CrowdDB", 2))
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
	id, _ := s.Insert("Talk", talkRow("CrowdDB", 1))
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
	id, _ := s.Insert("Talk", talkRow("CrowdDB", 100))
	if err := s.Update("Talk", id, talkRow("CrowdDB", 250)); err != nil {
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
	id2, _ := s.Insert("Talk", talkRow("Qurk", 80))
	if err := s.Update("Talk", id2, talkRow("CrowdDB", 80)); err == nil {
		t.Error("PK conflict on update must fail")
	}
}

func TestDelete(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	id, _ := s.Insert("Talk", talkRow("CrowdDB", 100))
	if err := s.Delete("Talk", id); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("Talk", id); ok {
		t.Error("row still present after delete")
	}
	if _, ok := lookupPK(s, "Talk", sqltypes.NewString("CrowdDB")); ok {
		t.Error("PK still indexed after delete")
	}
	if err := s.Delete("Talk", id); err == nil {
		t.Error("double delete must fail")
	}
	// PK is reusable after delete.
	if _, err := s.Insert("Talk", talkRow("CrowdDB", 1)); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	if err := s.CreateIndex("Talk", "uniq_att", []int{2}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("Talk", talkRow("A", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("Talk", talkRow("B", 7)); err == nil {
		t.Error("unique index must reject duplicate")
	}
}

func TestCreateIndexOverExistingData(t *testing.T) {
	s := memStore(t)
	setupTalk(t, s)
	s.Insert("Talk", talkRow("A", 1))
	s.Insert("Talk", talkRow("B", 1))
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
	if _, err := s.Insert("nope", Row{}); err == nil {
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
