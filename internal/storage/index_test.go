package storage

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"crowddb/internal/sqltypes"
)

// The index tests keep the names of the ordered index the hash index
// replaced: what they check — ids under a key, remove and re-add — is
// the same.

// Two ids under one key are both listed, a duplicate add lists an id
// once, and a key never added misses.
func TestBTreeBasic(t *testing.T) {
	ix := index{}
	ix.add("b", 2)
	ix.add("a", 1)
	ix.add("c", 3)
	ix.add("b", 20)
	ix.add("b", 20)
	if got := ix["b"]; !slices.Equal(got, []RowID{2, 20}) {
		t.Errorf(`ix["b"] = %v`, got)
	}
	if got, ok := ix["zzz"]; ok {
		t.Errorf(`ix["zzz"] = %v`, got)
	}
	if len(ix) != 3 {
		t.Errorf("%d keys, want 3", len(ix))
	}
}

// Remove takes one id off its key, the remove of an absent pair changes
// nothing, and a key emptied by remove is gone.
func TestBTreeDelete(t *testing.T) {
	ix := index{}
	ix.add("a", 1)
	ix.add("a", 2)
	ix.remove("a", 1)
	ix.remove("a", 1)
	ix.remove("nope", 1)
	if got := ix["a"]; !slices.Equal(got, []RowID{2}) || len(ix) != 1 {
		t.Errorf("after remove: %v", ix)
	}
	ix.remove("a", 2)
	if got, ok := ix["a"]; ok {
		t.Errorf("a key emptied by remove must be gone: %v", got)
	}
	if len(ix) != 0 {
		t.Errorf("%d keys, want 0", len(ix))
	}
}

// A removed pair can be added again, and a key emptied by remove takes
// new ids.
func TestBTreeReinsertAfterDelete(t *testing.T) {
	ix := index{}
	ix.add("k", 1)
	ix.remove("k", 1)
	ix.add("k", 2)
	if got := ix["k"]; !slices.Equal(got, []RowID{2}) {
		t.Errorf("add after remove: %v", got)
	}
	ix.add("k", 1)
	if got := ix["k"]; !slices.Equal(got, []RowID{2, 1}) {
		t.Errorf("re-add of a removed pair: %v", got)
	}
}

// Property: an index agrees with a map of sets under random adds and
// removes — each id listed once under its key, and a key emptied by
// remove gone.
func TestBTreeMatchesReferenceModel(t *testing.T) {
	type op struct {
		Key    uint8
		Rid    uint8
		Remove bool
	}
	check := func(ops []op) bool {
		ix := index{}
		model := map[string]map[RowID]bool{}
		for _, o := range ops {
			k := fmt.Sprintf("k%02d", o.Key%20)
			rid := RowID(o.Rid % 6)
			if o.Remove {
				ix.remove(k, rid)
				delete(model[k], rid)
				if len(model[k]) == 0 {
					delete(model, k)
				}
			} else {
				ix.add(k, rid)
				if model[k] == nil {
					model[k] = map[RowID]bool{}
				}
				model[k][rid] = true
			}
		}
		if len(ix) != len(model) { // an emptied key must be gone
			return false
		}
		for k, want := range model {
			got := ix[k]
			if len(got) != len(want) { // each id listed once
				return false
			}
			for _, rid := range got {
				if !want[rid] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A primary-key probe that hits allocates nothing: the key is built on
// the stack and the index hands back its own id list.
func TestLookupPKRowAtAllocatesNothing(t *testing.T) {
	s, err := NewStoreOptions("", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := insert(s, "t", kvRow(fmt.Sprintf("k%03d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	at, key := s.VisibleTS(), sqltypes.NewString("k042")
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := s.LookupPKRowAt("t", at, key); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("LookupPKRowAt on a hit: %.0f allocations, want 0", allocs)
	}
}
