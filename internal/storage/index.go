// Package storage implements CrowdDB's storage engine: heap tables with
// stable row IDs, hash indexes over encoded keys, and a JSON-lines
// write-ahead log with snapshot checkpoints. It plays the role H2's storage
// layer plays in the paper's prototype (§3): crowd answers are always
// memorized here so a query never re-asks the crowd for data it already
// obtained.
//
// Every index access is an equality probe on one key — CrowdJoin's index
// nested-loop join, CrowdProbe's and DML's key pinned to a literal, the
// duplicate-key checks — so an index is a map from the key to the rows
// that carry it, and the primary key is one more index. A key is
// sqltypes.AppendKeyPart's bytes, the one key encoding the executor uses
// too, and nothing reads keys in order. Index keys never reach disk:
// recovery rebuilds every index. Only shard routing reads the form keys had
// in data directory version 1, and hashV1Part is the one place that knows
// it.
//
// Each shard's heap keeps its version chains in ascending row-id order, so
// a scan is one walk of a slice (ShardScan) and needs neither a sort nor a
// second lookup. Row images are immutable once installed and are handed
// out uncopied: rows returned by any read are read-only — see Row.
package storage

import "slices"

// RowID identifies a row in a heap table; IDs are never reused.
type RowID int64

// index maps a key (sqltypes.AppendKeyPart's bytes) to the ids of the rows
// whose indexed columns encode to it. A lookup returns the map's own slice:
// read it under the shard lock and never keep it.
type index map[string][]RowID

// add lists id under key, at most once: a version chain can revisit a key
// (A→B→A) whose entry was retained for snapshots.
func (ix index) add(key string, id RowID) {
	ids := ix[key]
	if !slices.Contains(ids, id) {
		ix[key] = append(ids, id)
	}
}

// remove takes id off key's list; a key whose last id leaves is deleted.
func (ix index) remove(key string, id RowID) {
	ids := ix[key]
	j := slices.Index(ids, id)
	switch {
	case j < 0:
	case len(ids) == 1:
		delete(ix, key)
	default:
		ix[key] = slices.Delete(ids, j, j+1)
	}
}

// indexStore is one index on one shard.
type indexStore struct {
	name string // "" for the primary key
	cols []int
	// unique marks a unique secondary index, checked across every shard
	// (uniqueViolated). The primary key's uniqueness is checked on the
	// key's home shard (pkTaken).
	unique bool
	keys   index
}

// indexRow lists id under row's key in every index of the shard. pk is
// the row's primary key, already built to route it; "" builds it here.
func (sh *tableShard) indexRow(row Row, id RowID, pk string) {
	for i, ix := range sh.indexes {
		k := pk
		if i > 0 || k == "" {
			k = indexKeyFor(row, ix.cols)
		}
		ix.keys.add(k, id)
	}
}

// unindexRow takes id off row's key in every index of the shard.
func (sh *tableShard) unindexRow(row Row, id RowID) {
	for _, ix := range sh.indexes {
		ix.keys.remove(indexKeyFor(row, ix.cols), id)
	}
}
