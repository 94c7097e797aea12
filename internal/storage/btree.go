// Package storage implements CrowdDB's storage engine: heap tables with
// stable row IDs, B-tree secondary indexes over order-preserving encoded
// keys, and a JSON-lines write-ahead log with snapshot checkpoints. It plays
// the role H2's storage layer plays in the paper's prototype (§3): crowd
// answers are always memorized here so a query never re-asks the crowd for
// data it already obtained.
//
// Each shard's heap keeps its version chains in ascending row-id order, so
// a scan is one walk of a slice (ShardScan) and needs neither a sort nor a
// second lookup. Row images are immutable once installed and are handed
// out uncopied: rows returned by any read are read-only — see Row.
package storage

import (
	"slices"
	"sort"
)

// btreeOrder is the maximum number of keys per node. 32 keeps nodes within
// a cache line or two of key headers while exercising real splits in tests.
const btreeOrder = 32

// RowID identifies a row in a heap table; IDs are never reused.
type RowID int64

// entry is one key in a B-tree node. A key maps to the set of row IDs whose
// indexed column(s) encode to it (secondary indexes allow duplicates).
type entry struct {
	key  string
	rids []RowID
}

type node struct {
	entries  []entry
	children []*node // nil for leaves; len = len(entries)+1 otherwise
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// BTree is an in-memory B-tree keyed by order-preserving string encodings
// (see sqltypes.AppendKey). Deletion removes row IDs from entries and leaves
// empty entries as tombstones; the tree compacts itself when tombstones
// outnumber live keys.
type BTree struct {
	root       *node
	liveKeys   int
	tombstones int
	size       int // total live rowids
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &node{}} }

// Len returns the number of live (key, rowid) pairs.
func (t *BTree) Len() int { return t.size }

// Insert adds rid under key.
func (t *BTree) Insert(key string, rid RowID) {
	if len(t.root.entries) >= btreeOrder {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	t.insertNonFull(t.root, key, rid)
}

func (t *BTree) insertNonFull(n *node, key string, rid RowID) {
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
	if i < len(n.entries) && n.entries[i].key == key {
		if len(n.entries[i].rids) == 0 {
			t.tombstones--
			t.liveKeys++
		}
		n.entries[i].rids = append(n.entries[i].rids, rid)
		t.size++
		return
	}
	if n.leaf() {
		n.entries = append(n.entries, entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = entry{key: key, rids: []RowID{rid}}
		t.liveKeys++
		t.size++
		return
	}
	if len(n.children[i].entries) >= btreeOrder {
		t.splitChild(n, i)
		if key > n.entries[i].key {
			i++
		} else if key == n.entries[i].key {
			if len(n.entries[i].rids) == 0 {
				t.tombstones--
				t.liveKeys++
			}
			n.entries[i].rids = append(n.entries[i].rids, rid)
			t.size++
			return
		}
	}
	t.insertNonFull(n.children[i], key, rid)
}

// splitChild splits the full child n.children[i] around its median key.
func (t *BTree) splitChild(n *node, i int) {
	child := n.children[i]
	mid := len(child.entries) / 2
	midEntry := child.entries[mid]

	right := &node{
		entries: append([]entry(nil), child.entries[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.entries = child.entries[:mid]

	n.entries = append(n.entries, entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = midEntry
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// find returns key's entry (possibly a tombstone), or nil.
func (t *BTree) find(key string) *entry {
	n := t.root
	for n != nil {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
		if i < len(n.entries) && n.entries[i].key == key {
			return &n.entries[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
	return nil
}

// Search returns a copy of the live row IDs stored under key.
func (t *BTree) Search(key string) []RowID {
	if e := t.find(key); e != nil && len(e.rids) > 0 {
		return slices.Clone(e.rids)
	}
	return nil
}

// Has reports whether rid is stored under key.
func (t *BTree) Has(key string, rid RowID) bool {
	e := t.find(key)
	return e != nil && slices.Contains(e.rids, rid)
}

// Delete removes rid from key's entry. It reports whether the pair existed.
func (t *BTree) Delete(key string, rid RowID) bool {
	e := t.find(key)
	if e == nil {
		return false
	}
	j := slices.Index(e.rids, rid)
	if j < 0 {
		return false
	}
	e.rids = slices.Delete(e.rids, j, j+1)
	t.size--
	if len(e.rids) == 0 {
		t.liveKeys--
		t.tombstones++
		t.maybeCompact()
	}
	return true
}

// maybeCompact rebuilds the tree when tombstones dominate, bounding memory
// without implementing full B-tree rebalancing.
func (t *BTree) maybeCompact() {
	if t.tombstones < 64 || t.tombstones <= t.liveKeys {
		return
	}
	fresh := NewBTree()
	t.Ascend(func(key string, rids []RowID) bool {
		for _, r := range rids {
			fresh.Insert(key, r)
		}
		return true
	})
	*t = *fresh
}

// Ascend visits every live key in ascending order until fn returns false.
func (t *BTree) Ascend(fn func(key string, rids []RowID) bool) {
	t.ascend(t.root, fn)
}

func (t *BTree) ascend(n *node, fn func(string, []RowID) bool) bool {
	if n == nil {
		return true
	}
	for i, e := range n.entries {
		if !n.leaf() {
			if !t.ascend(n.children[i], fn) {
				return false
			}
		}
		if len(e.rids) > 0 {
			if !fn(e.key, e.rids) {
				return false
			}
		}
	}
	if !n.leaf() {
		return t.ascend(n.children[len(n.entries)], fn)
	}
	return true
}

// AscendRange visits live keys in [lo, hi) in order. An empty hi means "to
// the end".
func (t *BTree) AscendRange(lo, hi string, fn func(key string, rids []RowID) bool) {
	t.Ascend(func(key string, rids []RowID) bool {
		if key < lo {
			return true
		}
		if hi != "" && key >= hi {
			return false
		}
		return fn(key, rids)
	})
}

// Height returns the tree height (1 for a single leaf); used by tests to
// confirm splits actually occur.
func (t *BTree) Height() int {
	h, n := 1, t.root
	for !n.leaf() {
		h++
		n = n.children[0]
	}
	return h
}
