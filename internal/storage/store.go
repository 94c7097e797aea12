package storage

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"crowddb/internal/sqltypes"
)

// Shard-count bounds: MaxShards caps explicit configuration, and
// defaultShardCap caps the automatic runtime.NumCPU() default so small
// tables on big machines do not fragment into dozens of near-empty shards.
const (
	MaxShards       = 64
	defaultShardCap = 8
)

// DefaultShards is the automatic shard count: one per CPU, capped.
func DefaultShards() int {
	n := runtime.NumCPU()
	if n > defaultShardCap {
		n = defaultShardCap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Options tunes a store at open time.
type Options struct {
	// Shards is the hash-partition fan-out for every table. 0 adopts the
	// on-disk count (or DefaultShards for a fresh store); an explicit
	// positive count that disagrees with the on-disk layout is an error
	// (the pinned contract: shard counts never change silently — see
	// ErrShardMismatch).
	Shards int
	// Sync is the WAL durability mode (default SyncGroup).
	Sync SyncMode
}

// ErrShardMismatch is returned when a store directory was created with a
// different shard count than the one explicitly requested. Rows are
// placed by hash(PK) % shards, so reopening with a different fan-out
// would make every lookup miss; re-shard by dump/re-import, or pass
// Shards: 0 to adopt the persisted count.
type ErrShardMismatch struct {
	Dir       string
	OnDisk    int
	Requested int
}

func (e *ErrShardMismatch) Error() string {
	return fmt.Sprintf("storage: %s was created with %d shards, reopen requested %d (pass 0 to adopt the on-disk count)",
		e.Dir, e.OnDisk, e.Requested)
}

// ErrDataVersion is returned when a data directory's shards.json names a
// version other than the one this tree writes, or none. A row's home shard
// is a hash of its key's bytes in the directory's version, so opening a
// directory of another version would route its keys wrong.
type ErrDataVersion struct {
	Dir    string
	OnDisk int // 0: shards.json has no version
	Writes int
}

func (e *ErrDataVersion) Error() string {
	return fmt.Sprintf("storage: %s is data directory version %d (0: none recorded); this build reads and writes only version %d",
		e.Dir, e.OnDisk, e.Writes)
}

// tableShard is one hash partition of a table: its own heap and its own
// map for each index, all behind one lock. Writers on different shards
// never contend.
//
// Under MVCC an index lists a row once under every DISTINCT key any
// retained version of it carries: updates and deletes leave the old-key
// entries in place (snapshot readers still probe them) and GC removes an
// entry only once every version carrying its key is reclaimed. Probes
// therefore re-verify each hit against the row version visible at their
// snapshot.
type tableShard struct {
	mu   sync.RWMutex
	heap *heap
	// indexes: entry 0 is the primary key when the table has one, then
	// the secondary indexes in creation order — the same list, by
	// position, on every shard of the table.
	indexes []*indexStore
}

type tableStore struct {
	name   string
	pkCols []int // ordinals of primary key columns; empty = no PK
	// nextID allocates globally unique, monotonically increasing row IDs
	// across all shards, so ascending-ID merges reproduce insertion order
	// exactly as the unsharded engine did.
	nextID    atomic.Int64
	shards    []*tableShard
	hasUnique atomic.Bool // any unique secondary index (insert slow path)
}

func newTableStore(name string, pkCols []int, nshards int) *tableStore {
	ts := &tableStore{name: name, pkCols: append([]int(nil), pkCols...)}
	for i := 0; i < nshards; i++ {
		sh := &tableShard{heap: newHeap()}
		if len(pkCols) > 0 {
			sh.indexes = []*indexStore{{cols: ts.pkCols, keys: index{}}}
		}
		ts.shards = append(ts.shards, sh)
	}
	return ts
}

// secondary returns the position of the named secondary index in every
// shard's list, or -1. Caller holds a lock on shard 0.
func (ts *tableStore) secondary(name string) int {
	return slices.IndexFunc(ts.shards[0].indexes, func(ix *indexStore) bool {
		return ix.name != "" && strings.EqualFold(ix.name, name)
	})
}

// shardOfKey routes a primary key, sqltypes.AppendRowKey's bytes over the
// table's key columns, to its home shard: FNV-1a, as hash/fnv computes it,
// over the key's bytes in the form shards.json version 1 routes by.
func (ts *tableStore) shardOfKey(key string) int {
	if len(ts.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	if len(ts.pkCols) == 1 {
		h = hashV1Part(h, key)
	} else {
		h = hashV1Parts(h, key, len(ts.pkCols))
	}
	return int(h % uint32(len(ts.shards)))
}

// hashV1Parts feeds FNV-1a state h the version-1 bytes of a key of n > 1
// parts, first part first.
func hashV1Parts(h uint32, key string, n int) uint32 {
	if n == 0 {
		return h
	}
	head, last := sqltypes.CutLastKeyPart(key)
	return hashV1Part(hashV1Parts(h, head, n-1), last)
}

// hashV1Part feeds FNV-1a state h the version-1 bytes of one key part, as
// it walks the part's AppendKey bytes: each 0x00 is followed by 0xFF, and
// the part ends with 0x00 0x00. It is the one place that knows that form;
// nothing builds it.
func hashV1Part(h uint32, part string) uint32 {
	const prime = 16777619
	for i := 0; i < len(part); i++ {
		h = (h ^ uint32(part[i])) * prime
		if part[i] == 0x00 {
			h = (h ^ 0xFF) * prime
		}
	}
	return h * prime * prime
}

// findShard locates the shard currently holding the LIVE version of id
// (read-locking each candidate in turn) — the write-path probe. PK-routed
// rows can live on any shard, so the probe walks them; ID-routed rows
// resolve directly.
func (ts *tableStore) findShard(id RowID) (int, Row, bool) {
	if len(ts.pkCols) == 0 {
		i := int(id) % len(ts.shards)
		sh := ts.shards[i]
		sh.mu.RLock()
		r, ok := sh.heap.get(id)
		sh.mu.RUnlock()
		if ok {
			return i, r, true
		}
		return 0, nil, false
	}
	for i, sh := range ts.shards {
		sh.mu.RLock()
		r, ok := sh.heap.get(id)
		sh.mu.RUnlock()
		if ok {
			return i, r, true
		}
	}
	return 0, nil, false
}

// heldShards are the shards of one table a writer holds write-locked:
// lo and hi (one shard when equal), or every shard when all is set.
type heldShards struct {
	ts     *tableStore
	lo, hi int
	all    bool
}

// lockShards write-locks shards a and b, one shard when they are equal, in
// ascending order (the global lock order: shard-major).
func (ts *tableStore) lockShards(a, b int) heldShards {
	if a > b {
		a, b = b, a
	}
	ts.shards[a].mu.Lock()
	if b != a {
		ts.shards[b].mu.Lock()
	}
	return heldShards{ts: ts, lo: a, hi: b}
}

// lockAllShards write-locks every shard in ascending order (the
// unique-secondary-index slow path: a unique secondary key can collide
// across shards).
func (ts *tableStore) lockAllShards() heldShards {
	for _, sh := range ts.shards {
		sh.mu.Lock()
	}
	return heldShards{ts: ts, hi: len(ts.shards) - 1, all: true}
}

// unlock releases the shards in descending order.
func (h heldShards) unlock() {
	if h.all {
		for i := h.hi; i > h.lo; i-- {
			h.ts.shards[i].mu.Unlock()
		}
	} else if h.hi != h.lo {
		h.ts.shards[h.hi].mu.Unlock()
	}
	h.ts.shards[h.lo].mu.Unlock()
}

// Store is the storage engine: every table hash-partitioned across N
// shards (per-shard heap + index maps + WAL file, each behind its own lock),
// with optional write-ahead logging for durability, and multi-version
// rows so snapshot readers never block writers (see mvcc.go). Row IDs are
// allocated from one per-table counter, so merging shards by ascending ID
// reconstructs global insertion order deterministically. All methods are
// safe for concurrent use; operations on different shards do not contend.
type Store struct {
	dir     string
	nshards int
	mode    SyncMode
	logs    []*appendLog // one WAL per shard; nil when memory-only

	// mu serializes DDL (table-map swaps) and checkpointing; row
	// operations never take it — they load the copy-on-write table map
	// and then synchronize per shard.
	mu     sync.Mutex
	tables atomic.Value // map[string]*tableStore

	// clock issues commit timestamps (stamped into WAL records as the
	// LSN); visible is the watermark snapshots read at; retained counts
	// superseded versions awaiting GC.
	clock    atomic.Int64
	visible  atomic.Int64
	retained atomic.Int64
	// GC observability: sweep runs and versions reclaimed, lifetime.
	gcRuns      atomic.Int64
	gcReclaimed atomic.Int64
	mvccState
}

// NewStoreOptions creates a store. With dir == "" the store is
// memory-only; with a directory, every transaction's writes are logged to
// per-shard WALs inside it. Call Recover after re-creating the schema to
// replay the logs. The zero Options pick the automatic shard count and the
// group-commit WAL.
func NewStoreOptions(dir string, opts Options) (*Store, error) {
	mode := opts.Sync
	if mode == "" {
		mode = SyncGroup
	}
	if err := mode.valid(); err != nil {
		return nil, err
	}
	nshards := opts.Shards
	if nshards > MaxShards {
		return nil, fmt.Errorf("storage: %d shards exceeds the maximum %d", nshards, MaxShards)
	}
	s := &Store{dir: dir, mode: mode, mvccState: newMVCCState()}
	s.tables.Store(map[string]*tableStore{})
	if dir == "" {
		if nshards <= 0 {
			nshards = DefaultShards()
		}
		s.nshards = nshards
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	onDisk, version, err := readShardMeta(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case onDisk > 0 && version != dataVersion:
		return nil, &ErrDataVersion{Dir: dir, OnDisk: version, Writes: dataVersion}
	case onDisk > 0 && nshards > 0 && onDisk != nshards:
		return nil, &ErrShardMismatch{Dir: dir, OnDisk: onDisk, Requested: nshards}
	case onDisk > 0:
		nshards = onDisk
	case nshards <= 0:
		nshards = DefaultShards()
	}
	s.nshards = nshards
	if onDisk == 0 {
		if err := writeShardMeta(dir, nshards); err != nil {
			return nil, err
		}
	}
	created := false
	for i := 0; i < nshards; i++ {
		l, made, err := openAppendLog(walShardPath(dir, i), mode, "storage.wal.append")
		if err != nil {
			s.Close()
			return nil, err
		}
		s.logs, created = append(s.logs, l), created || made
	}
	if created { // one directory fsync for every WAL file made above
		if err := syncDir(dir); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// NumShards reports the hash-partition fan-out.
func (s *Store) NumShards() int { return s.nshards }

// Close flushes and releases every per-shard WAL handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.logs {
		if err := l.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Store) tableMap() map[string]*tableStore {
	return s.tables.Load().(map[string]*tableStore)
}

// table finds a table by name, case-insensitively. Every read and write
// comes through here with the catalog's spelling of the name, so an ASCII
// name is folded on the stack, not into a new string.
func (s *Store) table(name string) (*tableStore, error) {
	var buf [64]byte
	key := buf[:0]
	for i := 0; i < len(name) && i < len(buf) && name[i] < utf8.RuneSelf; i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		key = append(key, c)
	}
	t, ok := s.tableMap()[string(key)]
	if len(key) < len(name) { // long, or not ASCII
		t, ok = s.tableMap()[strings.ToLower(name)]
	}
	if !ok {
		return nil, fmt.Errorf("storage: table %s not found", name)
	}
	return t, nil
}

// CreateTable allocates sharded storage for a table. pkCols are the
// ordinals of the primary-key columns (may be empty).
func (s *Store) CreateTable(name string, pkCols []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	old := s.tableMap()
	if _, exists := old[key]; exists {
		return fmt.Errorf("storage: table %s already exists", name)
	}
	next := make(map[string]*tableStore, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = newTableStore(name, pkCols, s.nshards)
	s.tables.Store(next)
	return nil
}

// DropTable releases a table's storage.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	old := s.tableMap()
	if _, ok := old[key]; !ok {
		return fmt.Errorf("storage: table %s not found", name)
	}
	next := make(map[string]*tableStore, len(old))
	for k, v := range old {
		if k != key {
			next[k] = v
		}
	}
	s.tables.Store(next)
	return nil
}

// CreateIndex builds a secondary index over the given column ordinals
// (one map per shard), indexing existing rows immediately. Every
// retained version's key is indexed — not just the live one — so
// snapshot readers that planned through the new index still see the rows
// their snapshot pins; uniqueness is judged on live rows only.
func (s *Store) CreateIndex(table, name string, cols []int, unique bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.table(table)
	if err != nil {
		return err
	}
	held := ts.lockAllShards()
	defer held.unlock()
	if ts.secondary(name) >= 0 {
		return fmt.Errorf("storage: index %s already exists on %s", name, table)
	}
	// Uniqueness is a cross-shard property for secondary keys: collect all
	// live keys first, then install the maps only if no duplicate exists.
	cols = slices.Clone(cols)
	seen := make(map[string]bool)
	built := make([]index, len(ts.shards))
	for i, sh := range ts.shards {
		built[i] = index{}
		for _, c := range sh.heap.chains {
			for _, v := range c.versions {
				k := indexKeyFor(v.row, cols)
				if unique && v.end == tsInfinity {
					if seen[k] {
						return fmt.Errorf("storage: unique index %s violated by existing data", name)
					}
					seen[k] = true
				}
				built[i].add(k, c.id)
			}
		}
	}
	for i, sh := range ts.shards {
		sh.indexes = append(sh.indexes, &indexStore{name: name, cols: cols, unique: unique, keys: built[i]})
	}
	if unique {
		ts.hasUnique.Store(true)
	}
	return nil
}

// appendRowKey appends the index key of row's cols to dst.
func appendRowKey(dst []byte, row Row, cols []int) []byte {
	for _, c := range cols {
		dst = sqltypes.AppendKeyPart(dst, row[c], len(cols))
	}
	return dst
}

func indexKeyFor(row Row, cols []int) string {
	var buf [64]byte
	return string(appendRowKey(buf[:0], row, cols))
}

// rowHasKey reports whether row's cols encode to key, without building
// the key string.
func rowHasKey(row Row, cols []int, key string) bool {
	var buf [64]byte
	return string(appendRowKey(buf[:0], row, cols)) == key
}

func (ts *tableStore) pkKey(row Row) string { return indexKeyFor(row, ts.pkCols) }

// DuplicateKeyError reports a primary-key or unique-index violation.
type DuplicateKeyError struct {
	Table string
	Key   string
}

func (e *DuplicateKeyError) Error() string {
	return fmt.Sprintf("storage: duplicate key %q in table %s", e.Key, e.Table)
}

func pkString(row Row, cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = row[c].String()
	}
	return strings.Join(parts, ",")
}

// liveKeyMatch reports whether id's LIVE version on this shard currently
// carries the given key — index entries may be stale (retained for old
// snapshots), so every write-path hit must be re-verified. Caller holds
// the shard lock.
func (sh *tableShard) liveKeyMatch(id RowID, cols []int, key string) bool {
	r, ok := sh.heap.get(id)
	return ok && rowHasKey(r, cols, key)
}

// uniqueViolated reports whether a unique secondary index already holds
// the row's key LIVE on some shard (other than owner id, for updates).
// Caller holds every shard lock.
func (ts *tableStore) uniqueViolated(row Row, self RowID) (string, bool) {
	for j, ix := range ts.shards[0].indexes {
		if !ix.unique {
			continue
		}
		k := indexKeyFor(row, ix.cols)
		for _, sh := range ts.shards {
			for _, rid := range sh.indexes[j].keys[k] {
				if rid != self && sh.liveKeyMatch(rid, ix.cols, k) {
					return ix.name, true
				}
			}
		}
	}
	return "", false
}

// pkTaken reports whether any LIVE row on the shard holds the primary
// key. Stale index entries (rows that moved or changed key, retained for
// snapshots) do not count. Caller holds the shard lock.
func (ts *tableStore) pkTaken(sh *tableShard, key string, self RowID) bool {
	for _, rid := range sh.indexes[0].keys[key] {
		if rid != self && sh.liveKeyMatch(rid, ts.pkCols, key) {
			return true
		}
	}
	return false
}

// Insert adds a row under the transaction's timestamp, enforcing
// primary-key uniqueness, and returns its ID. The row becomes the
// store's: the caller hands over a row of its own and does not write it
// again. The fast path locks only the row's home shard; tables with
// unique secondary indexes lock every shard (the key may collide
// anywhere).
func (t *Txn) Insert(table string, row Row) (RowID, error) {
	s := t.s
	ts, err := s.table(table)
	if err != nil {
		return 0, err
	}
	pkRouted := len(ts.pkCols) > 0
	var held heldShards
	var home int
	var id RowID
	var pk string
	if pkRouted {
		pk = ts.pkKey(row)
	}
	for {
		lockAll := ts.hasUnique.Load()
		if pkRouted {
			home = ts.shardOfKey(pk)
		} else {
			// ID-routed: the ID decides the shard, so allocate first.
			id = RowID(ts.nextID.Add(1))
			home = int(id) % len(ts.shards)
		}
		if lockAll {
			held = ts.lockAllShards()
		} else {
			held = ts.lockShards(home, home)
		}
		// A concurrent CREATE UNIQUE INDEX (which holds every shard lock
		// to install) may have landed between the flag read and our lock:
		// re-check and widen the lock set if so. The flag is monotonic.
		if !lockAll && ts.hasUnique.Load() {
			held.unlock()
			continue
		}
		break
	}
	if pkRouted && ts.pkTaken(ts.shards[home], pk, 0) {
		held.unlock()
		return 0, &DuplicateKeyError{Table: table, Key: pkString(row, ts.pkCols)}
	}
	if ts.hasUnique.Load() {
		if idx, bad := ts.uniqueViolated(row, 0); bad {
			held.unlock()
			return 0, &DuplicateKeyError{Table: table, Key: idx}
		}
	}
	if pkRouted {
		// Allocate after the duplicate checks so failed inserts burn no
		// IDs and single-threaded replays keep the unsharded sequence.
		id = RowID(ts.nextID.Add(1))
	}
	return t.finishInsert(ts, home, id, row, pk, held)
}

// finishInsert logs and applies an insert into shard `home` with the
// caller holding (at least) that shard's lock, which it releases. pk is
// the row's primary key (unused on tables without one). The record is
// made durable at Commit, with every other record of the transaction.
func (t *Txn) finishInsert(ts *tableStore, home int, id RowID, row Row, pk string, held heldShards) (RowID, error) {
	s := t.s
	if s.logs != nil {
		if _, err := s.logs[home].appendWAL(walRecord{Op: "insert", Table: ts.name, Row: id, LSN: t.ts}, row); err != nil {
			held.unlock()
			return 0, err
		}
		t.logged |= 1 << home
	}
	sh := ts.shards[home]
	sh.heap.insertVersion(id, row, t.ts)
	sh.indexRow(row, id, pk)
	held.unlock()
	return id, nil
}

// Update installs a new version of the row at id under the transaction's
// timestamp, maintaining all indexes. The new version is change applied to
// the row's live version, so a write committed between the caller's
// snapshot read and this update is built on, never undone. change runs
// under the shard lock, so it must not call into the store; it may run
// more than once (a row moving shards is re-read under the wider lock), so
// it must have no side effects; and it must not modify live. The row it
// returns becomes the store's, and a nil row writes nothing. Update
// returns the live version it read and the version it installed (nil when
// it wrote nothing).
//
// The superseded version is retained for live snapshots: old index
// entries stay in place until GC. A primary-key change can re-home the row
// onto a different shard; both shards are locked in ascending order and
// the move is logged as a delete on the old shard's WAL plus an upsert on
// the new one's.
func (t *Txn) Update(table string, id RowID, change func(live Row) (Row, error)) (live, row Row, err error) {
	s := t.s
	ts, err := s.table(table)
	if err != nil {
		return nil, nil, err
	}
	target := -1 // a shard the row moves to, locked from the next pass on
	for {
		oldShard, _, ok := ts.findShard(id)
		if !ok {
			return nil, nil, fmt.Errorf("storage: row %d not found in %s", id, table)
		}
		lockAll := ts.hasUnique.Load()
		var held heldShards
		switch {
		case lockAll:
			held = ts.lockAllShards()
		case target >= 0:
			held = ts.lockShards(oldShard, target)
		default:
			held = ts.lockShards(oldShard, oldShard)
		}
		// Re-check after locking: a concurrent CREATE UNIQUE INDEX may
		// have landed between the flag read and our lock acquisition.
		if !lockAll && ts.hasUnique.Load() {
			held.unlock()
			continue
		}
		src := ts.shards[oldShard]
		if live, ok = src.heap.get(id); !ok {
			held.unlock() // the row moved or vanished between probe and lock
			continue
		}
		if row, err = change(live); err != nil || row == nil {
			held.unlock()
			return live, nil, err
		}
		newShard := oldShard
		var pk string
		if len(ts.pkCols) > 0 {
			pk = ts.pkKey(row)
			newShard = ts.shardOfKey(pk)
		}
		if !lockAll && newShard != oldShard && newShard != target {
			held.unlock() // a move: start over holding both shards' locks
			target = newShard
			continue
		}
		if pk != "" && !rowHasKey(live, ts.pkCols, pk) && ts.pkTaken(ts.shards[newShard], pk, id) {
			held.unlock()
			return nil, nil, &DuplicateKeyError{Table: table, Key: pkString(row, ts.pkCols)}
		}
		if ts.hasUnique.Load() {
			if idx, bad := ts.uniqueViolated(row, id); bad {
				held.unlock()
				return nil, nil, &DuplicateKeyError{Table: table, Key: idx}
			}
		}
		if s.logs != nil {
			// Cross-shard move: the new shard's upsert is durable BEFORE
			// the old shard's delete is even appended — any writer's
			// group commit on the old shard syncs everything buffered
			// there, so a delete appended first could reach the disk
			// alone. A crash between the two can then leave both copies
			// live — never zero — and recovery keeps the higher-LSN copy
			// (reconcileMoves). Moves are rare: both shards stay locked
			// across this one sync.
			seq, err := s.logs[newShard].appendWAL(walRecord{Op: "update", Table: ts.name, Row: id, LSN: t.ts}, row)
			if err == nil && newShard != oldShard {
				if err = s.logs[newShard].commit(seq); err == nil {
					_, err = s.logs[oldShard].appendWAL(walRecord{Op: "delete", Table: ts.name, Row: id, LSN: t.ts}, nil)
				}
			}
			if err != nil {
				held.unlock()
				return nil, nil, err
			}
			t.logged |= 1<<newShard | 1<<oldShard
		}
		dst := ts.shards[newShard]
		// Supersede the old version in place (snapshots keep reading it;
		// its index entries stay until GC) and install the new one.
		src.heap.supersede(id, t.ts)
		s.retained.Add(1)
		dst.heap.insertVersion(id, row, t.ts)
		dst.indexRow(row, id, pk)
		held.unlock()
		return live, row, nil
	}
}

// Delete ends the row's live version at the transaction's timestamp and
// returns that version. The final version (and its index entries) is
// retained for live snapshots until GC reclaims it.
func (t *Txn) Delete(table string, id RowID) (Row, error) {
	s := t.s
	ts, err := s.table(table)
	if err != nil {
		return nil, err
	}
	for {
		shard, _, ok := ts.findShard(id)
		if !ok {
			return nil, fmt.Errorf("storage: row %d not found in %s", id, table)
		}
		held := ts.lockShards(shard, shard)
		sh := ts.shards[shard]
		live, ok := sh.heap.get(id)
		if !ok {
			held.unlock()
			continue
		}
		if s.logs != nil {
			if _, err = s.logs[shard].appendWAL(walRecord{Op: "delete", Table: ts.name, Row: id, LSN: t.ts}, nil); err != nil {
				held.unlock()
				return nil, err
			}
			t.logged |= 1 << shard
		}
		sh.heap.supersede(id, t.ts)
		s.retained.Add(1)
		held.unlock()
		return live, nil
	}
}

// GetAt returns the row version at id visible to a snapshot at ts
// (probing shards for PK-routed tables — a moved row's versions live on
// different shards, but at most one is visible at any timestamp).
func (s *Store) GetAt(table string, id RowID, ts int64) (Row, bool) {
	t, err := s.table(table)
	if err != nil {
		return nil, false
	}
	shards := t.shards
	if len(t.pkCols) == 0 {
		i := int(id) % len(shards)
		shards = shards[i : i+1]
	}
	for _, sh := range shards {
		sh.mu.RLock()
		r, ok := sh.heap.getAt(id, ts)
		sh.mu.RUnlock()
		if ok {
			return r, true
		}
	}
	return nil, false
}

// ShardScan is a resumable walk over one shard of a table: the rows
// visible at one timestamp, in ascending row id. Every read of a table's
// rows in bulk goes through it. The shard's read lock is held only while
// Next fills a chunk, so a slow consumer never holds a writer up; the walk
// resumes by row id, which stays exact across the writes and GC sweeps in
// between as long as the caller keeps the timestamp pinned (a Snapshot).
// A ShardScan is single-goroutine; distinct ones run concurrently.
type ShardScan struct {
	sh   *tableShard
	at   int64
	from RowID
}

// ScanShardsAt opens one cursor per shard of the table at ts. Merging the
// cursors by ascending row id reproduces global insertion order.
func (s *Store) ScanShardsAt(table string, at int64) ([]ShardScan, error) {
	ts, err := s.table(table)
	if err != nil {
		return nil, err
	}
	scans := make([]ShardScan, len(ts.shards))
	for i, sh := range ts.shards {
		scans[i] = ShardScan{sh: sh, at: at}
	}
	return scans, nil
}

// Next appends the next (at most max) visible rows and their ids to the
// caller's slices and returns them; nothing appended means the shard is
// exhausted. Empty slices too small for the chunk are sized for it.
func (c *ShardScan) Next(ids []RowID, rows []Row, max int) ([]RowID, []Row) {
	c.sh.mu.RLock()
	defer c.sh.mu.RUnlock()
	if n := min(max, c.sh.heap.count()); len(ids) == 0 && (cap(ids) < n || cap(rows) < n) {
		ids, rows = make([]RowID, 0, n), make([]Row, 0, n)
	}
	ids, rows, c.from = c.sh.heap.scanAt(c.at, c.from, max, ids, rows)
	return ids, rows
}

// ScanRowsAt returns a table's rows in insertion order, as parallel ID
// and row slices, pinned to a snapshot timestamp: exactly the rows
// visible at ts, however long ago that watermark was pinned and however
// many writes have committed since (VisibleTS() reads the latest state).
// Each shard is walked under one lock acquisition, then the shards are
// merged by id.
func (s *Store) ScanRowsAt(table string, at int64) ([]RowID, []Row, error) {
	scans, err := s.ScanShardsAt(table, at)
	if err != nil {
		return nil, nil, err
	}
	ids := make([][]RowID, len(scans))
	rows := make([][]Row, len(scans))
	total := 0
	for i := range scans {
		ids[i], rows[i] = scans[i].Next(nil, nil, math.MaxInt)
		total += len(ids[i])
	}
	if len(scans) == 1 {
		return ids[0], rows[0], nil
	}
	return mergeRows(ids, rows, total)
}

func mergeRows(ids [][]RowID, rows [][]Row, total int) ([]RowID, []Row, error) {
	outIDs := make([]RowID, 0, total)
	outRows := make([]Row, 0, total)
	pos := make([]int, len(ids))
	for len(outIDs) < total {
		best, bestID := -1, RowID(0)
		for i := range ids {
			if pos[i] >= len(ids[i]) {
				continue
			}
			if best < 0 || ids[i][pos[i]] < bestID {
				best, bestID = i, ids[i][pos[i]]
			}
		}
		outIDs = append(outIDs, bestID)
		outRows = append(outRows, rows[best][pos[best]])
		pos[best]++
	}
	return outIDs, outRows, nil
}

// RowCount returns the number of live rows.
func (s *Store) RowCount(table string) (int, error) {
	ts, err := s.table(table)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sh := range ts.shards {
		sh.mu.RLock()
		n += sh.heap.count()
		sh.mu.RUnlock()
	}
	return n, nil
}

// LookupPKRowAt probes the primary key as a snapshot at ts sees it: the
// version visible at ts whose key matches, even if the row has since been
// updated, moved, or deleted (a single-shard probe: the key hashes to its
// home).
func (s *Store) LookupPKRowAt(table string, at int64, pk ...sqltypes.Value) (RowID, Row, bool) {
	ts, err := s.table(table)
	if err != nil || len(ts.pkCols) != len(pk) {
		return 0, nil, false
	}
	var buf [64]byte
	key := string(sqltypes.AppendRowKey(buf[:0], pk))
	sh := ts.shards[ts.shardOfKey(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	// Entries may be stale (retained for old snapshots): verify each hit
	// against the version visible at the read timestamp. Any version
	// carrying this key was routed here, so one shard suffices.
	for _, rid := range sh.indexes[0].keys[key] {
		if r, ok := sh.heap.getAt(rid, at); ok && rowHasKey(r, ts.pkCols, key) {
			return rid, r, true
		}
	}
	return 0, nil, false
}

// LookupIndexRowsAt probes a secondary index as a snapshot at ts sees it:
// the matching rows (with their IDs) in insertion order. The result is
// sized once, from the key's entries over all shards (an upper bound:
// stale entries count too), then filled under one lock acquisition per
// shard.
func (s *Store) LookupIndexRowsAt(table, index string, at int64, vals ...sqltypes.Value) ([]RowID, []Row, error) {
	ts, err := s.table(table)
	if err != nil {
		return nil, nil, err
	}
	ts.shards[0].mu.RLock()
	j := ts.secondary(index)
	found := j >= 0 && len(ts.shards[0].indexes[j].cols) == len(vals)
	ts.shards[0].mu.RUnlock()
	if !found {
		return nil, nil, fmt.Errorf("storage: no index %s over %d columns on %s", index, len(vals), table)
	}
	var buf [64]byte
	key := string(sqltypes.AppendRowKey(buf[:0], vals))
	n := 0
	for _, sh := range ts.shards {
		sh.mu.RLock()
		n += len(sh.indexes[j].keys[key])
		sh.mu.RUnlock()
	}
	if n == 0 {
		return nil, nil, nil
	}
	ids, rows := make([]RowID, 0, n), make([]Row, 0, n)
	sorted := true
	for _, sh := range ts.shards {
		sh.mu.RLock()
		ix := sh.indexes[j]
		for _, rid := range ix.keys[key] {
			// Stale-entry filter: the version visible at the read
			// timestamp must actually carry this key.
			if r, ok := sh.heap.getAt(rid, at); ok && rowHasKey(r, ix.cols, key) {
				sorted = sorted && (len(ids) == 0 || ids[len(ids)-1] < rid)
				ids, rows = append(ids, rid), append(rows, r)
			}
		}
		sh.mu.RUnlock()
	}
	if !sorted {
		sortByID(ids, rows)
	}
	return ids, rows, nil
}

// sortByID sorts parallel id and row slices by ascending id, in place:
// a heap sort, which unlike sort.Sort boxes no receiver.
func sortByID(ids []RowID, rows []Row) {
	swap := func(i, j int) {
		ids[i], ids[j] = ids[j], ids[i]
		rows[i], rows[j] = rows[j], rows[i]
	}
	down := func(i, n int) {
		for c := 2*i + 1; c < n; i, c = c, 2*c+1 {
			if c+1 < n && ids[c+1] > ids[c] {
				c++
			}
			if ids[i] >= ids[c] {
				return
			}
			swap(i, c)
		}
	}
	for i := len(ids)/2 - 1; i >= 0; i-- {
		down(i, len(ids))
	}
	for n := len(ids) - 1; n > 0; n-- {
		swap(0, n)
		down(0, n)
	}
}

// ---------------------------------------------------------------------------
// Durability: recovery and checkpointing

// Recover replays the per-shard snapshots (if any) and WALs into the
// already-created tables, one goroutine per shard. Call exactly once,
// after the schema has been re-created. Version history does not survive
// a restart: recovery rebuilds single-version chains (no snapshot can
// predate the process) and resumes the commit clock above every
// recovered timestamp.
func (s *Store) Recover() error {
	if s.dir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if legacy := walLegacyPath(s.dir); fileExists(legacy) {
		return fmt.Errorf("storage: %s uses the pre-sharding single-WAL layout; re-import the data (legacy %s present)", s.dir, legacy)
	}
	errs := make([]error, s.nshards)
	var wg sync.WaitGroup
	for i := 0; i < s.nshards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = s.recoverShard(shard)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.reconcileMoves()
	// Row-ID allocation and the commit clock resume above every
	// recovered value.
	var maxTS int64
	for _, ts := range s.tableMap() {
		var max RowID
		for _, sh := range ts.shards {
			if m := sh.heap.nextID - 1; m > max {
				max = m
			}
			sh.heap.eachLive(func(_ RowID, v *rowVersion) {
				if v.begin > maxTS {
					maxTS = v.begin
				}
			})
		}
		if int64(max) > ts.nextID.Load() {
			ts.nextID.Store(int64(max))
		}
	}
	if maxTS > s.clock.Load() {
		s.clock.Store(maxTS)
		s.visible.Store(maxTS)
	}
	return nil
}

// reconcileMoves resolves the one inconsistency a crashed cross-shard
// move can leave: the new shard's upsert was fsynced but the old shard's
// delete was not, so the same RowID is live on two shards. The upsert is
// always made durable first, so the higher-LSN copy is the newer one —
// keep it, purge the stale copy. (Zero copies is impossible: Txn.Update
// syncs the upsert before it appends the delete, so no sync of the old
// shard — the move's own commit or another writer's group commit — can
// make the delete durable alone.)
func (s *Store) reconcileMoves() {
	for _, ts := range s.tableMap() {
		if len(ts.pkCols) == 0 || len(ts.shards) == 1 {
			continue // ID-routed rows never move
		}
		type loc struct {
			shard int
			lsn   int64
		}
		seen := make(map[RowID]loc)
		for i, sh := range ts.shards {
			var victims []RowID // purged after the walk: purging reshapes the heap under it
			sh.heap.eachLive(func(id RowID, v *rowVersion) {
				prev, dup := seen[id]
				switch {
				case !dup:
					seen[id] = loc{i, v.begin}
				case v.begin < prev.lsn:
					victims = append(victims, id)
				default:
					seen[id] = loc{i, v.begin}
					ts.purgeRow(prev.shard, id)
				}
			})
			for _, id := range victims {
				ts.purgeRow(i, id)
			}
		}
	}
}

// purgeRow removes a stale row copy from one shard (recovery only; no
// locking needed and nothing is logged — the WAL already reflects the
// surviving copy).
func (ts *tableStore) purgeRow(shard int, id RowID) {
	sh := ts.shards[shard]
	row, ok := sh.heap.get(id)
	if !ok {
		return
	}
	sh.unindexRow(row, id)
	sh.heap.hardDelete(id)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// recoverShard loads one shard's snapshot then replays its WAL. Shards
// are disjoint, so recovery parallelizes with no locking beyond the
// shard's own mutex (taken for symmetry; no concurrent use yet). Replay
// applies destructively (replace/hard-delete, eager index maintenance):
// there is no history to retain at recovery time.
func (s *Store) recoverShard(shard int) error {
	if err := s.loadSnapshotShard(shard); err != nil {
		return err
	}
	return replayWAL(walShardPath(s.dir, shard), func(rec walRecord) error {
		ts, err := s.table(rec.Table)
		if err != nil {
			return err
		}
		sh := ts.shards[shard]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		switch rec.Op {
		case "insert", "update":
			row, err := DecodeRow(rec.Data)
			if err != nil {
				return err
			}
			if old, ok := sh.heap.get(rec.Row); ok {
				sh.unindexRow(old, rec.Row)
			}
			sh.heap.replaceAt(rec.Row, row, rec.LSN)
			sh.indexRow(row, rec.Row, "")
		case "delete":
			if old, ok := sh.heap.get(rec.Row); ok {
				sh.unindexRow(old, rec.Row)
				sh.heap.hardDelete(rec.Row)
			}
		default:
			return fmt.Errorf("storage: unknown wal op %q", rec.Op)
		}
		return nil
	})
}

// snapshotFile is the per-shard JSON checkpoint format: rows per table
// keyed by ID (the rows of exactly one shard of each table), each with
// the LSN of its last mutation (for post-crash move reconciliation).
// Only live rows are checkpointed: version history never survives a
// restart, so superseded versions have nothing to offer recovery.
type snapshotFile struct {
	Tables map[string]map[RowID]snapRow `json:"tables"`
}

type snapRow struct {
	Data json.RawMessage `json:"d"`
	LSN  int64           `json:"l,omitempty"`
}

func (s *Store) loadSnapshotShard(shard int) error {
	data, err := os.ReadFile(snapshotShardPath(s.dir, shard))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("storage: corrupt snapshot shard %d: %w", shard, err)
	}
	for tname, rows := range snap.Tables {
		ts, err := s.table(tname)
		if err != nil {
			return err
		}
		sh := ts.shards[shard]
		sh.mu.Lock()
		ids := make([]RowID, 0, len(rows))
		for id := range rows {
			ids = append(ids, id)
		}
		slices.Sort(ids) // ascending ids append to the heap
		for _, id := range ids {
			row, err := DecodeRow(rows[id].Data)
			if err != nil {
				sh.mu.Unlock()
				return err
			}
			sh.heap.replaceAt(id, row, rows[id].LSN)
			sh.indexRow(row, id, "")
		}
		sh.mu.Unlock()
	}
	return nil
}

// Checkpoint writes per-shard snapshots and truncates each shard's WAL,
// one goroutine per shard. On return, recovery needs only the snapshots
// plus any later WAL records. Each shard checkpoints independently: it
// locks that shard of every table (shard-major lock order), snapshots,
// then resets its WAL — writers on other shards are never blocked.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil
	}
	s.mu.Lock() // excludes DDL: the table set must not change mid-checkpoint
	defer s.mu.Unlock()
	tables := s.tableMap()
	names := make([]string, 0, len(tables))
	for k := range tables {
		names = append(names, k)
	}
	sort.Strings(names)
	errs := make([]error, s.nshards)
	var wg sync.WaitGroup
	for i := 0; i < s.nshards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = s.checkpointShard(shard, names, tables)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) checkpointShard(shard int, names []string, tables map[string]*tableStore) error {
	// Lock this shard of every table (ascending name: the shard-major
	// global order), so no writer can append to this shard's WAL between
	// the snapshot and the truncation.
	for _, n := range names {
		tables[n].shards[shard].mu.Lock()
	}
	defer func() {
		for i := len(names) - 1; i >= 0; i-- {
			tables[names[i]].shards[shard].mu.Unlock()
		}
	}()
	snap := snapshotFile{Tables: make(map[string]map[RowID]snapRow)}
	for _, n := range names {
		ts := tables[n]
		sh := ts.shards[shard]
		rows := make(map[RowID]snapRow, sh.heap.count())
		var encErr error
		sh.heap.eachLive(func(id RowID, v *rowVersion) {
			data, err := EncodeRow(v.row)
			if err != nil && encErr == nil {
				encErr = err
			}
			rows[id] = snapRow{Data: data, LSN: v.begin}
		})
		if encErr != nil {
			return encErr
		}
		snap.Tables[ts.name] = rows
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(snapshotShardPath(s.dir, shard), data); err != nil {
		return err
	}
	// Records up to here are durable in the snapshot: reset the WAL.
	return s.logs[shard].reset()
}
