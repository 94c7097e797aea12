package storage

// Multi-version concurrency control: commit timestamps, write
// transactions, read snapshots, and version garbage collection.
//
// The store keeps a single logical clock. Every write transaction draws a
// commit timestamp T from it at Begin and stamps each version it installs
// with begin = T (and each version it supersedes with end = T). Readers
// never see T until the transaction commits, because visibility is
// governed by a separate watermark: `visible` advances only once every
// transaction at or below a timestamp has committed. A snapshot pins the
// watermark value at acquisition and reads exactly the versions whose
// [begin, end) window contains it — for minutes if need be, while writers
// keep committing around it. No reader ever blocks a writer and no writer
// ever blocks a reader; writers on different shards still run in parallel
// exactly as before, they only rendezvous briefly on the commit registry.
//
// Superseded versions are retained until no live snapshot (and no future
// one) can reach them, then reclaimed by GC — triggered when the last
// snapshot releases, when the retained backlog crosses a threshold at
// commit, or explicitly via Store.GC.

import (
	"math/bits"
	"slices"
	"sync"
)

// gcRetainedThreshold is the retained-version backlog at which a commit
// triggers a sweep even though snapshots may still be live (the sweep
// only reclaims what the oldest snapshot provably cannot see). Write-only
// workloads never supersede anything and therefore never pay for GC.
const gcRetainedThreshold = 4096

// Txn is a write transaction: the unit of atomicity for one statement.
// All versions installed through it share one commit timestamp and become
// visible to new snapshots together, at Commit. Its WAL records are
// appended as it writes, without waiting for a sync; Commit makes them
// durable — one sync per shard the transaction touched — before it makes
// them visible, so a visible write is a durable one. Transactions do not
// roll back — the engine's statement semantics are "applied rows stay
// applied" — so Commit must always be called, error or not; it is
// idempotent. A Txn is single-goroutine; distinct Txns may run
// concurrently.
type Txn struct {
	s  *Store
	ts int64
	// logged marks the shards whose WAL holds records of this transaction
	// not yet synced by its Commit (bit i = shard i).
	logged uint64
}

// Txn.logged has a bit per shard: this fails to compile if MaxShards > 64.
const _ = uint64(1) << (MaxShards - 1)

// Begin opens a write transaction at the next commit timestamp.
func (s *Store) Begin() *Txn {
	s.commitMu.Lock()
	ts := s.clock.Add(1)
	s.activeTxns[ts] = struct{}{}
	s.commitMu.Unlock()
	return &Txn{s: s, ts: ts}
}

// TS is the transaction's commit timestamp.
func (t *Txn) TS() int64 { return t.ts }

// Commit publishes the transaction. It first makes every touched shard's
// WAL durable up to the transaction's last record (one group-commit sync
// per shard: a 500-row INSERT over two shards waits for two fsyncs, not
// 500), then advances the visibility watermark to the highest timestamp
// below every still-active transaction, so readers acquire snapshots that
// include this transaction's writes (once nothing earlier remains in
// flight). A sync failure is returned — the statement must not report
// success — but the writes, already applied in memory, are published all
// the same: nothing rolls back, and the failed log is poisoned, so no
// later write on it is acknowledged either. Idempotent: a second call
// has nothing left to sync and finds the watermark already advanced.
func (t *Txn) Commit() error {
	s := t.s
	var err error
	for m := t.logged; m != 0; m &= m - 1 {
		if serr := s.logs[bits.TrailingZeros64(m)].sync(); err == nil {
			err = serr
		}
	}
	t.logged = 0
	s.commitMu.Lock()
	delete(s.activeTxns, t.ts)
	vis := s.clock.Load()
	for ts := range s.activeTxns {
		if ts-1 < vis {
			vis = ts - 1
		}
	}
	if vis > s.visible.Load() {
		s.visible.Store(vis)
	}
	s.commitMu.Unlock()
	if s.retained.Load() >= gcRetainedThreshold {
		s.GC()
	}
	return err
}

// Snapshot pins a read timestamp: every read through it sees exactly the
// rows committed at or before TS, for as long as it is held. Release when
// the statement finishes so version GC can reclaim superseded rows.
type Snapshot struct {
	s        *Store
	ts       int64
	released bool
}

// AcquireSnapshot pins the current visibility watermark for reading.
// The registration is atomic with respect to GC's horizon computation, so
// a version visible to this snapshot can never be reclaimed under it.
func (s *Store) AcquireSnapshot() *Snapshot {
	s.snapMu.Lock()
	ts := s.visible.Load()
	s.snapRefs[ts]++
	s.snapMu.Unlock()
	return &Snapshot{s: s, ts: ts}
}

// TS is the snapshot's read timestamp.
func (sn *Snapshot) TS() int64 { return sn.ts }

// Release unpins the snapshot (idempotent, single-goroutine). Releasing
// the last live snapshot sweeps any versions that were retained for it.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	s := sn.s
	s.snapMu.Lock()
	if s.snapRefs[sn.ts]--; s.snapRefs[sn.ts] <= 0 {
		delete(s.snapRefs, sn.ts)
	}
	idle := len(s.snapRefs) == 0
	s.snapMu.Unlock()
	if idle && s.retained.Load() > 0 {
		s.GC()
	}
}

// VisibleTS reports the current visibility watermark — the timestamp a
// snapshot acquired right now would read at.
func (s *Store) VisibleTS() int64 { return s.visible.Load() }

// gcHorizon is the reclamation bound: versions whose end timestamp is at
// or below it are invisible to every live snapshot and — because future
// snapshots read at or above today's watermark — to every future one.
func (s *Store) gcHorizon() int64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	horizon := s.visible.Load()
	for ts := range s.snapRefs {
		if ts < horizon {
			horizon = ts
		}
	}
	return horizon
}

// GC sweeps every table shard, pruning row versions no live or future
// snapshot can see and dropping the index entries that pointed only at
// them. Returns the number of versions reclaimed. Safe to call
// concurrently with readers and writers; each shard is swept under its
// own write lock.
func (s *Store) GC() int {
	horizon := s.gcHorizon()
	reclaimed := 0
	for _, ts := range s.tableMap() {
		n, _ := ts.gc(horizon)
		reclaimed += n
	}
	if reclaimed > 0 {
		s.retained.Add(int64(-reclaimed))
		s.gcReclaimed.Add(int64(reclaimed))
	}
	s.gcRuns.Add(1)
	return reclaimed
}

// GCStats reports lifetime GC activity: sweep runs and superseded
// versions reclaimed.
func (s *Store) GCStats() (runs, reclaimed int64) {
	return s.gcRuns.Load(), s.gcReclaimed.Load()
}

// gc sweeps the table's shards, visiting only the chains that hold a
// superseded or deleted version (heap.stale), and reports the versions
// reclaimed and the chains visited.
func (ts *tableStore) gc(horizon int64) (reclaimed, visited int) {
	for _, sh := range ts.shards {
		sh.mu.Lock()
		r, v := sh.heap.gc(horizon, func(id RowID, drop, keep []rowVersion) {
			for _, ix := range sh.indexes {
				dropIndexKeys(ix, drop, keep, id)
			}
		})
		sh.mu.Unlock()
		reclaimed, visited = reclaimed+r, visited+v
	}
	return reclaimed, visited
}

// dropIndexKeys removes the (key, id) entries that belonged only to
// dropped versions: a key still referenced by a kept version stays.
func dropIndexKeys(ix *indexStore, drop, keep []rowVersion, id RowID) {
	for _, v := range drop {
		k := indexKeyFor(v.row, ix.cols)
		if !slices.ContainsFunc(keep, func(kv rowVersion) bool { return rowHasKey(kv.row, ix.cols, k) }) {
			ix.keys.remove(k, id)
		}
	}
}

// VersionStats reports the store-wide number of live rows and of
// superseded versions still retained for snapshots (test/observability).
func (s *Store) VersionStats() (live, retained int) {
	for _, ts := range s.tableMap() {
		for _, sh := range ts.shards {
			sh.mu.RLock()
			live += sh.heap.count()
			retained += sh.heap.retainedCount()
			sh.mu.RUnlock()
		}
	}
	return live, retained
}

// mvccState is the clock/registry block embedded in Store.
type mvccState struct {
	// commitMu guards the active-transaction registry and watermark
	// advancement; held only for map ops at Begin/Commit, never during
	// row writes or WAL I/O (Commit syncs before it takes the lock).
	commitMu   sync.Mutex
	activeTxns map[int64]struct{}
	// snapMu guards the snapshot refcounts; horizon computation and
	// snapshot registration serialize on it so GC can never reclaim a
	// version a just-acquired snapshot still needs.
	snapMu   sync.Mutex
	snapRefs map[int64]int
}

func newMVCCState() mvccState {
	return mvccState{
		activeTxns: make(map[int64]struct{}),
		snapRefs:   make(map[int64]int),
	}
}
