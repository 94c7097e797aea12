package storage

import (
	"cmp"
	"math"
	"slices"
)

// tsInfinity marks a row version that has not been superseded or deleted:
// it is visible to every snapshot at or above its begin timestamp.
const tsInfinity = int64(math.MaxInt64)

// rowVersion is one entry of a row's version chain: the row image and the
// half-open commit-timestamp window [begin, end) during which it is the
// visible version. end == tsInfinity while the version is live. The image
// is immutable from the moment it is installed (see Row): readers share
// it, nobody writes to it.
type rowVersion struct {
	row   Row
	begin int64
	end   int64
}

// visibleAt reports whether the version is the one a snapshot at ts sees.
func (v *rowVersion) visibleAt(ts int64) bool {
	return v.begin <= ts && ts < v.end
}

// versionChain is a row's history, ordered by ascending begin timestamp.
// Writers only ever append (or stamp the last element's end); readers walk
// from the back, so the common case — reading the live version — is O(1).
type versionChain struct {
	id       RowID
	versions []rowVersion
}

func (c *versionChain) latest() *rowVersion {
	if len(c.versions) == 0 {
		return nil
	}
	return &c.versions[len(c.versions)-1]
}

// live returns the current (not superseded, not deleted) row image.
func (c *versionChain) live() (Row, bool) {
	if v := c.latest(); v != nil && v.end == tsInfinity {
		return v.row, true
	}
	return nil, false
}

// at returns the row image a snapshot at ts sees, if any.
func (c *versionChain) at(ts int64) (Row, bool) {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].visibleAt(ts) {
			return c.versions[i].row, true
		}
		if c.versions[i].end <= ts {
			// Versions are ordered by begin; everything earlier ended
			// even sooner, so nothing below can be visible.
			return nil, false
		}
	}
	return nil, false
}

// heap is the versioned row store for one shard of a table: rows addressed
// by stable RowIDs, each holding a chain of committed versions so snapshot
// reads see the image as of their pinned timestamp while writers install
// new versions. Deleted rows keep their chain (with a finite end stamp)
// until garbage collection proves no live snapshot can still see it.
//
// The chains are kept in ascending-id order. IDs come from one monotonic
// per-table counter and are never reused, so a new row almost always
// appends; the rare late arrival (a racing commit, a primary-key change
// re-homing an old row) is placed by binary search. A scan is therefore one
// walk of the slice — no sort, no second lookup — and a point read is a
// binary search. A chain GC has emptied stays behind as a tombstone until
// tombstones make up a quarter of the slice, then one pass drops them all.
type heap struct {
	chains []versionChain
	nextID RowID // high water mark, for recovery
	live   int   // chains whose latest version is live
	dead   int   // tombstones awaiting compaction
	// stale lists (once each) the chains holding a superseded or deleted
	// version: the only ones a GC sweep has to visit.
	stale []RowID
}

func newHeap() *heap { return &heap{nextID: 1} }

// find returns the position of id's chain, or where it would be inserted.
func (h *heap) find(id RowID) (int, bool) {
	if n := len(h.chains); n == 0 || id > h.chains[n-1].id {
		return n, false
	}
	return slices.BinarySearchFunc(h.chains, id, func(c versionChain, id RowID) int {
		return cmp.Compare(c.id, id)
	})
}

// chain returns id's chain (possibly a tombstone), or nil.
func (h *heap) chain(id RowID) *versionChain {
	if i, ok := h.find(id); ok {
		return &h.chains[i]
	}
	return nil
}

// ensure returns id's chain, creating it in id order if absent.
func (h *heap) ensure(id RowID) *versionChain {
	i, ok := h.find(id)
	if !ok {
		h.chains = slices.Insert(h.chains, i, versionChain{id: id})
	} else if len(h.chains[i].versions) == 0 {
		h.dead-- // a tombstone comes back to life
	}
	if id >= h.nextID {
		h.nextID = id + 1
	}
	return &h.chains[i]
}

// insertVersion appends a live version beginning at ts under a
// caller-allocated (or replayed) ID; r becomes the store's and must not be
// written again. The chain may already exist with a dead tail when a
// primary-key change moved the row away and back.
func (h *heap) insertVersion(id RowID, r Row, ts int64) {
	c := h.ensure(id)
	if _, wasLive := c.live(); !wasLive {
		h.live++
	}
	c.versions = append(c.versions, rowVersion{row: r, begin: ts, end: tsInfinity})
}

// get returns the live (latest committed) row image.
func (h *heap) get(id RowID) (Row, bool) {
	if c := h.chain(id); c != nil {
		return c.live()
	}
	return nil, false
}

// getAt returns the row image visible to a snapshot at ts.
func (h *heap) getAt(id RowID, ts int64) (Row, bool) {
	if c := h.chain(id); c != nil {
		return c.at(ts)
	}
	return nil, false
}

// scanAt appends the (id, image) pairs a snapshot at ts sees among the
// chains with id >= from, in ascending id order, stopping after max pairs.
// It returns the extended slices and the id to resume from.
func (h *heap) scanAt(ts int64, from RowID, max int, ids []RowID, rows []Row) ([]RowID, []Row, RowID) {
	i, _ := h.find(from)
	for ; i < len(h.chains) && max > 0; i++ {
		c := &h.chains[i]
		if r, ok := c.at(ts); ok {
			ids, rows = append(ids, c.id), append(rows, r)
			max--
		}
		from = c.id + 1
	}
	return ids, rows, from
}

// eachLive visits every live row in ascending id order with the version
// holding its image; v.begin is the LSN of the row's last mutation.
func (h *heap) eachLive(fn func(id RowID, v *rowVersion)) {
	for i := range h.chains {
		if v := h.chains[i].latest(); v != nil && v.end == tsInfinity {
			fn(h.chains[i].id, v)
		}
	}
}

// supersede stamps the live version's end with ts (an update installing a
// replacement, or a delete); the caller has checked that id is live. The
// superseded image stays readable to snapshots below ts until gc reclaims
// it.
func (h *heap) supersede(id RowID, ts int64) {
	c := h.chain(id)
	if len(c.versions) == 1 {
		h.stale = append(h.stale, id) // the chain's first history
	}
	c.latest().end = ts
	h.live--
}

// replaceAt wipes a row's history and installs a single version — the
// recovery path, where no snapshot can predate the process (so nothing is
// ever stale there).
func (h *heap) replaceAt(id RowID, r Row, ts int64) {
	c := h.ensure(id)
	if _, wasLive := c.live(); !wasLive {
		h.live++
	}
	c.versions = []rowVersion{{row: r, begin: ts, end: tsInfinity}}
}

// hardDelete removes a live row and its whole history (recovery replay
// only).
func (h *heap) hardDelete(id RowID) {
	h.live--
	h.bury(h.chain(id))
}

// bury turns an emptied chain into a tombstone and compacts the slice, in
// one pass, once tombstones make up a quarter of it (the pointer is
// invalid afterwards).
func (h *heap) bury(c *versionChain) {
	c.versions = nil
	h.dead++
	if h.dead >= 32 && h.dead*4 >= len(h.chains) {
		h.chains = slices.DeleteFunc(h.chains, func(c versionChain) bool { return len(c.versions) == 0 })
		h.dead = 0
	}
}

func (h *heap) count() int { return h.live }

// retainedCount reports superseded versions still held for old snapshots.
func (h *heap) retainedCount() int {
	n := 0
	for _, id := range h.stale {
		c := h.chain(id)
		n += len(c.versions)
		if _, ok := c.live(); ok {
			n--
		}
	}
	return n
}

// gc prunes, from the stale chains only, the versions whose end is at or
// below horizon — invisible to every live and future snapshot — handing
// each chain's dropped and kept versions to onDrop (index maintenance)
// first. Chains left with history stay on the worklist. Returns the
// versions reclaimed and the chains visited.
func (h *heap) gc(horizon int64, onDrop func(id RowID, drop, keep []rowVersion)) (reclaimed, visited int) {
	stale := h.stale[:0]
	for _, id := range h.stale {
		visited++
		// Look the chain up afresh each time: burying an earlier one may
		// have compacted the slice.
		c := h.chain(id)
		var drop, keep []rowVersion
		for _, v := range c.versions {
			if v.end <= horizon {
				drop = append(drop, v)
			} else {
				keep = append(keep, v)
			}
		}
		if len(drop) > 0 {
			onDrop(id, drop, keep)
			reclaimed += len(drop)
			c.versions = keep
		}
		switch {
		case len(keep) == 0:
			h.bury(c)
		case len(keep) > 1 || keep[0].end != tsInfinity:
			stale = append(stale, id)
		}
	}
	h.stale = stale
	return reclaimed, visited
}
