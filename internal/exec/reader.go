package exec

import (
	"strings"
	"sync"

	"crowddb/internal/catalog"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// The table reader is the one way this package reads stored rows: SeqScan,
// CrowdProbe, CrowdJoin and (through a Matcher) the engine's UPDATE and
// DELETE all pull from it. It is a merge, by ascending row ID, over
// streams of (id, row) pairs — and ascending ID IS global insertion order
// (IDs are allocated from one per-table counter). Two sources feed it:
//
//   - the table's shard cursors, each pulled a chunk at a time on the query
//     goroutine, or
//   - when the scan's probe keys pin the primary key or a single-column
//     index to a literal, one chunk fetched up front through that key —
//     which is all an index scan is.
//
// Either way the filter runs after the merge on every row handed over (an
// index only narrows the candidates: its entries can be stale and the
// residual conjuncts still apply), Stats.RowsScanned counts exactly the
// rows examined, and a read that stops — a filled quota, a LIMIT above that
// no longer pulls — has examined exactly the rows up to the last one it
// returned.

// scanChunkRows is how many rows a shard cursor hands over per lock
// acquisition.
const scanChunkRows = 256

// shardStream is the merge's view of one source: the current chunk of
// (id, row) pairs in ascending id and, when a shard cursor feeds it, the
// cursor that refills it (nil: the chunk is all there is).
type shardStream struct {
	scan *storage.ShardScan
	ids  []storage.RowID
	rows []Row
	pos  int
	done bool
}

// streamSets recycles the cursor streams, and the chunks they read into,
// across statements. A set is cleared as it goes back, so the pool holds
// no row.
var streamSets = sync.Pool{New: func() any { return new([]shardStream) }}

type tableReader struct {
	node    *plan.Scan
	filter  *bound // node.Filter: unknown drops; nil keeps every row
	quota   int64  // node.StopAfter: rows to return before stopping, < 0 for all
	streams []shardStream
	keyed   [1]shardStream // backs streams when a key feeds the read
	pkID    [1]storage.RowID
	pkRow   [1]Row         // with pkID, backs the keyed chunk of a primary-key probe
	set     *[]shardStream // the pooled backing of streams when the cursors feed the read
	cursors bool           // fed by the shard cursors, not by a key
	out     int64
	scanned int64
	held    int64 // rows sitting in the streams' chunks
	peakBuf int64
}

// open positions the reader on its table at the statement's snapshot.
func (r *tableReader) open(ctx *Ctx) error {
	node := r.node
	*r = tableReader{node: node, filter: r.filter, quota: r.quota}
	ids, rows, keyed, err := fetchByKey(ctx, node, r.pkID[:0], r.pkRow[:0])
	if err != nil {
		return err
	}
	if keyed {
		r.keyed[0] = shardStream{ids: ids, rows: rows}
		r.streams = r.keyed[:]
		r.held = int64(len(rows))
		r.peakBuf = r.held
		return nil
	}
	scans, err := ctx.Store.ScanShardsAt(node.Table.Name, ctx.snapTS()) // one timestamp for every shard: a consistent cut
	if err != nil {
		return err
	}
	r.cursors = true
	r.set = streamSets.Get().(*[]shardStream)
	streams := *r.set
	if n := len(scans); cap(streams) < n {
		streams = append(streams[:cap(streams)], make([]shardStream, n-cap(streams))...)
	}
	r.streams = streams[:len(scans)]
	for i := range scans {
		r.streams[i].scan = &scans[i]
	}
	return nil
}

// merge returns the pair with the smallest id across the streams, a nil
// row once all are drained.
func (r *tableReader) merge() (storage.RowID, Row) {
	var best *shardStream
	for i := range r.streams {
		st := &r.streams[i]
		if !st.done && st.pos >= len(st.rows) {
			r.held -= int64(len(st.rows))
			st.pos, st.rows = 0, st.rows[:0]
			if st.scan != nil {
				st.ids, st.rows = st.scan.Next(st.ids[:0], st.rows, scanChunkRows)
			}
			st.done = len(st.rows) == 0
			if r.held += int64(len(st.rows)); r.held > r.peakBuf {
				r.peakBuf = r.held
			}
		}
		if !st.done && (best == nil || st.ids[st.pos] < best.ids[best.pos]) {
			best = st
		}
	}
	if best == nil {
		return 0, nil
	}
	best.pos++
	return best.ids[best.pos-1], best.rows[best.pos-1]
}

// next returns the next row the filter keeps, a nil row once the streams
// are drained or the quota is filled.
func (r *tableReader) next(ctx *Ctx) (storage.RowID, Row, error) {
	for r.quota < 0 || r.out < r.quota {
		id, row := r.merge()
		if row == nil {
			break
		}
		ctx.Stats.RowsScanned++
		r.scanned++
		keep, err := r.filter.keeps(row, nil)
		if err != nil {
			return 0, nil, err
		}
		if keep {
			r.out++
			return id, row, nil
		}
	}
	return 0, nil, nil
}

// close feeds back to the cost model what the read kept of the rows it
// examined, as the observed selectivity of the scan's pushed predicate —
// from the cursors only: a key-fed read keeps nearly every candidate,
// which says nothing about the predicate over the table. Then the
// cursor streams and their chunks go back to the pool, emptied, and the
// fetched chunk is forgotten; a second close does nothing.
func (r *tableReader) close() {
	if r.cursors && r.node.Filter != nil {
		r.node.Table.ObserveFilter(r.scanned, r.out)
	}
	if r.set != nil {
		for i := range r.streams {
			st := &r.streams[i]
			clear(st.rows[:cap(st.rows)])
			*st = shardStream{ids: st.ids[:0], rows: st.rows[:0]}
		}
		*r.set = r.streams
		streamSets.Put(r.set)
	}
	r.keyed[0], r.pkRow[0] = shardStream{}, nil
	r.cursors, r.set, r.streams = false, nil, nil
}

// readAll opens r and returns, in insertion order and with their ids, the
// rows of its table that its filter keeps — at most its quota of them —
// read through the key its probe keys pin when there is one. The rows are
// the store's shared images: clone before writing. A read the cursors fed
// is closed; a key-fed read keeps what passes in place in its fetched
// chunk, which is nobody else's and stays the caller's until r closes.
func (r *tableReader) readAll(ctx *Ctx) (ids []storage.RowID, rows []Row, err error) {
	if err := r.open(ctx); err != nil {
		return nil, nil, err
	}
	if r.cursors {
		defer r.close()
	} else {
		ids, rows = r.keyed[0].ids[:0], r.keyed[0].rows[:0]
	}
	for {
		id, row, err := r.next(ctx)
		if err != nil || row == nil {
			return ids, rows, err
		}
		ids, rows = append(ids, id), append(rows, row)
	}
}

// A Matcher is an UPDATE's or DELETE's matching read: the ids of the rows
// of a Scan's table that its filter keeps, read through the table reader
// a SELECT's scan reads through — by the key the Scan's probe keys pin,
// from the shard cursors otherwise. It is bound once, to its context's
// slot storage (Ctx.UseSlots), and reads again for each statement of its
// shape.
type Matcher struct{ rd tableReader }

// NewMatcher binds node's filter in ctx.
func NewMatcher(ctx *Ctx, node *plan.Scan) *Matcher {
	return &Matcher{rd: newReader(ctx, node)}
}

// AppendIDs appends to dst, in insertion order, the ids of the rows the
// filter keeps at ctx's snapshot — the current watermark when it pins
// none.
func (m *Matcher) AppendIDs(ctx *Ctx, dst []storage.RowID) ([]storage.RowID, error) {
	r := &m.rd
	if err := r.open(ctx); err != nil {
		return dst, err
	}
	defer r.close()
	for {
		id, row, err := r.next(ctx)
		if err != nil || row == nil {
			return dst, err
		}
		dst = append(dst, id)
	}
}

// fetchByKey is the reader's second source. When the scan's probe keys pin
// the single-column primary key or a single-column index to a literal it
// returns the rows that key selects, with their ids in ascending order —
// they come back with the index probe under one lock acquisition per
// shard, no per-row Get round-trips; keyed is false when only the cursors
// apply. A primary key's row is appended to pkIDs and pkRows, so a reader
// that owns their storage reads it without an allocation. With a crowd
// attached a CROWD column is never a key: a stored CNULL can still become
// the literal.
func fetchByKey(ctx *Ctx, node *plan.Scan, pkIDs []storage.RowID, pkRows []Row) (ids []storage.RowID, rows []Row, keyed bool, err error) {
	t := node.Table
	key := func(name string) (sqltypes.Value, bool) {
		lit, pinned := node.ProbeKeys[strings.ToLower(name)]
		col, ok := t.Column(name)
		if !pinned || !ok || (col.Crowd && ctx.Tasks != nil) {
			return sqltypes.Value{}, false
		}
		v := *ctx.slots.of(lit)
		// Coerce the literal to the column type so the encoded key matches
		// stored values (e.g. WHERE id = 3 against an INTEGER column).
		if cv, err := v.Coerce(col.Type); err == nil {
			v = cv
		}
		return v, true
	}
	if len(t.PrimaryKey) == 1 {
		if v, ok := key(t.PrimaryKey[0]); ok {
			if id, row, found := ctx.Store.LookupPKRowAt(t.Name, ctx.snapTS(), v); found {
				ids, rows = append(pkIDs, id), append(pkRows, row)
			}
			return ids, rows, true, nil
		}
	}
	// Of the single-column indexes on a pinned column, probe a unique one
	// first, then the catalog's first: the same index every run.
	var pick *catalog.Index
	var pv sqltypes.Value
	for _, idx := range ctx.Cat.Indexes(t.Name) {
		if len(idx.Columns) != 1 || pick != nil && (pick.Unique || !idx.Unique) {
			continue
		}
		if v, ok := key(idx.Columns[0]); ok {
			pick, pv = idx, v
		}
	}
	if pick == nil {
		return nil, nil, false, nil
	}
	ids, rows, err = ctx.Store.LookupIndexRowsAt(t.Name, pick.Name, ctx.snapTS(), pv)
	return ids, rows, true, err
}
