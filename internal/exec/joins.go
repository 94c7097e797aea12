package exec

import (
	"errors"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// ---------------------------------------------------------------------------
// Joins

// rowCursor reads an input operator's batches one row at a time: the probe
// (left) side of both joins.
type rowCursor struct {
	in    Operator
	batch *Batch
	pos   int
}

// next returns the input's next row, nil at end of stream.
func (c *rowCursor) next(ctx *Ctx) (Row, error) {
	for c.pos >= c.batch.Len() {
		b, err := c.in.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		c.batch, c.pos = b, 0
	}
	c.pos++
	return c.batch.Rows[c.pos-1], nil
}

// concatRows is the joined row of l and r, in one allocation.
func concatRows(l, r Row) Row {
	return append(append(make(Row, 0, len(l)+len(r)), l...), r...)
}

// nlJoin is the general nested-loop join (inner, cross, left outer) with an
// arbitrary ON condition; the right side is buffered, the left streams.
type nlJoin struct {
	node  *plan.Join
	left  rowCursor
	right Operator

	on        expr
	rightRows []Row
	cur       Row
	rpos      int
	matched   bool
	buf       Batch
}

func (j *nlJoin) Schema() []plan.Col { return j.node.Schema() }

func (j *nlJoin) Open(ctx *Ctx) error {
	if err := j.left.in.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	rows, err := drainInput(ctx, j.right, nil)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.left.batch, j.left.pos, j.cur, j.rpos, j.matched = nil, 0, nil, 0, false
	return nil
}

func (j *nlJoin) next(ctx *Ctx) (Row, error) {
	for {
		if j.cur == nil {
			l, err := j.left.next(ctx)
			if err != nil || l == nil {
				return nil, err
			}
			j.cur, j.rpos, j.matched = l, 0, false
		}
		for j.rpos < len(j.rightRows) {
			r := j.rightRows[j.rpos]
			j.rpos++
			combined := concatRows(j.cur, r)
			ok, err := j.on.keeps(combined, nil)
			if err != nil {
				return nil, err
			}
			if ok {
				j.matched = true
				return combined, nil
			}
		}
		// Right side exhausted for this left row.
		if j.node.Type == parser.JoinLeft && !j.matched {
			out := append(Row{}, j.cur...)
			for range j.right.Schema() {
				out = append(out, sqltypes.Null())
			}
			j.cur = nil
			return out, nil
		}
		j.cur = nil
	}
}

func (j *nlJoin) NextBatch(ctx *Ctx) (*Batch, error) { return fillBatch(ctx, &j.buf, j.next) }

// Close closes both inputs, whatever the first returns.
func (j *nlJoin) Close(ctx *Ctx) error {
	j.rightRows, j.left.batch, j.cur = nil, nil, nil
	j.buf.release()
	return errors.Join(j.left.in.Close(ctx), j.right.Close(ctx))
}

func (j *nlJoin) bufferedRows() int64 { return int64(len(j.rightRows)) }

// rowBuckets groups rows by a key value, in arrival order: the build side
// of a hash join, CrowdJoin's inner rows. Unknown keys never join, so
// their rows are not kept.
type rowBuckets struct {
	keys   keyTable
	rows   chunks[[]Row] // each key's rows, by the key's id
	keyBuf []byte
}

func newRowBuckets(hint int) rowBuckets { return rowBuckets{keys: newKeyTable(hint)} }

func (b *rowBuckets) add(v sqltypes.Value, r Row) {
	if v.IsUnknown() {
		return
	}
	b.keyBuf = sqltypes.AppendKeyPart(b.keyBuf[:0], v, 1)
	id, isNew := b.keys.add(b.keyBuf)
	if isNew {
		b.rows.push()
	}
	rows := b.rows.at(int(id))
	*rows = append(*rows, r)
}

// get returns the rows whose key equals v.
func (b *rowBuckets) get(v sqltypes.Value) []Row {
	if v.IsUnknown() {
		return nil
	}
	b.keyBuf = sqltypes.AppendKeyPart(b.keyBuf[:0], v, 1)
	if id, ok := b.keys.get(b.keyBuf); ok {
		return *b.rows.at(int(id))
	}
	return nil
}

// hashJoin handles inner equi-joins: it hashes the right input on the join
// key and streams the left. The build table's slots are pre-sized from the
// optimizer's cardinality estimate for the build side (plan.Join.BuildRows)
// so bulk builds do not double their way up from an empty table.
type hashJoin struct {
	node  *plan.Join
	left  rowCursor
	right Operator

	lk, rk, res expr // the keys over the left and right rows; the rest of ON over the joined ones
	build       rowBuckets
	built       int64
	cur         Row
	bkt         []Row
	bpos        int
	buf         Batch
}

func (j *hashJoin) Schema() []plan.Col { return j.node.Schema() }

// buildSizeHint converts the optimizer's build-side row estimate into a
// slot-array pre-size, clamped so a wild estimate cannot pre-allocate
// unboundedly.
func (j *hashJoin) buildSizeHint() int {
	const maxHint = 1 << 20
	est := int(j.node.BuildRows)
	if est < 0 {
		return 0
	}
	if est > maxHint {
		return maxHint
	}
	return est
}

func (j *hashJoin) Open(ctx *Ctx) error {
	if err := j.left.in.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.build = newRowBuckets(j.buildSizeHint())
	j.built = 0
	for {
		b, err := j.right.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			v, err := j.rk.eval(r, nil)
			if err != nil {
				return err
			}
			if !v.IsUnknown() {
				j.build.add(v, r)
				j.built++
			}
		}
	}
	j.left.batch, j.left.pos, j.cur, j.bkt, j.bpos = nil, 0, nil, nil, 0
	return nil
}

func (j *hashJoin) next(ctx *Ctx) (Row, error) {
	for {
		for j.bpos < len(j.bkt) {
			r := j.bkt[j.bpos]
			j.bpos++
			combined := concatRows(j.cur, r)
			ok, err := j.res.keeps(combined, nil)
			if err != nil {
				return nil, err
			}
			if ok {
				return combined, nil
			}
		}
		l, err := j.left.next(ctx)
		if err != nil || l == nil {
			return nil, err
		}
		v, err := j.lk.eval(l, nil)
		if err != nil {
			return nil, err
		}
		if bkt := j.build.get(v); len(bkt) > 0 {
			j.cur, j.bkt, j.bpos = l, bkt, 0
		}
	}
}

func (j *hashJoin) NextBatch(ctx *Ctx) (*Batch, error) { return fillBatch(ctx, &j.buf, j.next) }

// Close closes both inputs, whatever the first returns.
func (j *hashJoin) Close(ctx *Ctx) error {
	j.build, j.left.batch, j.cur, j.bkt = rowBuckets{}, nil, nil, nil
	j.buf.release()
	return errors.Join(j.left.in.Close(ctx), j.right.Close(ctx))
}

func (j *hashJoin) bufferedRows() int64 { return j.built }
