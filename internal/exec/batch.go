package exec

// Batch plumbing for the vectorized streaming executor: the Batch unit,
// the configurable batch size, and the small helpers operators share to
// emit batches without re-allocating. The Operator contract itself
// (ownership, reuse, EOF semantics) is documented in the package comment
// in operators.go.

// DefaultBatchSize is the number of rows an operator aims to hand over
// per NextBatch call when Ctx.BatchSize is unset. Large enough to
// amortize per-call overhead across the pipeline, small enough that a
// first batch never resembles materialization.
const DefaultBatchSize = 256

// Batch is one unit of row flow between operators. The Rows slice (the
// header) is owned by the producing operator and reused across NextBatch
// calls; the Row values inside are owned by the consumer once returned
// and stay valid after the next call.
type Batch struct {
	Rows []Row
}

// Len reports the number of rows in the batch (nil-safe).
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Rows)
}

// reset empties the batch for refilling, keeping the backing capacity.
func (b *Batch) reset() { b.Rows = b.Rows[:0] }

// batchSize resolves the effective rows-per-batch for this statement.
func (c *Ctx) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// fillBatch refills buf with up to one batch of rows pulled from next,
// which ends its stream with a nil row. It returns buf, or the operator
// contract's (nil, nil) when next had nothing left.
func fillBatch(ctx *Ctx, buf *Batch, next func(*Ctx) (Row, error)) (*Batch, error) {
	buf.reset()
	for limit := ctx.batchSize(); len(buf.Rows) < limit; {
		r, err := next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		buf.Rows = append(buf.Rows, r)
	}
	if len(buf.Rows) == 0 {
		return nil, nil
	}
	return buf, nil
}

// batchEmitter serves batches out of a materialized row slice as
// zero-copy views; the helper blocking operators (sort, aggregate, crowd
// scans) use to stream their buffered output.
type batchEmitter struct {
	rows []Row
	pos  int
	buf  Batch
}

func (e *batchEmitter) next(ctx *Ctx) *Batch {
	if e.pos >= len(e.rows) {
		return nil
	}
	n := min(ctx.batchSize(), len(e.rows)-e.pos)
	e.buf.Rows = e.rows[e.pos : e.pos+n]
	e.pos += n
	return &e.buf
}

// drainInput pulls the input operator to EOF, appending every row to
// dst — the shared materialization step of blocking operators. The batch
// headers are copied (the producer reuses them); the Row values are not.
func drainInput(ctx *Ctx, in Operator, dst []Row) ([]Row, error) {
	for {
		b, err := in.NextBatch(ctx)
		if err != nil {
			return dst, err
		}
		if b.Len() == 0 {
			return dst, nil
		}
		dst = append(dst, b.Rows...)
	}
}
