package exec

import (
	"strings"

	"crowddb/internal/plan"
	"crowddb/internal/storage"
)

// indexScan serves a scan whose pushed-down filter pins an indexed column
// to a literal: the primary key or a secondary index supplies the
// candidate rows, the full residual filter then verifies them. Chosen by
// Build for closed-world tables when an access path exists.
type indexScan struct {
	node *plan.Scan
	// pk is true when the primary key answers the lookup; otherwise
	// indexName/keyCol name the secondary index.
	pk        bool
	indexName string
	keyCol    string

	rows []Row
	out  batchEmitter
}

// accessPath inspects a scan's probe keys for an indexable equality.
// Returns nil when only a sequential scan applies.
func accessPath(ctx *Ctx, node *plan.Scan) *indexScan {
	if len(node.ProbeKeys) == 0 {
		return nil
	}
	t := node.Table
	// Single-column primary key pinned by the filter?
	if len(t.PrimaryKey) == 1 {
		if _, ok := node.ProbeKeys[strings.ToLower(t.PrimaryKey[0])]; ok {
			return &indexScan{node: node, pk: true, keyCol: t.PrimaryKey[0]}
		}
	}
	// Any secondary index whose leading column is pinned?
	for col := range node.ProbeKeys {
		if idx, ok := ctx.Cat.IndexOn(t.Name, col); ok && len(idx.Columns) == 1 {
			return &indexScan{node: node, indexName: idx.Name, keyCol: col}
		}
	}
	return nil
}

func (s *indexScan) Schema() []plan.Col { return s.node.Schema() }

// candidates fetches the rows the pinned key selects, with their ids:
// the row(s) come back with the index probe under one lock acquisition
// per shard — no per-row Get round-trips.
func (s *indexScan) candidates(ctx *Ctx) ([]storage.RowID, []Row, error) {
	key := s.node.ProbeKeys[strings.ToLower(s.keyCol)]
	// Coerce the literal to the column type so the encoded key matches
	// stored values (e.g. WHERE id = 3 against an INTEGER column).
	if col, ok := s.node.Table.Column(s.keyCol); ok {
		if cv, err := key.Coerce(col.Type); err == nil {
			key = cv
		}
	}
	if !s.pk {
		return ctx.Store.LookupIndexRowsAt(s.node.Table.Name, s.indexName, ctx.snapTS(), key)
	}
	if id, row, ok := ctx.Store.LookupPKRowAt(s.node.Table.Name, ctx.snapTS(), key); ok {
		return []storage.RowID{id}, []Row{row}, nil
	}
	return nil, nil, nil
}

// CandidateRows returns the stored rows (with their ids, in insertion
// order) that can satisfy node.Filter: the rows a pinned primary key or
// index selects when the filter offers that access path — the test a
// SELECT's scan applies — and every row otherwise. The caller still
// verifies the full filter on each.
func CandidateRows(ctx *Ctx, node *plan.Scan) ([]storage.RowID, []Row, error) {
	if is := accessPath(ctx, node); is != nil {
		return is.candidates(ctx)
	}
	return ctx.Store.ScanRowsAt(node.Table.Name, ctx.snapTS())
}

func (s *indexScan) Open(ctx *Ctx) error {
	s.rows, s.out = nil, batchEmitter{}
	_, candidates, err := s.candidates(ctx)
	if err != nil {
		return err
	}
	for _, row := range candidates {
		ctx.Stats.RowsScanned++
		keep, err := rowMatches(s.node.Filter, row, s.node.Schema())
		if err != nil {
			return err
		}
		if keep {
			s.rows = append(s.rows, row)
			if s.node.StopAfter >= 0 && int64(len(s.rows)) >= s.node.StopAfter {
				break
			}
		}
	}
	s.out.rows = s.rows
	return nil
}

func (s *indexScan) NextBatch(ctx *Ctx) (*Batch, error) {
	return s.out.next(ctx), nil
}

func (s *indexScan) Close(*Ctx) error { return nil }

func (s *indexScan) bufferedRows() int64 { return int64(len(s.rows)) }
