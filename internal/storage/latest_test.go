package storage

import (
	"fmt"
	"math"

	"crowddb/internal/sqltypes"
)

// The store's reads all take a timestamp; these are their
// latest-committed-state forms for tests.

func scanRows(s *Store, table string) ([]RowID, []Row, error) {
	return s.ScanRowsAt(table, s.VisibleTS())
}

func scanShardRows(s *Store, table string, shard int) ([]RowID, []Row, error) {
	scans, err := s.ScanShardsAt(table, s.VisibleTS())
	if err != nil {
		return nil, nil, err
	}
	if shard < 0 || shard >= len(scans) {
		return nil, nil, fmt.Errorf("shard %d out of range for %s (%d shards)", shard, table, len(scans))
	}
	ids, rows := scans[shard].Next(nil, nil, math.MaxInt)
	return ids, rows, nil
}

func lookupPK(s *Store, table string, pk ...sqltypes.Value) (RowID, bool) {
	id, _, ok := s.LookupPKRowAt(table, s.VisibleTS(), pk...)
	return id, ok
}

func lookupIndex(s *Store, table, index string, vals ...sqltypes.Value) ([]RowID, error) {
	ids, _, err := s.LookupIndexRowsAt(table, index, s.VisibleTS(), vals...)
	return ids, err
}
