package storage

import (
	"strconv"

	"crowddb/internal/obs"
)

const (
	walFsyncHelp = "WAL flush+fsync latency per group-commit batch, seconds"
	walBatchHelp = "WAL records made durable per fsync (group-commit batch size)"
)

// FsyncBuckets and BatchBuckets are the histogram bounds of every log's
// fsync latency and group-commit batch size (the WALs' here, the jobs
// journal's in the server).
var (
	FsyncBuckets = obs.ExpBuckets(1e-5, 4, 10) // 10µs .. ~2.6s
	BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// RegisterMetrics exports the store's durability and MVCC families into
// the registry: per-shard WAL fsync latency and batch-size histograms,
// retained-version and live-row gauges, and GC sweep counters. For a
// memory-only store the WAL families are still registered (empty) so
// scrapers always see a stable family set.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if len(s.logs) == 0 {
		reg.Histogram("crowddb_wal_fsync_seconds", walFsyncHelp, FsyncBuckets)
		reg.Histogram("crowddb_wal_fsync_batch_rows", walBatchHelp, BatchBuckets)
	}
	for i, l := range s.logs {
		shard := strconv.Itoa(i)
		fs := reg.Histogram("crowddb_wal_fsync_seconds", walFsyncHelp, FsyncBuckets, "shard", shard)
		br := reg.Histogram("crowddb_wal_fsync_batch_rows", walBatchHelp, BatchBuckets, "shard", shard)
		l.setMetrics(fs, br)
	}
	reg.GaugeFunc("crowddb_storage_shards",
		"hash shards per table",
		func() float64 { return float64(s.nshards) })
	reg.GaugeFunc("crowddb_mvcc_retained_versions",
		"superseded row versions retained for open snapshots",
		func() float64 { return float64(s.retained.Load()) })
	reg.GaugeFunc("crowddb_mvcc_live_rows",
		"visible row versions across all tables",
		func() float64 { live, _ := s.VersionStats(); return float64(live) })
	reg.CounterFunc("crowddb_mvcc_gc_runs_total",
		"MVCC garbage-collection sweeps",
		func() float64 { runs, _ := s.GCStats(); return float64(runs) })
	reg.CounterFunc("crowddb_mvcc_gc_reclaimed_versions_total",
		"superseded row versions reclaimed by GC",
		func() float64 { _, reclaimed := s.GCStats(); return float64(reclaimed) })
}
