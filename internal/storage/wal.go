package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// walRecord is one JSON line in the write-ahead log. Exactly one of the
// payload field groups is meaningful per Op. LSN is a per-table
// monotonic mutation counter: a cross-shard row move writes records to
// two WAL files, and if a crash makes both copies of the row live,
// recovery keeps the one with the higher LSN.
type walRecord struct {
	Op    string          `json:"op"` // "insert", "update", "delete"
	Table string          `json:"table"`
	Row   RowID           `json:"row"`
	LSN   int64           `json:"lsn,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"` // EncodeRow payload
}

// replayWAL streams the whole records of one shard's WAL to apply (the
// torn-tail rule is appendLog's).
func replayWAL(path string, apply func(walRecord) error) error {
	return replayLog(path, func(line []byte) error {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("storage: wal %s: %w", path, err)
		}
		return apply(rec)
	})
}

// ---------------------------------------------------------------------------
// On-disk layout: per-shard WALs and snapshots plus a shard-count meta
// file pinning the layout.

// walShardPath and snapshotShardPath name one shard's on-disk artifacts.
func walShardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%03d.log", shard))
}

func snapshotShardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%03d.json", shard))
}

// walLegacyPath is the pre-sharding single WAL; its presence marks an old
// layout this engine refuses to guess at.
func walLegacyPath(dir string) string { return filepath.Join(dir, "wal.log") }

func shardMetaPath(dir string) string { return filepath.Join(dir, "shards.json") }

// shardMeta pins a data directory's partitioning. Rows are placed by
// hash(PK) % shards, so the count must never change silently, and the hash
// reads the key bytes of the directory's version.
type shardMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// dataVersion is the version of the data directories this tree reads and
// writes: a row's shard is FNV-1a of its key's version-1 bytes (hashV1Part).
const dataVersion = 1

// readShardMeta returns the directory's shard count and version, or a zero
// count when the directory has no shards.json yet.
func readShardMeta(dir string) (shards, version int, err error) {
	data, err := os.ReadFile(shardMetaPath(dir))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	var m shardMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, 0, fmt.Errorf("storage: corrupt shard meta: %w", err)
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return 0, 0, fmt.Errorf("storage: shard meta claims %d shards (want 1..%d)", m.Shards, MaxShards)
	}
	return m.Shards, m.Version, nil
}

func writeShardMeta(dir string, shards int) error {
	data, err := json.Marshal(shardMeta{Version: dataVersion, Shards: shards})
	if err != nil {
		return err
	}
	return WriteFileAtomic(shardMetaPath(dir), append(data, '\n'))
}
