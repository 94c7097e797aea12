package storage

import (
	"bytes"
	"encoding/json"
	"path/filepath"

	"crowddb/internal/obs"
)

// RecordLog is the jobs journal's form of appendLog: the same file
// format, sync modes and torn-tail rule as the per-shard WALs, carrying
// caller-defined records (the server journals job lifecycle, emitted
// rows, and budget movements through it) instead of row mutations. A
// record is either buffered (Buffer: durable at the next barrier) or
// appended (Append: durable on return); Sync is the barrier alone.
type RecordLog struct{ log *appendLog }

// OpenRecordLog opens (creating if absent) the log at path for appends.
// Replay an existing file first: replay is what cuts off a torn tail.
func OpenRecordLog(path string, mode SyncMode) (*RecordLog, error) {
	l, created, err := openAppendLog(path, mode, "storage.recordlog.append")
	if err == nil && created {
		if err = syncDir(filepath.Dir(path)); err != nil {
			l.close()
		}
	}
	if err != nil {
		return nil, err
	}
	return &RecordLog{l}, nil
}

// SetMetrics wires optional fsync latency / batch size histograms.
func (l *RecordLog) SetMetrics(fsync, batch *obs.Histogram) { l.log.setMetrics(fsync, batch) }

// Buffer adds v as one JSON line without waiting for it to be durable:
// under SyncGroup it is durable once a later Sync or Append returns,
// under SyncAlways at once, under SyncOff never beyond the OS. After a
// fault-injection kill the record is silently dropped — the write a torn
// process would have lost.
func (l *RecordLog) Buffer(v any) error {
	_, err := l.log.append(v)
	return err
}

// Sync blocks until every record buffered so far is durable.
func (l *RecordLog) Sync() error { return l.log.sync() }

// Append is Buffer, then the wait for v to be durable — which covers
// every record buffered before it (group mode coalesces concurrent
// appenders into one syscall pair).
func (l *RecordLog) Append(v any) error {
	seq, err := l.log.append(v)
	if err != nil {
		return err
	}
	return l.log.commit(seq)
}

// Close flushes, fsyncs (unless SyncOff), and closes the file.
func (l *RecordLog) Close() error {
	if l == nil {
		return nil
	}
	return l.log.close()
}

// ReplayRecordLog streams each whole record at path to apply under
// appendLog's torn-tail rule: a torn tail ends the replay cleanly and is
// cut off, mid-file damage is an error; a missing file is an empty log.
func ReplayRecordLog(path string, apply func(line json.RawMessage) error) error {
	return replayLog(path, func(line []byte) error { return apply(line) })
}

// RewriteRecordLog atomically replaces the log at path with the records
// emit adds (compaction after recovery) and reopens it for appends. On
// error the old log is left untouched.
func RewriteRecordLog(path string, mode SyncMode, emit func(add func(v any) error) error) (*RecordLog, error) {
	if err := mode.valid(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := emit(json.NewEncoder(&buf).Encode); err != nil { // Encode = Marshal + '\n'
		return nil, err
	}
	if err := WriteFileAtomic(path, buf.Bytes()); err != nil {
		return nil, err
	}
	return OpenRecordLog(path, mode)
}
