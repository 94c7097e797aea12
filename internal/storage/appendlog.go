package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowddb/internal/faultinject"
	"crowddb/internal/obs"
)

// SyncMode is the durability policy of an append-only log (the per-shard
// WALs and the jobs journal share it).
type SyncMode string

const (
	// SyncAlways flushes and fsyncs every record as it is appended:
	// maximum durability, one syscall pair per record.
	SyncAlways SyncMode = "always"
	// SyncGroup (the default) buffers records and makes them durable at
	// the caller's barrier — a transaction's commit, a journal sync — with
	// one flush+fsync that covers everything buffered so far; concurrent
	// callers on the same log coalesce into one (leader-based group
	// commit). Nothing acknowledged past a barrier is ever lost.
	SyncGroup SyncMode = "group"
	// SyncOff flushes records to the OS per append but never fsyncs:
	// process crashes lose nothing, machine crashes may lose the tail.
	SyncOff SyncMode = "off"
)

func (m SyncMode) valid() error {
	switch m {
	case SyncAlways, SyncGroup, SyncOff:
		return nil
	}
	return fmt.Errorf("storage: unknown WAL sync mode %q (want always, group, or off)", m)
}

// appendLog is the one append-only, crash-safe log under both the
// per-shard WALs and the jobs journal: JSON lines, one record per line.
// Records are buffered under mu (WAL callers hold their shard lock, so
// per-row order in the file matches apply order) and made durable per
// the sync mode. append never waits for a sync under SyncGroup; commit
// and sync are the barriers a caller waits at before it acknowledges
// anything that depends on the records.
//
// The torn-tail rule (enforced by replayLog): a record is whole when it
// is valid JSON and newline-terminated. Anything after the last whole
// record with no whole record behind it was never acknowledged — a crash
// tore the write — and is truncated away at replay, so the next append
// starts a fresh line. A damaged line with a whole record behind it is
// corruption, not a torn write: replay fails with the file and offset
// and leaves the file untouched.
type appendLog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	f     *os.File
	w     *bufio.Writer
	mode  SyncMode
	point string // crashpoint hit on every append

	seq     int64 // records appended (buffered)
	synced  int64 // records durably committed
	size    int64 // bytes appended
	durable int64 // bytes durably committed: what a crash leaves of the file
	syncing bool  // a leader is mid-flush
	err     error // sticky I/O error: the log is poisoned once a write fails

	// Optional, nil-safe: fsync latency and records per fsync.
	fsyncHist, batchHist *obs.Histogram
}

// openAppendLog opens (creating if absent) the log at path for appends.
// created reports that it made the file: its directory entry survives a
// crash only once the caller has synced the directory (syncDir), which
// it does once for all the logs it creates there.
func openAppendLog(path string, mode SyncMode, crashpoint string) (l *appendLog, created bool, err error) {
	if err := mode.valid(); err != nil {
		return nil, false, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		created = err == nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("storage: open log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("storage: open log: %w", err)
	}
	l = &appendLog{f: f, w: bufio.NewWriter(f), mode: mode, point: crashpoint, size: fi.Size(), durable: fi.Size()}
	l.cond = sync.NewCond(&l.mu)
	return l, created, nil
}

// syncDir fsyncs the directory dir, making the entries of the files
// created or renamed in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// setMetrics wires the fsync latency / batch size histograms; call it
// before writes flow.
func (l *appendLog) setMetrics(fsync, batch *obs.Histogram) {
	l.mu.Lock()
	l.fsyncHist, l.batchHist = fsync, batch
	l.mu.Unlock()
}

// append marshals v as one JSON line, buffers it and returns its
// sequence number. On return an always-mode record is fsynced and an
// off-mode record is with the OS; a group-mode record is durable once a
// commit or sync covering it returns. After a fault-injection kill the
// append is silently dropped — the write a torn process would have lost.
func (l *appendLog) append(v any) (int64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return l.appendLine(data)
}

// lineBufs recycle the buffers appendWAL encodes records into.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledLine bounds the buffer a line goes back to lineBufs with.
const maxPooledLine = 64 << 10

// appendWAL is append of a WAL record: rec with row, nil for none, as its
// data. The line is the one append writes for rec holding EncodeRow(row),
// encoded straight into a pooled buffer (walRecord.appendJSON).
func (l *appendLog) appendWAL(rec walRecord, row Row) (int64, error) {
	bp := lineBufs.Get().(*[]byte)
	line, err := rec.appendJSON((*bp)[:0], row)
	var seq int64
	if err == nil {
		seq, err = l.appendLine(line)
	}
	if cap(line) <= maxPooledLine {
		*bp = line[:0]
		lineBufs.Put(bp)
	}
	return seq, err
}

// appendLine is append of data, one record's JSON, which the log copies.
func (l *appendLog) appendLine(data []byte) (int64, error) {
	faultinject.Hit(l.point)
	if faultinject.Killed() {
		return 0, nil
	}
	var err error
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if _, err = l.w.Write(data); err == nil {
		err = l.w.WriteByte('\n')
	}
	if err != nil {
		l.err = err
		return 0, err
	}
	l.seq++
	l.size += int64(len(data)) + 1
	if l.mode == SyncGroup {
		return l.seq, nil
	}
	start := time.Now()
	err = l.w.Flush()
	if err == nil && l.mode == SyncAlways {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = err
		return 0, err
	}
	if l.mode == SyncAlways {
		l.fsyncHist.Observe(time.Since(start).Seconds())
		l.batchHist.Observe(1)
	}
	l.synced, l.durable = l.seq, l.size
	return l.seq, nil
}

// commit blocks until record seq is durable. In group mode the first
// caller to arrive leads: it flushes and fsyncs the whole buffered batch
// while later arrivals wait on the condition variable, then everyone
// covered by the batch returns together. After a fault-injection kill
// nothing more is made durable: the caller returns as if it had been, and
// the killed log's close keeps only what was synced before.
func (l *appendLog) commit(seq int64) error {
	if l.mode != SyncGroup {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(seq)
}

// sync blocks until every record appended so far is durable (commit up to
// the current tail).
func (l *appendLog) sync() error {
	if l.mode != SyncGroup {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(l.seq)
}

func (l *appendLog) commitLocked(seq int64) error {
	for l.synced < seq && l.err == nil {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if faultinject.Killed() {
			return nil
		}
		l.syncing = true
		target, size := l.seq, l.size
		batch := target - l.synced
		start := time.Now()
		err := l.w.Flush()
		l.mu.Unlock()
		if err == nil {
			err = l.f.Sync() // the batched syscall, outside the buffer lock
		}
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.err = err
		} else if target > l.synced {
			l.synced, l.durable = target, size
			l.fsyncHist.Observe(time.Since(start).Seconds())
			l.batchHist.Observe(float64(batch))
		}
		l.cond.Broadcast()
	}
	return l.err
}

// reset truncates the log after a checkpoint. Callers must guarantee no
// concurrent appends (the checkpoint holds this shard of every table),
// but writers may be parked in commit() for records the snapshot just
// captured — seq/synced are therefore MONOTONIC, never rewound: every
// record buffered so far is durable via the renamed snapshot, so synced
// jumps to seq and the waiters are released.
func (l *appendLog) reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.w.Reset(l.f)
	l.synced, l.size, l.durable, l.err = l.seq, 0, 0, nil
	l.cond.Broadcast()
	return nil
}

// close flushes, fsyncs (unless SyncOff), and closes the file. A log
// closed after a fault-injection kill keeps only its durable prefix, as
// after a machine crash: the buffered tail is dropped and whatever was
// flushed past the last sync is cut off the file.
func (l *appendLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if faultinject.Killed() {
		err := l.f.Truncate(l.durable)
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	err := l.w.Flush()
	if err == nil && l.mode != SyncOff {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayLog streams every whole record of the log at path to apply, in
// order, and enforces the torn-tail rule stated on appendLog: a torn
// tail is cut off the file, mid-file damage is an error naming the file
// and offset. Empty lines are skipped; a missing file is an empty log.
func replayLog(path string, apply func(line []byte) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil // a line keeps its terminator
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil // unterminated final fragment
		}
		return 0, nil, nil
	})
	var off int64        // offset of the next line
	damaged := int64(-1) // offset of the first line that is not whole
	for sc.Scan() {
		line := sc.Bytes()
		start := off
		off += int64(len(line))
		rec, terminated := bytes.CutSuffix(line, []byte{'\n'})
		switch {
		case terminated && len(rec) == 0:
			// empty line: neither a record nor damage
		case !terminated || !json.Valid(rec):
			if damaged < 0 {
				damaged = start
			}
		case damaged >= 0:
			return fmt.Errorf("storage: log %s is corrupt at offset %d: a damaged record is followed by whole ones", path, damaged)
		default:
			if err := apply(rec); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("storage: replay %s: %w", path, err)
	}
	if damaged >= 0 {
		return os.Truncate(path, damaged) // the torn tail
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data so that a crash at
// any instant leaves either the old content or the new, never a mixture:
// temp file → fsync → rename → fsync the directory.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}
