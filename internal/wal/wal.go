// Package wal implements the write-ahead delta log of the durability layer:
// an append-only file of length-prefixed binary records, one per applied
// graph delta, each carrying the post-apply snapshot version and a CRC32C
// over its payload.
//
// # Record format
//
// Each record is
//
//	u32le payload length | u32le crc32c(payload) | payload
//
// where the payload is the varint delta encoding of codec.go, starting with
// the snapshot version. Record versions are contiguous: each record's
// version is its predecessor's plus one, so replaying the log from a
// checkpoint at version v means skipping records ≤ v and applying the rest
// in order through the ordinary ApplyDelta path.
//
// # Torn tails and corruption
//
// A crash mid-append leaves a torn tail: a final record whose bytes are
// incomplete or whose CRC does not match. Open detects this and truncates
// the file back to the last valid record instead of failing — losing an
// un-acknowledged suffix is exactly what a write-ahead log is allowed to do.
// A record that fails validation but is followed by a CRC-valid record is a
// different animal: the log was damaged in place, acknowledged records are
// gone, and Open reports a hard *CorruptError carrying the offending byte
// offset rather than silently dropping everything after it. (A failed record
// whose claimed extent yields no valid successor is indistinguishable from a
// torn tail by construction and is truncated as one.)
//
// # Fsync policy
//
// SyncAlways fsyncs every append before acknowledging it — the delta is
// durable when Append returns. SyncInterval fsyncs when Interval has elapsed
// since the last sync, bounding the un-durable window while amortizing the
// fsync cost across appends. SyncNever leaves flushing to the OS. Any append
// or sync failure is sticky: the file may hold a partial record, so the Log
// refuses further appends with the original error and the server degrades to
// serving reads at the last durable version until restarted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"divtopk/internal/fsx"
	"divtopk/internal/graph"
)

// SyncPolicy selects when Append fsyncs the log file.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append: durable before acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when Options.Interval has elapsed since the last
	// sync: bounded data loss, amortized fsync cost.
	SyncInterval
	// SyncNever leaves flushing to the operating system.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (always, interval, never)", s)
}

// Options configures a Log.
type Options struct {
	// Policy selects the fsync discipline (default SyncAlways).
	Policy SyncPolicy
	// Interval is the maximum time between fsyncs under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// FS is the filesystem to operate on (default the real one). Tests
	// substitute an fsx.Fault to inject crashes and write failures.
	FS fsx.FS
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = fsx.OS()
	}
	return o
}

// Record is one recovered log entry: the delta and the snapshot version its
// application produced.
type Record struct {
	Version uint64
	Delta   *graph.Delta
}

// RecoverInfo describes what Open found in an existing log file.
type RecoverInfo struct {
	// Records is the number of valid records recovered.
	Records int
	// Torn reports whether a partial final record was truncated away, and
	// TornOffset the byte offset it started at.
	Torn       bool
	TornOffset int64
}

// CorruptError is a hard mid-log validation failure: a record before the
// tail is damaged, so acknowledged history is gone and recovery must not
// proceed as if the prefix were the whole story.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

const (
	headerSize = 8
	// maxRecord bounds a single payload; a length beyond it is garbage, not
	// a real record.
	maxRecord = 1 << 30
	// minPayload is the smallest encodable payload: a version and three
	// zero counts, one varint byte each.
	minPayload = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only delta log. Safe for concurrent use; in the serving
// stack appends are additionally serialized by the Matcher's update lock.
type Log struct {
	mu       sync.Mutex
	fs       fsx.FS
	path     string
	f        fsx.File
	policy   SyncPolicy
	interval time.Duration
	lastSync time.Time
	size     int64
	lastVer  uint64
	hasVer   bool
	failed   error
	buf      []byte
}

// Open scans the log at path — creating it if absent — truncates a torn
// tail, and returns the log positioned for appending together with every
// valid record in order. A mid-log corruption aborts with a *CorruptError.
func Open(path string, opts Options) (*Log, []Record, RecoverInfo, error) {
	opts = opts.withDefaults()
	data, err := opts.FS.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, RecoverInfo{}, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	records, valid, info, err := scan(path, data)
	if err != nil {
		return nil, nil, info, err
	}
	if info.Torn {
		if err := opts.FS.Truncate(path, valid); err != nil {
			return nil, nil, info, fmt.Errorf("wal: truncating torn tail of %s at %d: %w", path, valid, err)
		}
	}
	f, err := opts.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	l := &Log{
		fs:       opts.FS,
		path:     path,
		f:        f,
		policy:   opts.Policy,
		interval: opts.Interval,
		size:     valid,
	}
	if n := len(records); n > 0 {
		l.lastVer = records[n-1].Version
		l.hasVer = true
	}
	return l, records, info, nil
}

// validRecordAt reports whether a complete CRC-valid record starts at off —
// the evidence that distinguishes a mid-log corruption from a torn tail.
func validRecordAt(data []byte, off int64) bool {
	if int64(len(data))-off < headerSize {
		return false
	}
	length := int64(binary.LittleEndian.Uint32(data[off:]))
	if length < minPayload || length > maxRecord || off+headerSize+length > int64(len(data)) {
		return false
	}
	crc := binary.LittleEndian.Uint32(data[off+4:])
	payload := data[off+headerSize : off+headerSize+length]
	return crc32.Checksum(payload, crcTable) == crc
}

// scan walks the raw log bytes, applying the torn-tail/corruption policy of
// the package comment. It returns the records of the valid prefix, the byte
// length of that prefix, and the recovery info.
func scan(path string, data []byte) ([]Record, int64, RecoverInfo, error) {
	var (
		records []Record
		off     int64
		info    RecoverInfo
	)
	torn := func(at int64, _ string) ([]Record, int64, RecoverInfo, error) {
		info.Torn = true
		info.TornOffset = at
		info.Records = len(records)
		return records, at, info, nil
	}
	corrupt := func(at int64, reason string) ([]Record, int64, RecoverInfo, error) {
		return nil, 0, info, &CorruptError{Path: path, Offset: at, Reason: reason}
	}
	for off < int64(len(data)) {
		if int64(len(data))-off < headerSize {
			return torn(off, "short header")
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		if length < minPayload || length > maxRecord {
			// No claimed extent to resync from: indistinguishable from a
			// torn tail, handled as one.
			return torn(off, "implausible length")
		}
		end := off + headerSize + length
		if end > int64(len(data)) {
			return torn(off, "short payload")
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+headerSize : end]
		if crc32.Checksum(payload, crcTable) != crc {
			if validRecordAt(data, end) {
				return corrupt(off, "CRC mismatch before a valid record")
			}
			return torn(off, "CRC mismatch at tail")
		}
		version, d, err := decodeRecord(payload)
		if err != nil {
			// The CRC matched, so these are the bytes the writer produced:
			// a decode failure is writer damage, not a torn write.
			return corrupt(off, fmt.Sprintf("undecodable payload: %v", err))
		}
		if n := len(records); n > 0 && version != records[n-1].Version+1 {
			return corrupt(off, fmt.Sprintf("version %d does not follow %d", version, records[n-1].Version))
		}
		records = append(records, Record{Version: version, Delta: d})
		off = end
	}
	info.Records = len(records)
	return records, off, info, nil
}

// Append encodes (version, d) and writes it to the log, fsyncing per the
// policy. version must extend the log contiguously. Any write or sync
// failure is sticky: the file may now end in a partial record, so every
// later Append fails with the original error until the process restarts and
// Open truncates the tail.
func (l *Log) Append(version uint64, d *graph.Delta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.hasVer && version != l.lastVer+1 {
		// A version gap is a caller bug, not a device failure: nothing was
		// written, so the log stays usable.
		return fmt.Errorf("wal: append version %d does not follow %d", version, l.lastVer)
	}
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = encodeRecord(l.buf, version, d)
	payload := l.buf[headerSize:]
	binary.LittleEndian.PutUint32(l.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:], crc32.Checksum(payload, crcTable))
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		l.failed = fmt.Errorf("wal: appending to %s: %w", l.path, err)
		return l.failed
	}
	if err := l.maybeSync(); err != nil {
		return err
	}
	l.lastVer = version
	l.hasVer = true
	return nil
}

// AppendBatch writes the records (firstVersion+i, ds[i]) in one contiguous
// write followed by a single sync point per the policy — the group-commit
// append: K records cost one fsync instead of K. firstVersion must extend
// the log contiguously. A crash during the write leaves a prefix of the
// batch's records (the torn one is truncated by the next Open); since the
// caller acknowledges nothing until AppendBatch returns, the lost suffix
// was never promised. Failures are sticky exactly as for Append.
func (l *Log) AppendBatch(firstVersion uint64, ds []*graph.Delta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if len(ds) == 0 {
		return nil
	}
	if l.hasVer && firstVersion != l.lastVer+1 {
		// A version gap is a caller bug, not a device failure: nothing was
		// written, so the log stays usable.
		return fmt.Errorf("wal: batch first version %d does not follow %d", firstVersion, l.lastVer)
	}
	l.buf = l.buf[:0]
	for i, d := range ds {
		start := len(l.buf)
		l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
		l.buf = encodeRecord(l.buf, firstVersion+uint64(i), d)
		payload := l.buf[start+headerSize:]
		binary.LittleEndian.PutUint32(l.buf[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, crcTable))
	}
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		l.failed = fmt.Errorf("wal: appending batch to %s: %w", l.path, err)
		return l.failed
	}
	if err := l.maybeSync(); err != nil {
		return err
	}
	l.lastVer = firstVersion + uint64(len(ds)) - 1
	l.hasVer = true
	return nil
}

// maybeSync applies the sync policy after a successful write. Callers hold
// l.mu.
func (l *Log) maybeSync() error {
	switch l.policy {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.interval {
			return l.syncLocked()
		}
	}
	return nil
}

// Sync fsyncs the log file regardless of policy — the graceful-shutdown
// flush. Failure is sticky like an append failure.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: syncing %s: %w", l.path, err)
		return l.failed
	}
	l.lastSync = time.Now()
	return nil
}

// Reset empties the log after a checkpoint made its records obsolete (the
// checkpoint-then-truncate rotation). The version sequence continues: the
// next Append must still carry the next contiguous version.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if err := l.f.Truncate(0); err != nil {
		l.failed = fmt.Errorf("wal: truncating %s: %w", l.path, err)
		return l.failed
	}
	l.size = 0
	return l.syncLocked()
}

// Size returns the current byte size of the log file.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Err returns the sticky failure, if any: non-nil means the log is degraded
// and refuses appends.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Close flushes and closes the log file. A Log that already failed skips
// the flush — the file state is suspect — but still releases the
// descriptor.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var syncErr error
	if l.failed == nil {
		syncErr = l.syncLocked()
	}
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
