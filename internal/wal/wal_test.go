package wal

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"divtopk/internal/fsx"
	"divtopk/internal/graph"
)

// randDelta builds a deterministic pseudo-random delta exercising every
// payload shape: node appends with int and string attributes, edge inserts,
// edge deletes.
func randDelta(rng *rand.Rand) *graph.Delta {
	d := &graph.Delta{}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		var attrs map[string]graph.Value
		if rng.Intn(2) == 0 {
			attrs = map[string]graph.Value{
				"R": graph.IntValue(rng.Int63n(100)),
				"C": graph.StrValue("music"),
			}
		}
		d.NodeAppends = append(d.NodeAppends, graph.NodeAppend{Label: "L", Attrs: attrs})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		d.EdgeInserts = append(d.EdgeInserts, [2]graph.NodeID{graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50))})
	}
	for i, n := 0, rng.Intn(2); i < n; i++ {
		d.EdgeDeletes = append(d.EdgeDeletes, [2]graph.NodeID{graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50))})
	}
	return d
}

// writeChain appends versions 1..n of random deltas to a fresh log at path
// and returns the deltas.
func writeChain(t *testing.T, path string, n int, seed int64) []*graph.Delta {
	t.Helper()
	l, recs, info, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || info.Torn {
		t.Fatalf("fresh log not empty: %d records, torn=%v", len(recs), info.Torn)
	}
	rng := rand.New(rand.NewSource(seed))
	deltas := make([]*graph.Delta, n)
	for i := range deltas {
		deltas[i] = randDelta(rng)
		if err := l.AppendBatch(uint64(i+1), []*graph.Delta{deltas[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return deltas
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "wal.log")
	deltas := writeChain(t, path, 16, 1)
	l, recs, info, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Torn || info.Records != 16 {
		t.Fatalf("recover info = %+v", info)
	}
	for i, r := range recs {
		if r.Version != uint64(i+1) {
			t.Fatalf("record %d version = %d", i, r.Version)
		}
		if !reflect.DeepEqual(r.Delta, deltas[i]) {
			t.Fatalf("record %d delta mismatch:\n got %#v\nwant %#v", i, r.Delta, deltas[i])
		}
	}
	// Appends continue contiguously after recovery: the log recovered 16 as
	// its last version.
	if err := l.AppendBatch(17, []*graph.Delta{{}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(19, []*graph.Delta{{}}); err == nil {
		t.Fatal("version gap accepted")
	}
	// A rejected gap is a caller bug, not a device failure: the log stays
	// usable for the correct next version.
	if err := l.AppendBatch(18, []*graph.Delta{{}}); err != nil {
		t.Fatalf("append after rejected gap: %v", err)
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	t.Parallel()
	d := &graph.Delta{}
	d.AddNode("A", map[string]graph.Value{"z": graph.IntValue(1), "a": graph.StrValue("x"), "m": graph.IntValue(-7)})
	d.InsertEdge(3, 4)
	a := encodeRecord(nil, 9, d)
	b := encodeRecord(nil, 9, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same delta encoded to different bytes")
	}
	ver, got, err := decodeRecord(a)
	if err != nil || ver != 9 {
		t.Fatalf("decode = (%d, %v)", ver, err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("decode mismatch:\n got %#v\nwant %#v", got, d)
	}
}

// tornFuzz opens a mutated copy of the log and asserts the valid prefix came
// back: all records but the final one, with appends still working after.
func tornFuzz(t *testing.T, dir string, data []byte, wantRecords int) {
	t.Helper()
	path := filepath.Join(dir, "mut.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(recs) != wantRecords {
		t.Fatalf("recovered %d records, want %d", len(recs), wantRecords)
	}
	for i, r := range recs {
		if r.Version != uint64(i+1) {
			t.Fatalf("record %d version = %d", i, r.Version)
		}
	}
	next := uint64(wantRecords + 1)
	if err := l.AppendBatch(next, []*graph.Delta{{}}); err != nil {
		t.Fatalf("append after torn recovery: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailEveryByte is the torn-tail fuzz of the issue: the final record
// truncated at every byte boundary and corrupted at every byte offset must
// recover the valid prefix, never fail, and never resurrect the damaged
// record.
func TestTornTailEveryByte(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	const n = 4
	writeChain(t, path, n, 2)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the final record's start offset by scanning.
	recs, valid, info, err := scan(path, full)
	if err != nil || info.Torn || len(recs) != n {
		t.Fatalf("pristine scan = (%d records, torn=%v, %v)", len(recs), info.Torn, err)
	}
	if valid != int64(len(full)) {
		t.Fatalf("valid prefix %d != file size %d", valid, len(full))
	}
	_, prevEnd, _, err := scan(path, full[:lastRecordStart(t, full)])
	if err != nil {
		t.Fatal(err)
	}
	last := prevEnd

	// Truncation at every byte boundary of the final record (and exactly at
	// its start, which is simply a shorter clean log).
	for cut := last; cut <= int64(len(full)); cut++ {
		want := n - 1
		if cut == int64(len(full)) {
			want = n
		}
		tornFuzz(t, dir, append([]byte(nil), full[:cut]...), want)
	}

	// Corruption at every byte offset of the final record: length field, CRC
	// field, version, payload — all classify as a torn tail because nothing
	// valid follows.
	for i := last; i < int64(len(full)); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		tornFuzz(t, dir, mut, n-1)
	}
}

// lastRecordStart returns the offset of the final record of a valid log.
func lastRecordStart(t *testing.T, data []byte) int64 {
	t.Helper()
	var off, prev int64
	for off < int64(len(data)) {
		prev = off
		if !validRecordAt(data, off) {
			t.Fatalf("invalid record at %d in pristine log", off)
		}
		length := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += headerSize + length
	}
	return prev
}

// TestMidLogCorruptionIsHardError flips every CRC-covered byte of a mid-log
// record: recovery must refuse with a *CorruptError naming the record's
// offset, because acknowledged history is damaged — truncating there would
// silently drop the valid records after it.
func TestMidLogCorruptionIsHardError(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	writeChain(t, path, 4, 3)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 2's extent: [start, end).
	var start, end int64
	{
		var off int64
		for i := 0; i < 2; i++ {
			length := int64(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
			start = off
			end = off + headerSize + length
			off = end
		}
	}
	for i := start + 4; i < end; i++ { // skip the length field: no claimed extent to resync from
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		p := filepath.Join(dir, "mut.log")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := Open(p, Options{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("byte %d: err = %v, want *CorruptError", i, err)
		}
		if ce.Offset != start {
			t.Fatalf("byte %d: corrupt offset = %d, want %d", i, ce.Offset, start)
		}
	}
}

func TestVersionDiscontinuityIsHardError(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "wal.log")
	// Hand-craft records with versions 1 then 3: both CRC-valid, so this is
	// writer damage, not a torn write.
	l, _, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(1, []*graph.Delta{{}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Bypass the writer's contiguity guard by appending a raw record.
	var raw []byte
	raw = append(raw, 0, 0, 0, 0, 0, 0, 0, 0)
	raw = encodeRecord(raw, 3, &graph.Delta{})
	payload := raw[headerSize:]
	putHeader(raw, payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, _, _, err = Open(path, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

// countingFS counts fsync calls through the File it hands out.
type countingFS struct {
	fsx.FS
	mu    sync.Mutex
	syncs int
}

type countingFile struct {
	fsx.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFile) Sync() error {
	c.fs.mu.Lock()
	c.fs.syncs++
	c.fs.mu.Unlock()
	return c.File.Sync()
}

func (c *countingFS) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

func TestSyncPolicies(t *testing.T) {
	t.Parallel()
	const appends = 8
	cases := []struct {
		name     string
		opts     Options
		want     func(got int) bool
		describe string
	}{
		{"always", Options{Policy: SyncAlways}, func(got int) bool { return got == appends+1 }, "one per append plus the close flush"},
		{"interval", Options{Policy: SyncInterval, Interval: time.Hour}, func(got int) bool { return got == 2 }, "the first append (clock at zero) plus the close flush"},
		{"never", Options{Policy: SyncNever}, func(got int) bool { return got == 1 }, "only the close flush"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfs := &countingFS{FS: fsx.OS()}
			opts := tc.opts
			opts.FS = cfs
			l, _, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= appends; i++ {
				if err := l.AppendBatch(uint64(i), []*graph.Delta{{}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := cfs.count(); !tc.want(got) {
				t.Fatalf("policy %s: %d fsyncs, want %s", tc.name, got, tc.describe)
			}
		})
	}
}

func TestAppendFailureIsSticky(t *testing.T) {
	t.Parallel()
	fault := fsx.NewFault(fsx.OS())
	l, _, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch(1, []*graph.Delta{{}}); err != nil {
		t.Fatal(err)
	}
	inj := errors.New("device gone")
	fault.FailSyncs(inj)
	if err := l.AppendBatch(2, []*graph.Delta{{}}); !errors.Is(err, inj) {
		t.Fatalf("append under failing sync = %v", err)
	}
	// Disarming the fault must not un-degrade the log: the file may hold a
	// partial or un-synced record, so only a restart (and tail truncation)
	// recovers.
	fault.FailSyncs(nil)
	if err := l.AppendBatch(3, []*graph.Delta{{}}); !errors.Is(err, inj) {
		t.Fatalf("append after disarm = %v, want sticky %v", err, inj)
	}
	if l.Err() == nil {
		t.Fatal("Err() = nil on a degraded log")
	}
}

func TestResetRotation(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.AppendBatch(uint64(i), []*graph.Delta{{}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size after reset = %d", l.Size())
	}
	// The version sequence continues across the rotation.
	if err := l.AppendBatch(3, []*graph.Delta{{}}); err == nil {
		t.Fatal("stale version accepted after reset")
	}
	if err := l.AppendBatch(4, []*graph.Delta{{}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Version != 4 {
		t.Fatalf("after rotation: %d records, first version %d", len(recs), recs[0].Version)
	}
}

// putHeader fills the length and CRC header fields of a raw record.
func putHeader(raw, payload []byte) {
	raw[0] = byte(len(payload))
	raw[1] = byte(len(payload) >> 8)
	raw[2] = byte(len(payload) >> 16)
	raw[3] = byte(len(payload) >> 24)
	crc := crc32.Checksum(payload, crcTable)
	raw[4] = byte(crc)
	raw[5] = byte(crc >> 8)
	raw[6] = byte(crc >> 16)
	raw[7] = byte(crc >> 24)
}
