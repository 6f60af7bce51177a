package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divtopk/internal/fsx"
	"divtopk/internal/graph"
	"divtopk/internal/snapshot"
	"divtopk/internal/wal"
)

// lineage returns versions 0..n of a small update chain plus the deltas that
// produced versions 1..n (deltas[i] produced version i+1).
func lineage(t *testing.T, n int) ([]*graph.Graph, []*graph.Delta) {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode("A", map[string]graph.Value{"R": graph.IntValue(3)})
	b.AddNode("B", nil)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	gs := []*graph.Graph{b.Build()}
	var ds []*graph.Delta
	for i := 0; i < n; i++ {
		d := &graph.Delta{}
		d.AddNode("C", nil)
		d.InsertEdge(graph.NodeID(gs[i].NumNodes()), 0)
		g, err := graph.ApplyDelta(gs[i], d)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
		ds = append(ds, d)
	}
	return gs, ds
}

// seedAndAppend opens a fresh store, seeds version 0, and appends versions
// 1..len(ds).
func seedAndAppend(t *testing.T, dir string, opts Options, gs []*graph.Graph, ds []*graph.Delta) *Store {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	if err := s.Seed(gs[0]); err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if err := s.Append(gs[i+1], d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSeedAppendRecover(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 5)
	s := seedAndAppend(t, dir, Options{}, gs, ds)
	if v, ok := s.DurableVersion(); !ok || v != 5 {
		t.Fatalf("DurableVersion = (%d, %v)", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Base == nil || rec.Base.Version() != 0 {
		t.Fatalf("recovered base = %v", rec.Base)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	// Replaying the records through ApplyDelta reproduces the lineage.
	g := rec.Base
	for i, r := range rec.Records {
		if r.Version != uint64(i+1) {
			t.Fatalf("record %d version = %d", i, r.Version)
		}
		if g, err = graph.ApplyDelta(g, r.Delta); err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != gs[i+1].NumNodes() || g.NumEdges() != gs[i+1].NumEdges() {
			t.Fatalf("replayed version %d shape (%d,%d), want (%d,%d)",
				r.Version, g.NumNodes(), g.NumEdges(), gs[i+1].NumNodes(), gs[i+1].NumEdges())
		}
	}
	if v, ok := s2.DurableVersion(); !ok || v != 5 {
		t.Fatalf("reopened DurableVersion = (%d, %v)", v, ok)
	}
}

// TestRotation: with CheckpointEvery=4, ten appends leave a checkpoint at
// version 8 (the second rotation), a WAL tail of versions 9-10, and no older
// checkpoint files.
func TestRotation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 10)
	s := seedAndAppend(t, dir, Options{CheckpointEvery: 4}, gs, ds)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Base.Version() != 8 {
		t.Fatalf("base version = %d, want 8", rec.Base.Version())
	}
	if len(rec.Records) != 2 || rec.Records[0].Version != 9 || rec.Records[1].Version != 10 {
		t.Fatalf("tail = %+v, want versions 9,10", rec.Records)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			ckpts = append(ckpts, e.Name())
		}
	}
	if len(ckpts) != 1 || ckpts[0] != snapshot.Name(8) {
		t.Fatalf("checkpoints on disk = %v, want only %s", ckpts, snapshot.Name(8))
	}
}

// TestRotationCrashWindow reproduces a crash between checkpoint publication
// and WAL truncation: the WAL still holds records the checkpoint covers, and
// recovery must skip them by version.
func TestRotationCrashWindow(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 3)
	s := seedAndAppend(t, dir, Options{CheckpointEvery: -1}, gs, ds)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The WAL holds versions 1-3 with a checkpoint at 0. Publish a checkpoint
	// at version 2 without touching the WAL — the torn rotation.
	if _, err := snapshot.Write(fsx.OS(), dir, gs[2]); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Base.Version() != 2 {
		t.Fatalf("base version = %d, want 2", rec.Base.Version())
	}
	if len(rec.Records) != 1 || rec.Records[0].Version != 3 {
		t.Fatalf("tail = %+v, want just version 3", rec.Records)
	}
	if v, _ := s2.DurableVersion(); v != 3 {
		t.Fatalf("DurableVersion = %d, want 3", v)
	}
}

// TestWALGapRefusesRecovery: a checkpoint at version 0 with a WAL resuming at
// version 2 means version 1 was acknowledged and lost; recovery must refuse.
func TestWALGapRefusesRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 2)
	if _, err := snapshot.Write(fsx.OS(), dir, gs[0]); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := wal.Open(filepath.Join(dir, walName), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(2, []*graph.Delta{ds[1]}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("gap recovery error = %v", err)
	}
}

// TestWALWithoutCheckpointRefusesRecovery: WAL records with no checkpoint at
// all cannot be replayed onto anything.
func TestWALWithoutCheckpointRefusesRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, ds := lineage(t, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := wal.Open(filepath.Join(dir, walName), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(1, []*graph.Delta{ds[0]}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("orphan WAL error = %v", err)
	}
}

// TestAppendFailureDegradesPermanently: a failed WAL sync degrades the store
// — the durable version freezes, and every later append returns the original
// error even after the device "recovers".
func TestAppendFailureDegradesPermanently(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 3)
	fault := fsx.NewFault(fsx.OS())
	s, rec, err := Open(dir, Options{FS: fault, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base != nil {
		t.Fatalf("fresh store recovered %v", rec.Base)
	}
	if err := s.Seed(gs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(gs[1], ds[0]); err != nil {
		t.Fatal(err)
	}
	inj := errors.New("disk detached")
	fault.FailSyncs(inj)
	if err := s.Append(gs[2], ds[1]); !errors.Is(err, inj) {
		t.Fatalf("append during failure = %v, want injected error", err)
	}
	fault.FailSyncs(nil)
	if err := s.Append(gs[2], ds[1]); !errors.Is(err, inj) {
		t.Fatalf("append after recovery = %v, want sticky injected error", err)
	}
	if err := s.Err(); !errors.Is(err, inj) {
		t.Fatalf("Err = %v", err)
	}
	if v, _ := s.DurableVersion(); v != 1 {
		t.Fatalf("DurableVersion = %d, want 1 (frozen at last durable)", v)
	}
	_ = s.Close()
}

// TestFailedRotationKeepsTheWAL: a checkpoint that fails to publish degrades
// the store, but the append that triggered it is acknowledged and its version
// is already in the WAL — so the WAL must not be truncated onto a checkpoint
// that does not exist. Recovery lands on the last acknowledged version.
func TestFailedRotationKeepsTheWAL(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 2)
	fault := fsx.NewFault(fsx.OS())
	// SyncNever: WAL appends do not fsync, so the only sync the injected
	// failure can hit is the checkpoint file's.
	s, _, err := Open(dir, Options{FS: fault, Policy: wal.SyncNever, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(gs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(gs[1], ds[0]); err != nil {
		t.Fatal(err)
	}
	inj := errors.New("disk detached")
	fault.FailSyncs(inj)
	if err := s.Append(gs[2], ds[1]); err != nil {
		t.Fatalf("append whose rotation failed = %v, want nil (the WAL holds it)", err)
	}
	if err := s.Err(); !errors.Is(err, inj) {
		t.Fatalf("Err after failed rotation = %v, want the injected error", err)
	}
	fault.FailSyncs(nil)
	_ = s.Close()

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Base == nil || rec.Base.Version() != 0 || len(rec.Records) != 2 {
		t.Fatalf("recovery after failed rotation = base %v, %d records; want base 0 and versions 1-2",
			rec.Base, len(rec.Records))
	}
	if v, _ := s2.DurableVersion(); v != 2 {
		t.Fatalf("DurableVersion = %d, want 2", v)
	}
}

// TestCrashMidAppendRecoversPrefix kills the "process" partway through a WAL
// append: the torn record is truncated on restart and recovery lands exactly
// on the last acknowledged version.
func TestCrashMidAppendRecoversPrefix(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 2)
	fault := fsx.NewFault(fsx.OS())
	s, _, err := Open(dir, Options{FS: fault, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(gs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(gs[1], ds[0]); err != nil {
		t.Fatal(err)
	}
	// Let 5 more bytes through: the next append tears mid-record.
	fault.CrashAfter(fault.BytesWritten() + 5)
	if err := s.Append(gs[2], ds[1]); !errors.Is(err, fsx.ErrCrashed) {
		t.Fatalf("crashing append = %v, want ErrCrashed", err)
	}
	_ = s.Close()

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Base.Version() != 0 || len(rec.Records) != 1 || rec.Records[0].Version != 1 {
		t.Fatalf("post-crash recovery = base %v, %d records", rec.Base, len(rec.Records))
	}
	if v, _ := s2.DurableVersion(); v != 1 {
		t.Fatalf("DurableVersion = %d, want 1", v)
	}
}

// TestAppendValidation: appends to an unseeded store fail, and version gaps
// are rejected without degrading the store.
func TestAppendValidation(t *testing.T) {
	t.Parallel()
	gs, ds := lineage(t, 3)

	s, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(gs[1], ds[0]); err == nil || !strings.Contains(err.Error(), "unseeded") {
		t.Fatalf("unseeded append = %v", err)
	}
	_ = s.Close()

	s2, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Seed(gs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Seed(gs[0]); err == nil {
		t.Fatal("double seed accepted")
	}
	if err := s2.Append(gs[2], ds[1]); err == nil {
		t.Fatal("version gap accepted")
	}
	// The gap was a caller bug, not a failure: the correct append still works.
	if err := s2.Append(gs[1], ds[0]); err != nil {
		t.Fatalf("append after rejected gap: %v", err)
	}
}

// TestExplicitCheckpointRotates: the clean-shutdown path — Checkpoint at the
// current version truncates the WAL so the next boot replays nothing.
func TestExplicitCheckpointRotates(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gs, ds := lineage(t, 4)
	s := seedAndAppend(t, dir, Options{CheckpointEvery: -1}, gs, ds)
	if err := s.Checkpoint(gs[3]); err == nil {
		t.Fatal("checkpoint of stale version accepted")
	}
	if err := s.Checkpoint(gs[4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Base.Version() != 4 || len(rec.Records) != 0 {
		t.Fatalf("post-checkpoint recovery = base %d, %d records", rec.Base.Version(), len(rec.Records))
	}
}
