// Package durable composes the delta WAL (internal/wal) and CSR checkpoints
// (internal/snapshot) into one per-graph durability store with a simple
// contract: after AppendBatch(g, ds) returns nil, version g.Version() survives a
// crash; recovery hands back the newest valid checkpoint plus the WAL tail so
// the caller can replay it through the same update path that produced it.
//
// Layout of a store directory:
//
//	checkpoint-<version>.ckpt   full CSR snapshots (newest wins)
//	wal.log                     deltas appended since the newest checkpoint
//
// The checkpoint-then-truncate rotation is deliberately not atomic across the
// two files: the checkpoint is published first (atomic rename), then the WAL
// is truncated. A crash between the two leaves WAL records at or below the
// checkpoint's version, which recovery skips by version comparison.
//
// Failure discipline: the first failed append or rotation degrades the store
// permanently — AppendBatch returns the original error from then on, the caller
// keeps serving reads at the last durable version, and a restart (which
// re-runs recovery, truncating any torn WAL tail) is the only way back. A
// half-written record makes the file unappendable anyway; refusing early
// keeps the failure mode crisp instead of depending on which bytes hit disk.
package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"divtopk/internal/fsx"
	"divtopk/internal/graph"
	"divtopk/internal/snapshot"
	"divtopk/internal/wal"
)

// walName is the WAL file name within a store directory.
const walName = "wal.log"

// DefaultCheckpointEvery is the default number of appended deltas between
// automatic checkpoint rotations.
const DefaultCheckpointEvery = 64

// Options configures a Store.
type Options struct {
	// FS is the filesystem to operate on. Defaults to fsx.OS().
	FS fsx.FS
	// Policy is the WAL fsync policy. Defaults to wal.SyncAlways.
	Policy wal.SyncPolicy
	// Interval is the wal.SyncInterval flush interval.
	Interval time.Duration
	// CheckpointEvery rotates the WAL into a fresh checkpoint after this many
	// appended deltas. 0 means DefaultCheckpointEvery; negative disables
	// automatic rotation (explicit Checkpoint calls only).
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = fsx.OS()
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

// Recovered is what Open found on disk: the base snapshot (nil for an empty
// store) and the WAL records strictly newer than it, in replay order.
type Recovered struct {
	Base    *graph.Graph
	Records []wal.Record
}

// Store is the durability sink of one graph lineage. All methods are safe
// for concurrent use, though the matcher's update lock already serializes
// AppendBatch calls in practice.
type Store struct {
	dir  string
	fs   fsx.FS
	opts Options

	mu         sync.Mutex
	log        *wal.Log
	durableVer uint64
	seeded     bool // a checkpoint exists; appends are allowed
	sinceCkpt  int
	failedErr  error // first failure; sticky until restart
}

// Open recovers the store in dir, creating the directory if needed. The
// returned Recovered carries the newest valid checkpoint and the WAL tail to
// replay on top of it; a fresh store has a nil Base, and the caller must Seed
// the initial snapshot before appending. WAL records at or below the
// checkpoint version (the rotation crash window) are skipped; a gap between
// the checkpoint and the first newer record, or WAL records with no
// checkpoint at all, means acknowledged updates are unrecoverable and Open
// refuses rather than silently dropping them.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	base, err := snapshot.Load(opts.FS, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	log, records, _, err := wal.Open(filepath.Join(dir, walName), wal.Options{
		Policy:   opts.Policy,
		Interval: opts.Interval,
		FS:       opts.FS,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, fs: opts.FS, opts: opts, log: log}
	if base == nil {
		if len(records) > 0 {
			_ = log.Close()
			return nil, nil, fmt.Errorf("durable: %s holds %d WAL records but no checkpoint; refusing to drop acknowledged updates", dir, len(records))
		}
		return s, &Recovered{}, nil
	}
	// Drop rotation-window records the checkpoint already covers.
	tail := records
	for len(tail) > 0 && tail[0].Version <= base.Version() {
		tail = tail[1:]
	}
	if len(tail) > 0 && tail[0].Version != base.Version()+1 {
		_ = log.Close()
		return nil, nil, fmt.Errorf("durable: %s WAL resumes at version %d but checkpoint holds %d; intermediate updates are unrecoverable",
			dir, tail[0].Version, base.Version())
	}
	s.seeded = true
	s.durableVer = base.Version()
	if len(tail) > 0 {
		s.durableVer = tail[len(tail)-1].Version
		s.sinceCkpt = len(tail)
	}
	return s, &Recovered{Base: base, Records: tail}, nil
}

// Seed publishes the initial checkpoint of a fresh store. It must be called
// exactly once, before the first append, when Open recovered nothing.
func (s *Store) Seed(g *graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seeded {
		return fmt.Errorf("durable: %s is already seeded", s.dir)
	}
	if err := s.fail(s.checkpointLocked(g)); err != nil {
		return err
	}
	s.seeded = true
	s.durableVer = g.Version()
	return nil
}

// Append makes version g.Version() durable: the one-record AppendBatch of d,
// the delta that produced g. It stays because the tracked benchmark's
// per-layer trace calls it.
func (s *Store) Append(g *graph.Graph, d *graph.Delta) error {
	return s.AppendBatch(g, []*graph.Delta{d})
}

// AppendBatch makes the versions of one group commit durable: ds are the
// per-request deltas whose merged application produced g, so ds[i] carries
// version g.Version()-len(ds)+1+i. All records land in the WAL under a
// single sync point — recovery replays them one at a time through the same
// path as singly appended records. The rotation policy counts each record.
func (s *Store) AppendBatch(g *graph.Graph, ds []*graph.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failedErr != nil {
		return s.failedErr
	}
	if !s.seeded {
		return s.fail(fmt.Errorf("durable: batch append to unseeded store %s", s.dir))
	}
	k := uint64(len(ds))
	if k == 0 {
		return nil
	}
	if g.Version() != s.durableVer+k {
		// A version gap is a caller bug, not a device failure; the store
		// stays usable for the correct next version.
		return fmt.Errorf("durable: batch of %d ending at version %d, want %d", k, g.Version(), s.durableVer+k)
	}
	if err := s.log.AppendBatch(s.durableVer+1, ds); err != nil {
		return s.fail(err)
	}
	s.durableVer = g.Version()
	s.sinceCkpt += int(k)
	if s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery {
		// The batch above already made these versions durable; a failed
		// rotation only degrades future appends.
		_ = s.fail(s.checkpointLocked(g))
	}
	return nil
}

// Checkpoint rotates the store onto a checkpoint of g immediately: snapshot
// published, WAL truncated, older checkpoints garbage-collected. g must be
// the graph of the store's current durable version.
func (s *Store) Checkpoint(g *graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failedErr != nil {
		return s.failedErr
	}
	if !s.seeded {
		return fmt.Errorf("durable: checkpoint of unseeded store %s", s.dir)
	}
	if g.Version() != s.durableVer {
		return fmt.Errorf("durable: checkpoint of version %d, durable version is %d", g.Version(), s.durableVer)
	}
	return s.fail(s.checkpointLocked(g))
}

// checkpointLocked publishes a checkpoint of g and truncates the WAL. A
// crash between the two steps leaves WAL records the checkpoint covers,
// which the next Open skips by version.
func (s *Store) checkpointLocked(g *graph.Graph) error {
	if _, err := snapshot.Write(s.fs, s.dir, g); err != nil {
		return err
	}
	if err := s.log.Reset(); err != nil {
		return fmt.Errorf("durable: truncate WAL after checkpoint: %w", err)
	}
	s.sinceCkpt = 0
	// Old checkpoints are redundant once the new one is durable; a failed
	// removal is retried by the next rotation.
	_ = snapshot.GC(s.fs, s.dir, g.Version())
	return nil
}

// fail records the first error as the store's permanent failure state.
func (s *Store) fail(err error) error {
	if err != nil && s.failedErr == nil {
		s.failedErr = err
	}
	return err
}

// DurableVersion returns the newest version that survives a crash, and
// whether the store holds any version at all.
func (s *Store) DurableVersion() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableVer, s.seeded
}

// Err returns the error that degraded the store, or nil while it is healthy.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failedErr
}

// Policy returns the store's WAL fsync policy.
func (s *Store) Policy() wal.SyncPolicy { return s.opts.Policy }

// Close flushes and closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.log.Close()
	if s.failedErr == nil {
		s.failedErr = errors.New("durable: store is closed")
	}
	return err
}
