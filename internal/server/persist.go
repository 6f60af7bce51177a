package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"divtopk"
	"divtopk/internal/durable"
	"divtopk/internal/fsx"
	"divtopk/internal/graph"
	"divtopk/internal/wal"
)

// PersistOptions configures a persistent registry: every registered graph
// gets its own durability store (delta WAL + CSR checkpoints) in a
// subdirectory of Dir named after the graph, and boot recovers every graph
// found there.
type PersistOptions struct {
	// Dir is the data directory; one subdirectory per graph.
	Dir string
	// Policy is the WAL fsync policy (default wal.SyncAlways).
	Policy wal.SyncPolicy
	// Interval is the wal.SyncInterval flush interval.
	Interval time.Duration
	// CheckpointEvery rotates a graph's WAL into a fresh checkpoint after
	// this many updates (0 = durable.DefaultCheckpointEvery, negative =
	// explicit checkpoints only).
	CheckpointEvery int
	// FS overrides the filesystem (default fsx.OS()); the crash-recovery
	// tests inject faults through it.
	FS fsx.FS
}

// storeSink adapts a durable.Store to the library's DurabilitySink: the
// matcher hands over facade types, the store wants the internal ones.
type storeSink struct{ store *durable.Store }

func (s storeSink) AppendBatch(g *divtopk.Graph, ds []*divtopk.Delta) error {
	raw := make([]*graph.Delta, len(ds))
	for i, d := range ds {
		raw[i] = d.Unwrap().(*graph.Delta)
	}
	return s.store.AppendBatch(g.Unwrap().(*graph.Graph), raw)
}

// graphName constrains persistent graph names to characters safe to use as a
// directory name: no separators, no leading dot, bounded length.
var graphName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

// NewPersistentRegistry returns a registry whose graphs survive restarts:
// each Add seeds a durability store under p.Dir/<name> and attaches it to
// the session, and this constructor recovers every graph a previous process
// left there — newest valid checkpoint plus the WAL tail, replayed through
// Matcher.UpdateWithStats, the commit path that produced the records, so a
// recovered session (graph, advanced index, version) is indistinguishable
// from one that never crashed. Recovery is all-or-nothing per process: a
// graph whose acknowledged updates cannot be reconstructed fails the boot
// rather than silently serving less than was acknowledged.
func NewPersistentRegistry(p PersistOptions, opts ...divtopk.Option) (*Registry, error) {
	if p.FS == nil {
		p.FS = fsx.OS()
	}
	r := NewRegistry(opts...)
	r.persist = &p
	r.stores = make(map[string]*durable.Store)
	if err := p.FS.MkdirAll(p.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	entries, err := p.FS.ReadDir(p.Dir)
	if err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !graphName.MatchString(e.Name()) {
			return nil, fmt.Errorf("server: data dir holds unexpected entry %q", e.Name())
		}
		if err := r.recoverGraph(e.Name()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// durableOptions maps the registry's persistence config to store options.
func (r *Registry) durableOptions() durable.Options {
	return durable.Options{
		FS:              r.persist.FS,
		Policy:          r.persist.Policy,
		Interval:        r.persist.Interval,
		CheckpointEvery: r.persist.CheckpointEvery,
	}
}

// recoverGraph rebuilds one graph's session from its store directory and
// registers it. An unseeded store (the process died between creating the
// directory and publishing the first checkpoint — nothing was ever
// acknowledged) is left for a future Add of the same name to claim.
func (r *Registry) recoverGraph(name string) error {
	store, rec, err := durable.Open(filepath.Join(r.persist.Dir, name), r.durableOptions())
	if err != nil {
		return fmt.Errorf("server: recovering graph %q: %w", name, err)
	}
	if rec.Base == nil {
		return store.Close()
	}
	// Replay through the exact serving path: NewMatcher warms the base
	// snapshot's index, and each WAL record advances it the same way the
	// original update did. No durability sink is attached yet, so the replay
	// does not re-append its own records.
	m := divtopk.NewMatcher(divtopk.WrapGraph(rec.Base), r.opts...)
	for _, record := range rec.Records {
		g2, _, err := m.UpdateWithStats(divtopk.WrapDelta(record.Delta))
		if err != nil {
			_ = store.Close()
			return fmt.Errorf("server: replaying graph %q version %d: %w", name, record.Version, err)
		}
		if g2.Version() != record.Version {
			_ = store.Close()
			return fmt.Errorf("server: replaying graph %q: replay produced version %d for record %d", name, g2.Version(), record.Version)
		}
	}
	m.SetDurability(storeSink{store})
	r.mu.Lock()
	r.sessions[name] = m
	r.stores[name] = store
	r.mu.Unlock()
	return nil
}

// makeDurable attaches a freshly seeded durability store to a new session.
// Called by Add while the name is reserved; a no-op for in-memory
// registries.
func (r *Registry) makeDurable(name string, m *divtopk.Matcher, g *divtopk.Graph) (*durable.Store, error) {
	if r.persist == nil {
		return nil, nil
	}
	if !graphName.MatchString(name) {
		return nil, fmt.Errorf("server: graph name %q is not usable as a directory name", name)
	}
	store, rec, err := durable.Open(filepath.Join(r.persist.Dir, name), r.durableOptions())
	if err != nil {
		return nil, fmt.Errorf("server: graph %q: %w", name, err)
	}
	if rec.Base != nil {
		// The store already holds a recovered-but-unregistered graph only if
		// boot skipped it, which it never does; this is a concurrent process
		// or a caller bug.
		_ = store.Close()
		return nil, fmt.Errorf("server: graph %q already has durable state at version %d", name, rec.Base.Version())
	}
	if err := store.Seed(g.Unwrap().(*graph.Graph)); err != nil {
		_ = store.Close()
		return nil, fmt.Errorf("server: graph %q: %w", name, err)
	}
	m.SetDurability(storeSink{store})
	return store, nil
}

// Close shuts the registry's durability down cleanly: every healthy graph
// gets a final checkpoint at its served version (so the next boot replays
// nothing) and its WAL closed. Degraded stores are closed without a
// checkpoint — their durable state is already behind the served state, and
// the recorded failure explains why. Safe on in-memory registries (no-op).
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for name, store := range r.stores {
		m := r.sessions[name]
		if store.Err() == nil && m != nil {
			if err := store.Checkpoint(m.Graph().Unwrap().(*graph.Graph)); err != nil {
				errs = append(errs, fmt.Errorf("graph %q: %w", name, err))
			}
		}
		if err := store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("graph %q: %w", name, err))
		}
	}
	clear(r.stores)
	return errors.Join(errs...)
}

// GraphHealth is one graph's entry in the readiness report.
type GraphHealth struct {
	Name string `json:"name"`
	// ServedVersion is the snapshot queries are answered from.
	ServedVersion uint64 `json:"served_version"`
	// DurableVersion is the newest version that survives a crash. Equal to
	// ServedVersion on a healthy persistent graph; absent for in-memory
	// registries.
	DurableVersion *uint64 `json:"durable_version,omitempty"`
	// Degraded reports a persistent graph whose durability failed: reads
	// keep serving, updates are rejected until a restart.
	Degraded bool `json:"degraded,omitempty"`
	// Error is the failure that degraded the graph.
	Error string `json:"error,omitempty"`
	// Cache is the session result-cache snapshot, including the warm-cache
	// counters (advanced / advance_evicted / carried / reevaluated); absent
	// for a session without a cache.
	Cache *divtopk.CacheStats `json:"cache,omitempty"`
}

// Health is the GET /healthz readiness report.
type Health struct {
	// Status is "ok", or "degraded" when any graph's durability failed.
	Status string `json:"status"`
	Graphs int    `json:"graphs"`
	// Persistent reports whether the registry carries durable state; Fsync
	// is its WAL sync policy.
	Persistent  bool          `json:"persistent"`
	Fsync       string        `json:"fsync,omitempty"`
	GraphStatus []GraphHealth `json:"graph_status,omitempty"`
}

// Health reports the registry's readiness: per graph, the version being
// served versus the version that is durable, and whether durability has
// degraded.
func (r *Registry) Health() Health {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h := Health{Status: "ok", Graphs: len(r.sessions), Persistent: r.persist != nil}
	if r.persist != nil {
		h.Fsync = r.persist.Policy.String()
	}
	for name, m := range r.sessions {
		gh := GraphHealth{Name: name, ServedVersion: m.Graph().Version()}
		if cs := m.CacheStats(); cs != (divtopk.CacheStats{}) {
			gh.Cache = &cs
		}
		if store, ok := r.stores[name]; ok {
			dv, _ := store.DurableVersion()
			gh.DurableVersion = &dv
			if err := store.Err(); err != nil {
				gh.Degraded = true
				gh.Error = err.Error()
				h.Status = "degraded"
			}
		}
		h.GraphStatus = append(h.GraphStatus, gh)
	}
	sort.Slice(h.GraphStatus, func(i, j int) bool { return h.GraphStatus[i].Name < h.GraphStatus[j].Name })
	return h
}
