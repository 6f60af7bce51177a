// Package server implements the query-serving subsystem behind cmd/divtopkd:
// a registry of named, warmed Matcher sessions; an HTTP JSON API with
// per-request timeouts, a k cap and structured errors; and the
// admission machinery — a bounded worker pool in front of each session's
// result cache (LRU + singleflight) — that lets one daemon serve heavy
// repeated traffic at one engine evaluation per distinct query. Because
// every engine in the module is deterministic, a cached response is
// byte-identical to a freshly evaluated one.
package server

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"divtopk"
	"divtopk/internal/durable"
)

// GraphInfo describes one registered graph for /v1/graphs.
type GraphInfo struct {
	Name    string             `json:"name"`
	Version uint64             `json:"version"`
	Nodes   int                `json:"nodes"`
	Edges   int                `json:"edges"`
	Cache   divtopk.CacheStats `json:"cache"`
}

// Registry holds the named query sessions a server exposes. Sessions are
// warmed at registration (NewMatcher builds the full bound index), so a
// registered graph serves concurrent queries immediately. Safe for
// concurrent use; graphs can be added at runtime but sessions are never
// replaced — a graph evolves in place through the Matcher's commits, whose
// versioned cache keys keep every cached result tied to the snapshot that
// produced it.
type Registry struct {
	opts []divtopk.Option
	// persist, when non-nil, makes every graph durable: Add seeds a WAL +
	// checkpoint store under persist.Dir/<name> and attaches it to the
	// session (see NewPersistentRegistry).
	persist *PersistOptions

	mu       sync.RWMutex
	sessions map[string]*divtopk.Matcher
	stores   map[string]*durable.Store // per-graph durability, persistent mode only
	pending  map[string]struct{}       // names reserved while their session warms
}

// NewRegistry returns an empty registry. opts become the session defaults
// of every registered graph — in the daemon that is WithCache.
func NewRegistry(opts ...divtopk.Option) *Registry {
	return &Registry{
		opts:     opts,
		sessions: make(map[string]*divtopk.Matcher),
		pending:  make(map[string]struct{}),
	}
}

// Add warms a session over g and registers it under name. It fails on an
// empty name or a duplicate. The name is reserved before the warm, so a
// concurrent duplicate registration fails immediately instead of paying a
// full index build first.
func (r *Registry) Add(name string, g *divtopk.Graph) error {
	if name == "" {
		return fmt.Errorf("server: graph name must be non-empty")
	}
	r.mu.Lock()
	if _, dup := r.sessions[name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("server: graph %q already registered", name)
	}
	if _, dup := r.pending[name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("server: graph %q is already being registered", name)
	}
	r.pending[name] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, name)
		r.mu.Unlock()
	}()
	// Warm outside the lock: index construction is the expensive part and
	// must not block serving traffic on other graphs.
	m := newMatcher(g, r.opts...)
	// In persistent mode the graph is durable before it is queryable: the
	// store seeds an initial checkpoint (version 0 survives a crash from
	// here on) and every future update goes through the WAL.
	store, err := r.makeDurable(name, m, g)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.sessions[name] = m
	if store != nil {
		r.stores[name] = store
	}
	r.mu.Unlock()
	return nil
}

// newMatcher is Add's warm, a variable so that a test can park it and check
// that Add runs it without holding r.mu.
var newMatcher = divtopk.NewMatcher

// LoadFile reads a graph in the text format from path and registers it.
func (r *Registry) LoadFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("server: graph %q: %w", name, err)
	}
	defer f.Close()
	g, err := divtopk.ReadGraph(f)
	if err != nil {
		return fmt.Errorf("server: graph %q (%s): %w", name, path, err)
	}
	return r.Add(name, g)
}

// Get returns the session registered under name.
func (r *Registry) Get(name string) (*divtopk.Matcher, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.sessions[name]
	return m, ok
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// List describes every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(r.sessions))
	for name, m := range r.sessions {
		g := m.Graph()
		out = append(out, GraphInfo{
			Name:    name,
			Version: g.Version(),
			Nodes:   g.NumNodes(),
			Edges:   g.NumEdges(),
			Cache:   m.CacheStats(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
