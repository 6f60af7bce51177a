package divtopk

import (
	"errors"

	"divtopk/internal/graph"
)

// DurabilitySink receives every delta a Matcher applies, after the new
// snapshot (graph + advanced index) is fully built but before it is
// published to queries. A sink that returns nil promises the delta survives
// a crash; a sink error aborts the update — the session keeps serving the
// old snapshot, so the served state never runs ahead of the durable state.
// The serving layer's WAL-backed store is the one implementation; tests use
// in-memory fakes.
type DurabilitySink interface {
	// AppendBatch persists the deltas of one commit — one for
	// UpdateWithStats, the group for UpdateMerged: g is the snapshot the
	// whole batch produced, so ds[i] carries version
	// g.Version()-len(ds)+1+i. The sink must persist all of ds or none of it
	// under one synchronization point — recovery then replays the
	// per-request chain exactly as the acks described it, and a crash can
	// only lose a suffix of whole batches, never a batch's middle.
	AppendBatch(g *Graph, ds []*Delta) error
}

// ErrDurabilityUnavailable wraps a DurabilitySink failure during a commit: the
// delta could not be made durable, so it was not applied. The session keeps
// answering queries at its current (fully durable) version; the serving
// layer maps this to a 503, not a 400 — retrying cannot help until the
// underlying store recovers, which for the WAL store means a restart. Match
// it with errors.Is.
var ErrDurabilityUnavailable = errors.New("divtopk: durability unavailable, update not applied")

// SetDurability installs (or, with nil, removes) the session's durability
// sink. Install it before the session starts accepting updates: the sink
// only sees deltas applied after this call, so attaching it to a session
// that already diverged from the sink's state violates the sink's version
// contiguity. The serving layer attaches the store right after replaying its
// recovered WAL tail through UpdateWithStats — at that point both sides
// agree.
func (m *Matcher) SetDurability(s DurabilitySink) {
	m.updateMu.Lock()
	defer m.updateMu.Unlock()
	m.durability = s
}

// WrapGraph wraps an internal *graph.Graph (as produced by sibling packages
// inside this module — the durability store's recovery) into the public
// facade type. The dynamic type of v must be *graph.Graph; see Graph.Unwrap.
func WrapGraph(v any) *Graph { return &Graph{g: v.(*graph.Graph)} }

// WrapDelta wraps an internal *graph.Delta (a recovered WAL record) into the
// public facade type; see Delta.Unwrap.
func WrapDelta(v any) *Delta { return &Delta{d: *v.(*graph.Delta)} }

// Unwrap exposes the internal delta to sibling packages inside this module
// (the serving layer's durability adapter); external users have no use for
// it.
func (d *Delta) Unwrap() any { return &d.d }
