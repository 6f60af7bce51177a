// Package divtopk is a Go implementation of "Diversified Top-k Graph
// Pattern Matching" (Fan, Wang, Wu — PVLDB 6(13), 2013).
//
// It implements graph pattern matching by graph simulation with a
// designated output node, and answers two query classes over large directed
// labeled graphs:
//
//   - Top-k matching (TopK): the k matches of the output node with the
//     highest relevance δr (the size of their relevant set — the set of
//     matches they can reach through the pattern). The paper's TopK stops
//     as soon as the answer is provably correct; here it never stops before
//     Match would, so TopK runs Match and cuts at k (see below).
//
//   - Diversified top-k matching (TopKDiversified): the k-set maximizing
//     the bi-criteria function F(S) = (1−λ)·Σ δ'r + 2λ/(k−1)·Σ δd that
//     balances relevance against pairwise Jaccard distance of relevant
//     sets. The problem is NP-complete; the library ships the paper's
//     2-approximation (TopKDiv) and its early-termination heuristic
//     (TopKDH).
//
// # Quickstart
//
//	b := divtopk.NewGraphBuilder()
//	alice := b.AddNode("PM")
//	bob := b.AddNode("DB")
//	_ = b.AddEdge(alice, bob)
//	g := b.Build()
//
//	pb := divtopk.NewPatternBuilder()
//	pm := pb.AddNode("PM")
//	db := pb.AddNode("DB")
//	_ = pb.AddEdge(pm, db)
//	pb.Output(pm)
//	q, _ := pb.Build()
//
//	res, _ := divtopk.TopK(g, q, 10)
//	for _, m := range res.Matches {
//		fmt.Println(m.Node, m.Relevance)
//	}
//
// # Sessions and concurrency
//
// A Matcher is a reusable, concurrency-safe query session: it warms the
// graph's descendant-label bound index once at construction and then serves
// any number of concurrent queries from any number of goroutines:
//
//	m := divtopk.NewMatcher(g)
//	res, _ := m.TopK(q, 10)
//
// Each query and each commit runs on its caller's goroutine, like the
// paper's four algorithms, which are sequential: work spreads across cores
// only by running several requests at once (the daemon's request pool and
// group-commit coalescer). The Parallelism option is ignored and stays only
// for callers that still pass it.
//
// The query surface is the paper's algorithms and nothing else: TopK runs
// the find-all Match (§4) cut at k (WithBaseline is ignored); TopKDiversified
// runs the heuristic TopKDH (§5.2) and, WithApproximation, the
// 2-approximation TopKDiv (§5.1). The early-termination TopK (§4.1) examines
// every match on mined patterns and costs more than Match, whose answer is
// exact and canonical: its engine serves TopKDH only, and internal/bench
// reproduces it with the §6 baselines (random leaf order, other bounds).
//
// # Serving
//
// WithCache equips a Matcher with a result cache (LRU keyed by a canonical
// query fingerprint, singleflight admission), and cmd/divtopkd builds the
// full serving layer on top: named graphs behind an HTTP JSON API with
// per-request timeouts, a k cap and structured errors. Because
// the engines are deterministic, a cached response is byte-identical to a
// fresh evaluation. See internal/server and the README's "Serving"
// section.
//
// # Dynamic graphs
//
// Graphs are immutable snapshots; dynamic workloads advance through
// deltas. A Delta batches node appends, edge inserts and edge deletes;
// ApplyDelta derives the next snapshot in one merge pass over the old
// adjacency and bumps its Version. Matcher.UpdateWithStats applies a delta
// to a live session: the previous snapshot's bound index is advanced off to
// the side and swapped in atomically with the graph, and because the
// snapshot version participates in every cache key, a result cached before
// an update can never be served after it (hot entries are advanced to the new
// version at commit time — see the Warm cache section). TopKInfo and
// TopKDiversifiedInfo report the snapshot version (and cache provenance)
// behind each answer; the serving layer exposes updates as
// POST /v1/graphs/{name}/updates and echoes the version in every response.
//
// Concurrent updates group-commit: Delta.Merge combines deltas sharing one
// base snapshot (deletes before inserts, duplicate inserts collapse,
// insert-then-delete cancels), Matcher.UpdateMerged applies the merged
// delta in one maintenance pass while stepping the version once per
// constituent, and the serving layer's per-graph coalescer queues
// overlapping POSTs into such batches — each caller acknowledged with its
// own version, durability logging the per-request deltas so WAL contiguity
// survives. Edge endpoints in the wire protocol may name a request's own
// appended nodes with negative self-references (-1 is the first), and the
// response's first_node field reports where the appends landed.
//
// The descendant-label bound index is versioned derived state rather than a
// per-snapshot rebuild: its rows are a pure function of the snapshot's
// cached SCC condensation and the member labels, so the advance diffs the
// two condensations and recomputes, per label, only the frontier rows the
// delta's touch points reach — a per-node frontier propagated from
// membership changes, ancestor closures of successor-set changes, and
// cyclicity flips, masked against each label's reachability — copying
// every unaffected row, and falling back to a full rebuild of the warmed
// labels once the recomputed share passes a quarter of the index. A
// mismatched snapshot version is a hard error; the fresh-warm path remains
// the correctness oracle, enforced by randomized delta-chain fuzz for both
// count modes. Matcher.UpdateWithStats (and the daemon's "index" response
// object) reports the maintenance mode, batch width, affected share,
// frontier size and wall time of every update. For callers maintaining one
// standing (graph, pattern) evaluation across deltas, the engine layer
// offers
// internal/simulation.IncCompute: it maintains the simulation fixpoint and
// product CSR incrementally over the delta's affected area — expanding its
// revival closure with the same append-order worklist as the index
// advance's component closures, and returning ErrIncFallback past its
// ratio where the index rebuilds — with
// the tracked benchmark's
// simulation.inc_* and core.bounds_* layers timing both. See the README's
// "Dynamic graphs" section.
//
// # Warm cache
//
// On a caching session the commit path does not merely orphan the old
// version's cache entries — it advances the hot ones. Each cached pattern
// retains its incremental evaluation state (the IncCompute simulation state
// and product CSR); after the delta is durable and before the new snapshot
// is published, the commit advances that state and installs the pattern's
// cached results under the new version's keys, so the first post-commit
// query is a hit that reports provenance "advanced"
// (TopKInfo/TopKDiversifiedInfo, and the daemon's "cache" response field)
// rather than a cold evaluation. The pass re-runs only what the delta can
// have changed. A find-all answer (top-k and TopKDiv) depends only on the
// pattern's output region — the candidates of the output node and of the
// query nodes it reaches, the liveness of every pair, and the live product
// the live output pairs reach — and IncCompute, walking the affected area
// anyway, reports whether the delta reached it; when it did not (most
// states, simulation being local) the answer is carried over unevaluated.
// TopKDH (the one early-termination algorithm served) also depends on its
// feed over the whole candidate space and on the output node's bound
// vector, so it is carried only when the delta reached no candidate pair
// at all and the vector stood still. The find-all shapes that do re-run on
// a state compute its find-all pool once for all of them. An answer
// that sixteen commits in a row installed and nobody read is carried while
// that is free and forgotten by the first commit that would have to
// evaluate it: the writer waits for answers in use, not for every query
// ever asked. IndexStats' Warm fields (and the daemon's update responses)
// report the split per commit, CacheStats cumulatively. Once a delta's affected share of a
// pattern's product passes a quarter the pass evicts instead — the
// threshold trades commit latency against post-commit query latency and
// never changes answers. All of it is one evaluation path: every query
// route resolves into one query value and one evaluate function, and
// "cold" and "advanced" only name where that function's stage inputs
// (candidates, product, fixpoint, find-all pool) came from. A pattern
// state enters the registry by a cold build when a miss admits it and
// leaves it by eviction. CacheStats counts advanced, advance-evicted,
// carried and re-evaluated entries; randomized delta-chain fuzzes pin every
// warm answer byte-identical to a never-cached session at every version.
// See the README's "Warm cache" section.
//
// # Durability
//
// A Matcher session can be made durable by attaching a DurabilitySink
// (SetDurability): inside a commit, the delta is handed to the sink after the
// new snapshot and its advanced index are built but before they are
// published, so the served state never runs ahead of what is persisted; a
// sink failure returns ErrDurabilityUnavailable and leaves the session on
// its previous snapshot. The serving layer supplies the production sink —
// internal/durable composes a delta write-ahead log (internal/wal,
// CRC-framed binary records, fsync policies, torn-tail recovery) with flat
// binary CSR checkpoints (internal/snapshot, atomic publish) and rotates
// the log into a checkpoint periodically — and server.NewPersistentRegistry
// recovers every graph on boot by loading the newest valid checkpoint and
// replaying the WAL tail through UpdateWithStats. cmd/divtopkd
// enables it with -data-dir/-fsync/-checkpoint-every; the daemon model
// (internal/server FuzzDaemonHistory) crashes it at random byte offsets of
// its writes (internal/fsx) and checks the recovered answers byte for byte
// against the graph rebuilt from the acknowledged updates. See the README's
// "Durability" section.
//
// # Performance
//
// Every per-query hot path runs over a materialized product-graph CSR
// (internal/simulation.Product): the candidate product graph is built once
// per query and shared by simulation refinement, relevant-set computation
// (SCC condensation of the region the output's matches reach, one sweep in
// reverse topological order, working bitsets recycled in a bitset.Slab) and
// the incremental engine's propagation. The pre-CSR kernel is retained, frozen,
// as a test oracle (internal/simulation/reference.go, internal/oracle):
// determinism tests prove the shipped kernel byte-identical to it, and
// nothing outside tests can select it. End-to-end and per-layer timings
// come from the tracked benchmark (BENCHMARK.json; see benchmark/README.md
// for how to run and read it).
//
// # Concurrency invariants
//
// The tests check every answer as a function of (G, Q) alone, which is what
// catches the bugs that change one. Two bug classes leave every answer right.
// A torn snapshot/version pair is not expressible: the warm result cache has
// no path to the session's published snapshot, so a query loads it once in
// Matcher.run and its cache key and evaluation read the same one. Heavy work
// under a lock — a bound-index label fill under BoundsCache.mu, a pattern
// state build under the warm registry's lock, a session warm under the
// server registry's lock — fails a liveness test per lock, which parks the
// build and checks that the lock stays free and a reader completes.
//
// The module builds and tests with the standard toolchain:
//
//	go build ./... && go test ./...
//
// See the examples/ directory for runnable end-to-end scenarios, README.md
// for an overview and the architecture, and internal/bench for the
// reproduction of the paper's evaluation as tests (go test ./internal/bench
// -v; make paper adds the wall-clock claims).
package divtopk
