package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"divtopk"
)

// Config bounds what one request may cost. The zero value of any field
// selects the default noted on it.
type Config struct {
	// MaxK caps the requested k (default 1000).
	MaxK int
	// DefaultTimeout applies when a request carries no timeout_ms (default
	// 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout (default 60s).
	MaxTimeout time.Duration
	// MaxConcurrent bounds the evaluation worker pool (default
	// 2·runtime.NumCPU()). Requests beyond it queue until a slot frees or
	// their timeout fires.
	MaxConcurrent int
	// MaxQueryBytes and MaxGraphBytes cap request bodies (defaults 1 MiB
	// and 256 MiB).
	MaxQueryBytes int64
	MaxGraphBytes int64
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.NumCPU()
	}
	if c.MaxQueryBytes <= 0 {
		c.MaxQueryBytes = 1 << 20
	}
	if c.MaxGraphBytes <= 0 {
		c.MaxGraphBytes = 256 << 20
	}
	return c
}

// Server is the HTTP query-serving front end over a Registry.
type Server struct {
	reg *Registry
	cfg Config
	sem chan struct{}

	mu   sync.Mutex
	coal map[string]*coalescer // per-graph group-commit queues
}

// New returns a server over reg with cfg's limits (zero fields defaulted).
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		reg:  reg,
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		coal: make(map[string]*coalescer),
	}
}

// Handler returns the API routes:
//
//	GET  /healthz                   — readiness: per-graph served vs durable version
//	GET  /v1/graphs                 — registered graphs with cache statistics
//	POST /v1/graphs                 — register a graph at runtime
//	POST /v1/graphs/{name}/updates  — apply a delta to a registered graph
//	POST /v1/query                  — top-k query
//	POST /v1/query/diversified      — diversified top-k query
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleAddGraph)
	mux.HandleFunc("POST /v1/graphs/{name}/updates", s.handleUpdate)
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, false)
	})
	mux.HandleFunc("POST /v1/query/diversified", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, true)
	})
	return mux
}

// QueryRequest is the body of POST /v1/query and /v1/query/diversified: the
// paper's four algorithms are /v1/query (TopK, or Match with baseline) and
// /v1/query/diversified (TopKDH, or TopKDiv with approx). A field not listed
// here is a 400, like every unknown field of every request body.
type QueryRequest struct {
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Pattern is the pattern in the text format (output node marked '*').
	Pattern string `json:"pattern"`
	// K is the number of matches requested (1..Config.MaxK).
	K int `json:"k"`
	// Lambda is the diversification balance λ ∈ [0,1] (diversified only).
	Lambda float64 `json:"lambda,omitempty"`
	// Approx selects the 2-approximation TopKDiv (diversified only).
	Approx bool `json:"approx,omitempty"`
	// Baseline selects the find-all baseline engine (top-k only).
	Baseline bool `json:"baseline,omitempty"`
	// TimeoutMS is the per-request budget in milliseconds (0 = server
	// default, capped at Config.MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MatchJSON is one match in a response.
type MatchJSON struct {
	Node        int    `json:"node"`
	Label       string `json:"label"`
	Relevance   int    `json:"relevance"`
	Upper       int    `json:"upper"`
	Exact       bool   `json:"exact"`
	RelevantSet []int  `json:"relevant_set,omitempty"`
}

// StatsJSON mirrors divtopk.Stats.
type StatsJSON struct {
	Candidates      int  `json:"candidates"`
	Examined        int  `json:"examined"`
	Batches         int  `json:"batches"`
	EarlyTerminated bool `json:"early_terminated"`
}

// QueryResponse is the body of a successful POST /v1/query. Version is the
// graph snapshot version the answer was computed against; clients of a
// dynamic graph use it to correlate answers with the updates they applied.
// Cache is the result-cache provenance of the answer — "hit", "miss",
// "advanced" (served from an entry the commit-time advance pass installed)
// or "seeded" (evaluated with containment-seeded candidates) — omitted on a
// session without a cache.
type QueryResponse struct {
	GlobalMatch bool        `json:"global_match"`
	Version     uint64      `json:"version"`
	Cache       string      `json:"cache,omitempty"`
	Matches     []MatchJSON `json:"matches"`
	Stats       StatsJSON   `json:"stats"`
}

// DiversifiedResponse is the body of a successful POST
// /v1/query/diversified; Cache is as on QueryResponse.
type DiversifiedResponse struct {
	GlobalMatch bool        `json:"global_match"`
	Version     uint64      `json:"version"`
	Cache       string      `json:"cache,omitempty"`
	F           float64     `json:"f"`
	Matches     []MatchJSON `json:"matches"`
	Stats       StatsJSON   `json:"stats"`
}

// NewQueryResponse converts a library Result to its wire form. Exported so
// tests and clients can compare a direct Matcher call byte-for-byte with a
// server response. version is the snapshot version the result came from
// (QueryInfo.Version of Matcher.TopKInfo).
func NewQueryResponse(res *divtopk.Result, version uint64) QueryResponse {
	return QueryResponse{
		GlobalMatch: res.GlobalMatch,
		Version:     version,
		Matches:     matchesJSON(res.Matches),
		Stats:       statsJSON(res.Stats),
	}
}

// NewDiversifiedResponse is NewQueryResponse for diversified results.
func NewDiversifiedResponse(res *divtopk.DiversifiedResult, version uint64) DiversifiedResponse {
	return DiversifiedResponse{
		GlobalMatch: res.GlobalMatch,
		Version:     version,
		F:           res.F,
		Matches:     matchesJSON(res.Matches),
		Stats:       statsJSON(res.Stats),
	}
}

func matchesJSON(ms []divtopk.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{
			Node:        m.Node,
			Label:       m.Label,
			Relevance:   m.Relevance,
			Upper:       m.Upper,
			Exact:       m.Exact,
			RelevantSet: m.RelevantSet,
		}
	}
	return out
}

func statsJSON(s divtopk.Stats) StatsJSON {
	return StatsJSON{
		Candidates:      s.Candidates,
		Examined:        s.Examined,
		Batches:         s.Batches,
		EarlyTerminated: s.EarlyTerminated,
	}
}

// ErrorResponse is the structured error body every failing request gets.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code plus a human message.
type ErrorDetail struct {
	// Code is one of: bad_request, bad_pattern, bad_delta, unknown_graph,
	// conflict, body_too_large, timeout, canceled, internal,
	// durability_unavailable, overloaded.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes and their HTTP status.
const (
	codeBadRequest   = "bad_request"
	codeBadPattern   = "bad_pattern"
	codeBadDelta     = "bad_delta"
	codeUnknownGraph = "unknown_graph"
	codeConflict     = "conflict"
	codeBodyTooLarge = "body_too_large"
	codeTimeout      = "timeout"
	codeCanceled     = "canceled"
	codeInternal     = "internal"
	codeDurability   = "durability_unavailable"
	codeOverloaded   = "overloaded"
)

// statusClientClosedRequest is nginx's 499: the client dropped the
// connection before the response was ready (distinct from a 504, where the
// server ran out of budget).
const statusClientClosedRequest = 499

// decodeBody decodes a JSON request body bounded by limit bytes, mapping an
// exceeded limit to 413 body_too_large instead of the generic decode 400:
// "shrink your request" and "fix your request" are different client bugs
// and deserve different stable codes. An unknown field is a 400 too: a
// misspelt "lamda" must not run λ = 0 and answer 200. Returns false after
// writing the error.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"request body exceeds the %d-byte limit", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// writeError emits the structured error body with the given status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeJSON emits a success body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealthz serves the readiness report: overall status, and per graph
// the served versus durable version plus the degraded flag. A degraded
// durability store flips the status but keeps the 200 — the daemon still
// serves reads, and load balancers that only parse the status code must not
// drain a replica that is read-healthy.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Health())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

// AddGraphRequest is the body of POST /v1/graphs.
type AddGraphRequest struct {
	Name string `json:"name"`
	// Graph is the graph in the text format of cmd/graphgen.
	Graph string `json:"graph"`
}

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var req AddGraphRequest
	if !decodeBody(w, r, s.cfg.MaxGraphBytes, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "graph name is required")
		return
	}
	g, err := divtopk.ReadGraph(strings.NewReader(req.Graph))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "parsing graph: %v", err)
		return
	}
	// Add warms the session index before registering, so this call can take
	// a while on a large graph; once it returns the graph serves queries
	// with no cold start. Duplicate names fail under Add's lock.
	if err := s.reg.Add(req.Name, g); err != nil {
		writeError(w, http.StatusConflict, codeConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": req.Name, "version": g.Version(),
		"nodes": g.NumNodes(), "edges": g.NumEdges(),
	})
}

// UpdateNode is one appended node of an UpdateRequest. Attrs values may be
// JSON strings (string attributes) or integral numbers (integer attributes).
type UpdateNode struct {
	Label string         `json:"label"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// EdgePair is one [from, to] edge of an UpdateRequest. Endpoints are node
// IDs, or negative self-references -1-j naming the request's own j-th
// appended node (see UpdateRequest). It decodes strictly: encoding/json
// would silently truncate a three-element array into a [2]int and zero-fill
// a one-element one, turning a client arity bug into a mutation of the wrong
// edge; here either case is a decode error.
type EdgePair [2]int

// UnmarshalJSON enforces exactly two elements.
func (e *EdgePair) UnmarshalJSON(data []byte) error {
	var raw []int
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if len(raw) != 2 {
		return fmt.Errorf("edge must be a [from, to] pair, got %d element(s)", len(raw))
	}
	e[0], e[1] = raw[0], raw[1]
	return nil
}

// UpdateRequest is the body of POST /v1/graphs/{name}/updates: a graph
// delta. Updates to one graph are group-committed: requests arriving while a
// commit is in flight are merged and applied as one batch, and each request
// is acknowledged with its own version of the equivalent sequential chain.
//
// A request's appended nodes receive consecutive IDs starting at the
// response's first_node — which, under concurrent writers, a client cannot
// predict. Edges of the same request therefore reference its own appends
// with negative self-references: endpoint -1-j names the request's j-th
// appended node (-1 the first, -2 the second, ...). Non-negative endpoints
// name nodes the client already knows the IDs of. The legacy sole-writer
// convention — appended node i receives ID nodes+i, where nodes is the node
// count echoed by the previous response — still holds when nothing else
// writes the graph.
type UpdateRequest struct {
	AddNodes []UpdateNode `json:"add_nodes,omitempty"`
	AddEdges []EdgePair   `json:"add_edges,omitempty"`
	DelEdges []EdgePair   `json:"del_edges,omitempty"`
}

// resolve converts the wire form to a library Delta, interpreting negative
// self-references against firstID — the node ID the request's first append
// will receive, which the coalescer computes from the base snapshot plus the
// appends of the requests merged before this one. It also returns that first
// ID (-1 when the request appends nothing) for the response.
func (req *UpdateRequest) resolve(firstID int) (*divtopk.Delta, int, error) {
	var d divtopk.Delta
	for i, n := range req.AddNodes {
		attrs := make([]divtopk.Attr, 0, len(n.Attrs))
		for k, v := range n.Attrs {
			switch val := v.(type) {
			case string:
				attrs = append(attrs, divtopk.Str(k, val))
			case float64:
				if val != float64(int64(val)) {
					return nil, 0, fmt.Errorf("add_nodes[%d]: attr %q: fractional numbers are not a supported attribute type", i, k)
				}
				attrs = append(attrs, divtopk.Int(k, int64(val)))
			default:
				return nil, 0, fmt.Errorf("add_nodes[%d]: attr %q: unsupported value type %T", i, k, v)
			}
		}
		d.AddNode(n.Label, attrs...)
	}
	ref := func(field string, i, e int) (int, error) {
		if e >= 0 {
			return e, nil
		}
		j := -1 - e
		if j >= len(req.AddNodes) {
			return 0, fmt.Errorf("%s[%d]: self-reference %d names appended node %d, but the request appends %d node(s)",
				field, i, e, j, len(req.AddNodes))
		}
		return firstID + j, nil
	}
	for i, e := range req.AddEdges {
		u, err := ref("add_edges", i, e[0])
		if err != nil {
			return nil, 0, err
		}
		v, err := ref("add_edges", i, e[1])
		if err != nil {
			return nil, 0, err
		}
		d.InsertEdge(u, v)
	}
	for i, e := range req.DelEdges {
		u, err := ref("del_edges", i, e[0])
		if err != nil {
			return nil, 0, err
		}
		v, err := ref("del_edges", i, e[1])
		if err != nil {
			return nil, 0, err
		}
		d.DeleteEdge(u, v)
	}
	if len(req.AddNodes) == 0 {
		firstID = -1
	}
	return &d, firstID, nil
}

// UpdateResponse is the body of a successful POST
// /v1/graphs/{name}/updates: the new snapshot's identity plus the
// index-maintenance stats of the update — whether the bound index advanced
// incrementally or fell back to a rebuild, how much of it the delta's
// affected area covered, and what the maintenance cost. Operators watching
// a dynamic graph use the Index object to see whether their update shape
// stays in the cheap regime.
type UpdateResponse struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	// FirstNode is the ID assigned to the request's first appended node
	// (consecutive IDs follow); absent when the request appended nothing.
	// Under group commit this is the only way a concurrent writer learns
	// where its appends landed.
	FirstNode *int               `json:"first_node,omitempty"`
	Index     divtopk.IndexStats `json:"index"`
}

// handleUpdate routes a delta through the graph's group-commit coalescer:
// requests arriving while a commit is in flight are merged and applied as
// one batch (one index-maintenance pass, one WAL write), and this request is
// acknowledged with its own version of the equivalent sequential chain. The
// matcher advances the bound index off to the side and swaps graph and index
// atomically, so in-flight queries finish on the snapshot they started on
// and the response's version tags every answer computed on the new one. A
// request whose client leaves while it is still queued is dropped from the
// queue and answered 499 canceled.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req UpdateRequest
	if !decodeBody(w, r, s.cfg.MaxGraphBytes, &req) {
		return
	}
	m, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownGraph, "graph %q is not registered", name)
		return
	}
	out := s.coalescer(name, m).submit(r.Context(), &req)
	if out.code != "" {
		writeError(w, out.status, out.code, "%s", out.msg)
		return
	}
	writeJSON(w, http.StatusOK, out.resp)
}

// requestTimeout clamps the requested budget to the configured bounds.
func (s *Server) requestTimeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// buildOptions validates k, λ and the algorithm flags and converts them to
// library options. It returns a user-facing message on invalid input.
func (s *Server) buildOptions(req *QueryRequest, diversified bool) ([]divtopk.Option, string) {
	var opts []divtopk.Option
	if req.K < 1 {
		return nil, fmt.Sprintf("k must be >= 1 (got %d)", req.K)
	}
	if req.K > s.cfg.MaxK {
		return nil, fmt.Sprintf("k %d exceeds the server cap %d", req.K, s.cfg.MaxK)
	}
	if diversified {
		// Negated conjunction, not "< 0 || > 1": NaN fails both comparisons
		// of the naive form and would sail through to the engine.
		if !(req.Lambda >= 0 && req.Lambda <= 1) {
			return nil, fmt.Sprintf("lambda %v outside [0,1]", req.Lambda)
		}
		if req.Approx {
			opts = append(opts, divtopk.WithApproximation())
		}
		if req.Baseline {
			return nil, "baseline applies to /v1/query only"
		}
	} else {
		if req.Approx {
			return nil, "approx applies to /v1/query/diversified only"
		}
		if req.Baseline {
			opts = append(opts, divtopk.WithBaseline())
		}
	}
	return opts, ""
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, diversified bool) {
	var req QueryRequest
	if !decodeBody(w, r, s.cfg.MaxQueryBytes, &req) {
		return
	}
	opts, msg := s.buildOptions(&req, diversified)
	if msg != "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%s", msg)
		return
	}
	m, ok := s.reg.Get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownGraph, "graph %q is not registered", req.Graph)
		return
	}
	p, err := divtopk.ReadPattern(strings.NewReader(req.Pattern))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadPattern, "parsing pattern: %v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()
	var resp any
	if diversified {
		resp, err = evaluate(ctx, s.sem, func() (any, error) {
			res, info, err := m.TopKDiversifiedInfo(p, req.K, req.Lambda, opts...)
			if err != nil {
				return nil, err
			}
			dr := NewDiversifiedResponse(res, info.Version)
			dr.Cache = info.Cache
			return dr, nil
		})
	} else {
		resp, err = evaluate(ctx, s.sem, func() (any, error) {
			res, info, err := m.TopKInfo(p, req.K, opts...)
			if err != nil {
				return nil, err
			}
			qr := NewQueryResponse(res, info.Version)
			qr.Cache = info.Cache
			return qr, nil
		})
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, codeTimeout,
			"query exceeded its %s budget", s.requestTimeout(req.TimeoutMS))
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this body, but access logs and
		// metrics must not count the abort as a server timeout.
		writeError(w, statusClientClosedRequest, codeCanceled, "client canceled the request")
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
	}
}

// evaluate admits fn to the bounded worker pool and runs it, giving up the
// wait — never the slot — when ctx expires: an abandoned evaluation keeps
// running, releases its slot on completion, and (through the session cache's
// singleflight) still lands its result in the cache, so a retry of a
// timed-out query is typically a cache hit. The pool therefore cannot wedge:
// every admitted evaluation returns its slot no matter how its caller left.
func evaluate(ctx context.Context, sem chan struct{}, fn func() (any, error)) (any, error) {
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	type outcome struct {
		v   any
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() { <-sem }()
		var o outcome
		// The evaluation runs outside net/http's per-connection recovery,
		// so contain panics here: one poisoned query must cost one request
		// an internal error, never the whole daemon.
		func() {
			defer func() {
				if p := recover(); p != nil {
					o = outcome{nil, fmt.Errorf("evaluation panicked: %v", p)}
				}
			}()
			v, err := fn()
			o = outcome{v, err}
		}()
		done <- o
	}()
	select {
	case o := <-done:
		return o.v, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
