package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"divtopk"
	"divtopk/internal/server"
)

// updateResponse is the wire shape of POST /v1/graphs/{name}/updates,
// declared locally so the test notices if the server's field names drift.
type updateResponse struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	FirstNode *int   `json:"first_node"`
	Index     struct {
		Mode             string  `json:"mode"`
		BatchWidth       int     `json:"batch_width"`
		AffectedRows     int     `json:"affected_rows"`
		TotalRows        int     `json:"total_rows"`
		AffectedShare    float64 `json:"affected_share"`
		FrontierRows     int     `json:"frontier_rows"`
		LabelsRecomputed int     `json:"labels_recomputed"`
		LabelsCopied     int     `json:"labels_copied"`
		WallMicros       int64   `json:"wall_us"`
		ShardWallMicros  int64   `json:"shard_wall_us"`
		WarmStates       *int    `json:"warm_states"`
		WarmTouched      *int    `json:"warm_touched"`
		WarmReevaluated  *int    `json:"warm_reevaluated"`
		WarmCarried      *int    `json:"warm_carried"`
		WarmDropped      *int    `json:"warm_dropped"`
		WarmEvicted      *int    `json:"warm_evicted"`
		WarmMicros       *int64  `json:"warm_us"`
	} `json:"index"`
}

func decodeError(t *testing.T, body []byte) server.ErrorResponse {
	t.Helper()
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("not an error body: %v (%s)", err, body)
	}
	return er
}

// TestUpdateEndpointAndVersionedInvalidation is the serving-layer half of
// the delta-equivalence acceptance criterion: a query answered (and cached)
// before an update must never be served from the stale entry after it — the
// version in every cache key makes it unreachable — and every response
// carries the snapshot version it was computed against, byte-identical to a
// cold evaluation of the rebuilt graph. Since the warm result cache, the
// commit itself advances the hot entry to the new version, so the first
// post-update query is a cache hit tagged "advanced" rather than a cold
// re-evaluation; the byte-identity requirement is unchanged.
func TestUpdateEndpointAndVersionedInvalidation(t *testing.T) {
	ts, g, patterns := newTestServer(t, "dyn", server.Config{}, divtopk.WithCache(128))
	text := patterns[0]
	q, err := divtopk.ReadPattern(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}

	query := func() (server.QueryResponse, divtopk.CacheStats) {
		status, body := post(t, ts.URL+"/v1/query", server.QueryRequest{Graph: "dyn", Pattern: text, K: 10})
		if status != http.StatusOK {
			t.Fatalf("query status %d: %s", status, body)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr, graphStats(t, ts.URL, "dyn")
	}

	// Two identical queries: miss then hit, version 0.
	r0, s0 := query()
	if r0.Version != 0 {
		t.Fatalf("pre-update version = %d, want 0", r0.Version)
	}
	r1, s1 := query()
	if s0.Misses != 1 || s1.Hits != s0.Hits+1 {
		t.Fatalf("expected miss then hit, got %+v then %+v", s0, s1)
	}
	if r1.Version != 0 {
		t.Fatalf("cached response version = %d, want 0", r1.Version)
	}

	// Apply a delta over HTTP: one appended node wired into the graph.
	nn := g.NumNodes()
	status, body := post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		AddNodes: []server.UpdateNode{{Label: g.Label(0), Attrs: map[string]any{"w": 3}}},
		AddEdges: []server.EdgePair{{0, nn}, {nn, 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("update status %d: %s", status, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Version != 1 || ur.Nodes != nn+1 {
		t.Fatalf("update response %+v, want version 1, nodes %d", ur, nn+1)
	}
	if ur.FirstNode == nil || *ur.FirstNode != nn {
		t.Fatalf("first_node = %v, want %d", ur.FirstNode, nn)
	}
	if ur.Index.BatchWidth != 1 {
		t.Fatalf("uncontended update has batch_width %d, want 1", ur.Index.BatchWidth)
	}
	if ur.Index.ShardWallMicros < 0 {
		t.Fatalf("index shard_wall_us %d negative", ur.Index.ShardWallMicros)
	}
	// The index-maintenance stats ride on every update response.
	if ur.Index.Mode != "incremental" && ur.Index.Mode != "rebuild" {
		t.Fatalf("index mode %q, want incremental or rebuild", ur.Index.Mode)
	}
	if ur.Index.TotalRows != nn+1 {
		t.Fatalf("index total_rows %d, want %d", ur.Index.TotalRows, nn+1)
	}
	if ur.Index.AffectedShare < 0 || ur.Index.AffectedShare > 1 {
		t.Fatalf("index affected_share %v outside [0,1]", ur.Index.AffectedShare)
	}
	if ur.Index.AffectedRows < 0 || ur.Index.AffectedRows > ur.Index.TotalRows {
		t.Fatalf("index affected_rows %d outside [0,%d]", ur.Index.AffectedRows, ur.Index.TotalRows)
	}
	if ur.Index.Mode == "incremental" && ur.Index.LabelsCopied == 0 && ur.Index.LabelsRecomputed == 0 {
		t.Fatalf("incremental update reports no label maintenance at all: %+v", ur.Index)
	}
	if ur.Index.WallMicros < 0 {
		t.Fatalf("index wall_us %d negative", ur.Index.WallMicros)
	}
	// So do the warm cache's: one maintained state, whose one remembered
	// query the pass either carried or re-ran (the appended node carries the
	// label of node 0, which the mined pattern may or may not use).
	ix := ur.Index
	if ix.WarmStates == nil || ix.WarmTouched == nil || ix.WarmReevaluated == nil || ix.WarmCarried == nil || ix.WarmDropped == nil || ix.WarmEvicted == nil || ix.WarmMicros == nil {
		t.Fatalf("update response lacks a warm_* field: %s", body)
	}
	if *ix.WarmStates != 1 || *ix.WarmEvicted != 0 || *ix.WarmDropped != 0 || *ix.WarmReevaluated+*ix.WarmCarried != 1 || *ix.WarmTouched > 1 || *ix.WarmMicros < 0 {
		t.Fatalf("warm counters of a commit over one maintained query: %s", body)
	}

	// The commit's advance pass installed the hot entry under version 1, so
	// the next identical query hits that advanced entry — never the stale
	// version-0 one — and reports the "advanced" provenance exactly once.
	if sc := graphStats(t, ts.URL, "dyn"); sc.Advanced != 1 {
		t.Fatalf("commit did not install an advanced entry: %+v", sc)
	}
	r2, s2 := query()
	if s2.Misses != s1.Misses || s2.Hits != s1.Hits+1 {
		t.Fatalf("post-update query not served from the advanced entry: %+v then %+v", s1, s2)
	}
	if r2.Cache != "advanced" {
		t.Fatalf("post-update cache provenance = %q, want advanced", r2.Cache)
	}
	if r2.Version != 1 {
		t.Fatalf("post-update version = %d, want 1", r2.Version)
	}
	// The advanced tag decays after its first hit.
	r3, _ := query()
	if r3.Cache != "hit" {
		t.Fatalf("second post-update query provenance = %q, want hit", r3.Cache)
	}

	// Byte-identical to a cold evaluation of the rebuilt (updated) graph.
	var d divtopk.Delta
	d.AddNode(g.Label(0), divtopk.Int("w", 3))
	d.InsertEdge(0, nn)
	d.InsertEdge(nn, 1)
	g2, err := divtopk.ApplyDelta(g, &d)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := divtopk.TopK(g2, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantResp := server.NewQueryResponse(cold, g2.Version())
	wantResp.Cache = "advanced"
	want, err := json.Marshal(wantResp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("post-update response differs from cold evaluation:\n got: %s\nwant: %s", got, want)
	}

	// /v1/graphs reflects the new version.
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Graphs []server.GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Version != 1 {
		t.Fatalf("/v1/graphs = %+v, want version 1", list.Graphs)
	}
}

// TestUpdateEndpointErrors covers the structured failures of the updates
// route: unknown graph, malformed delta, bad attribute types.
func TestUpdateEndpointErrors(t *testing.T) {
	ts, g, _ := newTestServer(t, "dyn", server.Config{})

	status, body := post(t, ts.URL+"/v1/graphs/nope/updates", server.UpdateRequest{
		AddEdges: []server.EdgePair{{0, 1}},
	})
	if status != http.StatusNotFound || decodeError(t, body).Error.Code != "unknown_graph" {
		t.Fatalf("unknown graph: %d %s", status, body)
	}

	// Deleting a missing edge fails the whole delta and leaves the graph
	// unchanged.
	u, v := 0, 1
	for g.NumNodes() > v && hasEdge(g, u, v) {
		v++
	}
	status, body = post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		DelEdges: []server.EdgePair{{u, v}},
	})
	if status != http.StatusBadRequest || decodeError(t, body).Error.Code != "bad_delta" {
		t.Fatalf("missing-edge delete: %d %s", status, body)
	}

	status, body = post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		AddNodes: []server.UpdateNode{{Label: "X", Attrs: map[string]any{"r": 1.5}}},
	})
	if status != http.StatusBadRequest || decodeError(t, body).Error.Code != "bad_delta" {
		t.Fatalf("fractional attr: %d %s", status, body)
	}

	status, body = post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		AddEdges: []server.EdgePair{{0, 10_000_000}},
	})
	if status != http.StatusBadRequest || decodeError(t, body).Error.Code != "bad_delta" {
		t.Fatalf("out-of-range edge: %d %s", status, body)
	}

	// Wrong-arity edge arrays are decode errors, not silent zero-fills:
	// encoding/json would truncate [[1,2,3]] and zero-fill [[7]] into a
	// plain [2]int, mutating an edge the client never named.
	for _, raw := range []string{
		`{"del_edges":[[7]]}`,
		`{"add_edges":[[1,2,3]]}`,
		`{"add_edges":[[]]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/graphs/dyn/updates", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", raw, resp.StatusCode, body)
		}
		if code := decodeError(t, body).Error.Code; code != "bad_request" {
			t.Fatalf("%s: code %q, want bad_request", raw, code)
		}
	}

	// The graph is still at version 0 and fully serviceable.
	if ver := graphVersion(t, ts.URL, "dyn"); ver != 0 {
		t.Fatalf("failed updates bumped the version to %d", ver)
	}
}

// hasEdge reports whether g has the edge (u, v): whether deleting it applies.
func hasEdge(g *divtopk.Graph, u, v int) bool {
	var d divtopk.Delta
	d.DeleteEdge(u, v)
	_, err := divtopk.ApplyDelta(g, &d)
	return err == nil
}

func graphVersion(t *testing.T, baseURL, name string) uint64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Graphs []server.GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, gi := range body.Graphs {
		if gi.Name == name {
			return gi.Version
		}
	}
	t.Fatalf("graph %q not listed", name)
	return 0
}

// TestBodyTooLargeIs413 pins the limit errors: request bodies over
// MaxQueryBytes/MaxGraphBytes return 413 with the stable code
// body_too_large, not a generic 400 decode error.
func TestBodyTooLargeIs413(t *testing.T) {
	ts, _, _ := newTestServer(t, "dyn", server.Config{
		MaxQueryBytes: 256,
		MaxGraphBytes: 512,
	})

	big := strings.Repeat("x", 1024)
	status, body := post(t, ts.URL+"/v1/query", server.QueryRequest{
		Graph: "dyn", Pattern: big, K: 5,
	})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("query status = %d, want 413 (%s)", status, body)
	}
	if code := decodeError(t, body).Error.Code; code != "body_too_large" {
		t.Fatalf("query code = %q, want body_too_large", code)
	}

	status, body = post(t, ts.URL+"/v1/graphs", server.AddGraphRequest{
		Name: "big", Graph: strings.Repeat("y", 2048),
	})
	if status != http.StatusRequestEntityTooLarge || decodeError(t, body).Error.Code != "body_too_large" {
		t.Fatalf("add-graph: %d %s", status, body)
	}

	// Updates share the graph limit.
	edges := make([]server.EdgePair, 200)
	status, body = post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{AddEdges: edges})
	if status != http.StatusRequestEntityTooLarge || decodeError(t, body).Error.Code != "body_too_large" {
		t.Fatalf("update: %d %s", status, body)
	}

	// Under the limit still works (and still 400s on garbage, not 413).
	status, body = post(t, ts.URL+"/v1/query", server.QueryRequest{Graph: "dyn", K: 5})
	if status != http.StatusBadRequest {
		t.Fatalf("small bad query: %d %s", status, body)
	}
}

// TestLambdaNaNRejected pins the serving-layer λ check rewrite: NaN cannot
// arrive through JSON (it is not a JSON number), but the QueryRequest
// struct is also the programmatic entry (bench, loadgen), so the check must
// hold for any float64. The HTTP side verifies the boundary values.
func TestLambdaNaNRejected(t *testing.T) {
	ts, _, patterns := newTestServer(t, "dyn", server.Config{})

	for _, bad := range []float64{-0.01, 1.01} {
		status, body := post(t, ts.URL+"/v1/query/diversified", server.QueryRequest{
			Graph: "dyn", Pattern: patterns[0], K: 5, Lambda: bad,
		})
		if status != http.StatusBadRequest || decodeError(t, body).Error.Code != "bad_request" {
			t.Fatalf("lambda %v: %d %s", bad, status, body)
		}
	}
	for _, ok := range []float64{0, 1, 0.5} {
		status, body := post(t, ts.URL+"/v1/query/diversified", server.QueryRequest{
			Graph: "dyn", Pattern: patterns[0], K: 5, Lambda: ok,
		})
		if status != http.StatusOK {
			t.Fatalf("lambda %v: %d %s", ok, status, body)
		}
	}

	// NaN and ±Inf via raw JSON are decode errors (JSON has no such
	// numbers) — the server never sees them as floats; the programmatic
	// NaN path is covered by the library-level regression and by the
	// request-validation unit test in the server package.
	resp, err := http.Post(ts.URL+"/v1/query/diversified", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph":"dyn","pattern":%q,"k":5,"lambda":NaN}`, patterns[0])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw NaN: status %d", resp.StatusCode)
	}
}

// TestUpdateNegativeSelfReferences pins the wire protocol concurrent writers
// rely on: endpoint -1-j names the request's own j-th appended node, the
// response's first_node reports where the appends landed, and an out-of-range
// self-reference is a structured 400.
func TestUpdateNegativeSelfReferences(t *testing.T) {
	ts, g, _ := newTestServer(t, "dyn", server.Config{})
	nn := g.NumNodes()

	// Two appends wired to each other and into the base graph, all by
	// self-reference.
	status, body := post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		AddNodes: []server.UpdateNode{{Label: g.Label(0)}, {Label: g.Label(1)}},
		AddEdges: []server.EdgePair{{-1, -2}, {0, -1}, {-2, 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("self-ref update: %d %s", status, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.FirstNode == nil || *ur.FirstNode != nn {
		t.Fatalf("first_node = %v, want %d", ur.FirstNode, nn)
	}
	if ur.Nodes != nn+2 {
		t.Fatalf("nodes = %d, want %d", ur.Nodes, nn+2)
	}

	// The resolved edges really exist: deleting them by absolute ID works.
	status, body = post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		DelEdges: []server.EdgePair{{nn, nn + 1}, {0, nn}, {nn + 1, 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("deleting resolved edges: %d %s", status, body)
	}
	ur = updateResponse{}
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.FirstNode != nil {
		t.Fatalf("append-free update reports first_node %v", *ur.FirstNode)
	}

	// A self-reference past the request's own appends is a 400, applied
	// nothing.
	status, body = post(t, ts.URL+"/v1/graphs/dyn/updates", server.UpdateRequest{
		AddNodes: []server.UpdateNode{{Label: g.Label(0)}},
		AddEdges: []server.EdgePair{{0, -2}},
	})
	if status != http.StatusBadRequest || decodeError(t, body).Error.Code != "bad_delta" {
		t.Fatalf("out-of-range self-ref: %d %s", status, body)
	}
	if ver := graphVersion(t, ts.URL, "dyn"); ver != 2 {
		t.Fatalf("version = %d, want 2", ver)
	}
}

// TestConcurrentUpdatesGroupCommit drives many writers at one graph through
// the coalescer: every request must succeed, the acked versions must form
// exactly the sequential chain 1..N, first_node assignments must partition
// the appended ID range with no overlap, and the final graph must hold every
// append — the group-commit equivalence promise, observed over HTTP. A batch
// whose width exceeded 1 proves coalescing actually happened under load (not
// asserted: timing-dependent), so the test only reports it.
func TestConcurrentUpdatesGroupCommit(t *testing.T) {
	ts, g, patterns := newTestServer(t, "dyn", server.Config{})
	nn := g.NumNodes()
	const writers = 8
	const perWriter = 6

	type ack struct {
		version   uint64
		firstNode int
		width     int
	}
	acks := make(chan ack, writers*perWriter)
	errs := make(chan error, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// One append wired into the base graph by self-reference;
				// no absolute IDs above the base, so every interleaving is
				// valid.
				raw, err := json.Marshal(server.UpdateRequest{
					AddNodes: []server.UpdateNode{{Label: g.Label(w % 4)}},
					AddEdges: []server.EdgePair{{-1, w % 4}, {w % 4, -1}},
				})
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/graphs/dyn/updates", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d update %d: status %d: %s", w, i, resp.StatusCode, body)
					return
				}
				var ur updateResponse
				if err := json.Unmarshal(body, &ur); err != nil {
					errs <- err
					return
				}
				if ur.FirstNode == nil {
					errs <- fmt.Errorf("writer %d update %d: no first_node", w, i)
					return
				}
				acks <- ack{version: ur.Version, firstNode: *ur.FirstNode, width: ur.Index.BatchWidth}
			}
		}(w)
	}
	wg.Wait()
	close(acks)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = writers * perWriter
	versions := make(map[uint64]bool, total)
	firsts := make(map[int]bool, total)
	maxWidth := 0
	for a := range acks {
		if versions[a.version] {
			t.Fatalf("version %d acked twice", a.version)
		}
		versions[a.version] = true
		if firsts[a.firstNode] {
			t.Fatalf("node ID %d assigned twice", a.firstNode)
		}
		firsts[a.firstNode] = true
		if a.width < 1 || a.width > total {
			t.Fatalf("batch width %d outside [1,%d]", a.width, total)
		}
		if a.width > maxWidth {
			maxWidth = a.width
		}
	}
	for v := uint64(1); v <= total; v++ {
		if !versions[v] {
			t.Fatalf("version %d never acked; the chain has a gap", v)
		}
	}
	for id := nn; id < nn+total; id++ {
		if !firsts[id] {
			t.Fatalf("appended ID %d never assigned", id)
		}
	}
	t.Logf("max batch width observed: %d", maxWidth)

	if ver := graphVersion(t, ts.URL, "dyn"); ver != total {
		t.Fatalf("final version %d, want %d", ver, total)
	}

	// The graph still answers queries, and the served snapshot matches a cold
	// evaluation of an equivalent sequential rebuild is already covered by the
	// library fuzz; here it suffices that the post-commit snapshot is sane.
	status, body := post(t, ts.URL+"/v1/query", server.QueryRequest{Graph: "dyn", Pattern: patterns[0], K: 5})
	if status != http.StatusOK {
		t.Fatalf("post-commit query: %d %s", status, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != total {
		t.Fatalf("post-commit query answered at version %d, want %d", qr.Version, total)
	}
}
