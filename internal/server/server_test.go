package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"divtopk"
	"divtopk/internal/server"
)

// newTestServer builds a registry with one generated graph, its pattern
// texts, and an httptest server over the given config.
func newTestServer(t *testing.T, name string, cfg server.Config, opts ...divtopk.Option) (*httptest.Server, *divtopk.Graph, []string) {
	t.Helper()
	g := divtopk.NewYouTubeLike(2_000, 20_000, 5)
	var patterns []string
	for seed := int64(1); len(patterns) < 4; seed++ {
		q, err := divtopk.GeneratePattern(g, 4, 6, seed%2 == 0, false, seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := divtopk.WritePattern(&buf, q); err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, buf.String())
	}
	reg := server.NewRegistry(opts...)
	if err := reg.Add(name, g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, g, patterns
}

// post sends a JSON body and returns status + raw response bytes.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func graphStats(t *testing.T, baseURL, name string) divtopk.CacheStats {
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
	for _, g := range body.Graphs {
		if g.Name == name {
			return g.Cache
		}
	}
	t.Fatalf("graph %q not listed", name)
	return divtopk.CacheStats{}
}

// TestServerResponsesByteIdenticalToDirectCalls is acceptance criterion
// (a): for the same query, the HTTP body equals the JSON encoding of a
// direct Matcher call bit for bit — the serving layer adds nothing beyond
// the declared cache-provenance tag and loses nothing, cached or not. The
// first round of each query is an admitted evaluation ("miss"), the second
// is served from the session cache ("hit").
func TestServerResponsesByteIdenticalToDirectCalls(t *testing.T) {
	ts, g, patterns := newTestServer(t, "yt", server.Config{}, divtopk.WithCache(128))
	direct := divtopk.NewMatcher(g)

	for qi, text := range patterns {
		q, err := divtopk.ReadPattern(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		// Each query twice: the second server response is served from the
		// session cache and must still be byte-identical. Round 0 admits an
		// evaluation ("miss"); round 1 is a plain "hit".
		for round := 0; round < 2; round++ {
			checkCache := func(got string) string {
				if round == 1 {
					if got != "hit" {
						t.Fatalf("pattern %d round 1: cache = %q, want hit", qi, got)
					}
				} else if got != "miss" {
					t.Fatalf("pattern %d round 0: cache = %q, want miss", qi, got)
				}
				return got
			}
			status, body := post(t, ts.URL+"/v1/query", server.QueryRequest{
				Graph: "yt", Pattern: text, K: 10,
			})
			if status != http.StatusOK {
				t.Fatalf("pattern %d round %d: status %d: %s", qi, round, status, body)
			}
			res, err := direct.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			var gotResp server.QueryResponse
			if err := json.Unmarshal(body, &gotResp); err != nil {
				t.Fatal(err)
			}
			wantResp := server.NewQueryResponse(res, direct.Graph().Version())
			wantResp.Cache = checkCache(gotResp.Cache)
			want, err := json.Marshal(wantResp)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.TrimRight(body, "\n"); !bytes.Equal(got, want) {
				t.Fatalf("pattern %d round %d: server body differs from direct call:\n got: %s\nwant: %s", qi, round, got, want)
			}

			status, body = post(t, ts.URL+"/v1/query/diversified", server.QueryRequest{
				Graph: "yt", Pattern: text, K: 6, Lambda: 0.5,
			})
			if status != http.StatusOK {
				t.Fatalf("pattern %d round %d diversified: status %d: %s", qi, round, status, body)
			}
			dres, err := direct.TopKDiversified(q, 6, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			var gotDiv server.DiversifiedResponse
			if err := json.Unmarshal(body, &gotDiv); err != nil {
				t.Fatal(err)
			}
			wantDiv := server.NewDiversifiedResponse(dres, direct.Graph().Version())
			wantDiv.Cache = checkCache(gotDiv.Cache)
			want, err = json.Marshal(wantDiv)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.TrimRight(body, "\n"); !bytes.Equal(got, want) {
				t.Fatalf("pattern %d round %d: diversified body differs:\n got: %s\nwant: %s", qi, round, got, want)
			}
		}
	}
}

// TestConcurrentIdenticalQueriesSingleEvaluation is acceptance criterion
// (b): N concurrent identical queries cost exactly one engine evaluation,
// observed through the cache statistics exposed on /v1/graphs.
func TestConcurrentIdenticalQueriesSingleEvaluation(t *testing.T) {
	ts, _, patterns := newTestServer(t, "yt", server.Config{}, divtopk.WithCache(128))
	const n = 16
	req := server.QueryRequest{Graph: "yt", Pattern: patterns[0], K: 10}
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := post(t, ts.URL+"/v1/query", req)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	// Responses may legitimately differ only in the cache-provenance tag
	// ("miss" for the leader and its coalesced followers, "hit" for
	// stragglers arriving after the flight landed); every payload must be
	// identical.
	norm := func(body []byte) string {
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad response body %s: %v", body, err)
		}
		if qr.Cache != "miss" && qr.Cache != "hit" {
			t.Fatalf("cache provenance %q, want miss or hit", qr.Cache)
		}
		qr.Cache = ""
		b, err := json.Marshal(qr)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i := 1; i < n; i++ {
		if norm(bodies[i]) != norm(bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	stats := graphStats(t, ts.URL, "yt")
	if stats.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 evaluation for %d concurrent identical queries (stats %+v)",
			stats.Misses, n, stats)
	}
	if stats.Hits+stats.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", stats.Hits+stats.Coalesced, n-1, stats)
	}
}

// TestValidationAndErrors covers the caps and the structured error paths.
// Every request body is decoded strictly: a field the endpoint does not
// define — a misspelling, or a knob the wire does not carry — is a 400, never
// a silently ignored key.
func TestValidationAndErrors(t *testing.T) {
	ts, _, patterns := newTestServer(t, "yt", server.Config{MaxK: 50})
	query := func(extra map[string]any) map[string]any {
		body := map[string]any{"graph": "yt", "pattern": patterns[0], "k": 5}
		for k, v := range extra {
			body[k] = v
		}
		return body
	}
	cases := []struct {
		name   string
		url    string
		req    any
		status int
		code   string
	}{
		{"k too small", "/v1/query", server.QueryRequest{Graph: "yt", Pattern: patterns[0], K: 0}, 400, "bad_request"},
		{"k over cap", "/v1/query", server.QueryRequest{Graph: "yt", Pattern: patterns[0], K: 51}, 400, "bad_request"},
		{"parallelism over cap", "/v1/query", query(map[string]any{"parallelism": 8}), 400, "bad_request"},
		{"unknown graph", "/v1/query", server.QueryRequest{Graph: "nope", Pattern: patterns[0], K: 5}, 404, "unknown_graph"},
		{"bad pattern", "/v1/query", server.QueryRequest{Graph: "yt", Pattern: "node 0", K: 5}, 400, "bad_pattern"},
		{"bad lambda", "/v1/query/diversified", server.QueryRequest{Graph: "yt", Pattern: patterns[0], K: 5, Lambda: 1.5}, 400, "bad_request"},
		{"misspelt lambda", "/v1/query/diversified", query(map[string]any{"lamda": 0.5}), 400, "bad_request"},
		{"bad strategy", "/v1/query", query(map[string]any{"strategy": "magic"}), 400, "bad_request"},
		{"removed bounds knob", "/v1/query", query(map[string]any{"bounds": "tight"}), 400, "bad_request"},
		{"baseline on diversified", "/v1/query/diversified", server.QueryRequest{Graph: "yt", Pattern: patterns[0], K: 5, Baseline: true}, 400, "bad_request"},
		{"unknown field on update", "/v1/graphs/yt/updates", map[string]any{"add_nodes": []any{}, "remove_edges": [][2]int{{0, 1}}}, 400, "bad_request"},
		{"unknown field on add graph", "/v1/graphs", map[string]any{"name": "g2", "graph": "", "format": "text"}, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL+tc.url, tc.req)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (%s)", status, tc.status, body)
			}
			var errResp server.ErrorResponse
			if err := json.Unmarshal(body, &errResp); err != nil {
				t.Fatalf("not a structured error: %v (%s)", err, body)
			}
			if errResp.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", errResp.Error.Code, tc.code)
			}
		})
	}
}

// TestAddGraphAtRuntime registers a second graph over the API and queries
// it.
func TestAddGraphAtRuntime(t *testing.T) {
	ts, _, _ := newTestServer(t, "yt", server.Config{}, divtopk.WithCache(16))

	g2 := divtopk.NewCitationLike(800, 6_000, 11)
	var gbuf bytes.Buffer
	if err := divtopk.WriteGraph(&gbuf, g2); err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts.URL+"/v1/graphs", server.AddGraphRequest{Name: "cite", Graph: gbuf.String()})
	if status != http.StatusCreated {
		t.Fatalf("add graph: status %d: %s", status, body)
	}
	// Duplicate registration is a conflict.
	status, _ = post(t, ts.URL+"/v1/graphs", server.AddGraphRequest{Name: "cite", Graph: gbuf.String()})
	if status != http.StatusConflict {
		t.Fatalf("duplicate add: status %d, want %d", status, http.StatusConflict)
	}

	q, err := divtopk.GeneratePattern(g2, 3, 3, false, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := divtopk.WritePattern(&pbuf, q); err != nil {
		t.Fatal(err)
	}
	status, body = post(t, ts.URL+"/v1/query", server.QueryRequest{Graph: "cite", Pattern: pbuf.String(), K: 5})
	if status != http.StatusOK {
		t.Fatalf("query on added graph: status %d: %s", status, body)
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.GlobalMatch || len(resp.Matches) == 0 {
		t.Fatalf("added graph returned no matches: %s", body)
	}

	// Health reflects both graphs.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Graphs != 2 {
		t.Fatalf("health = %+v, want ok with 2 graphs", health)
	}
}

// TestDistinctQueriesDistinctEntries sanity-checks that the cache keys
// distinguish different patterns and ks over HTTP.
func TestDistinctQueriesDistinctEntries(t *testing.T) {
	ts, _, patterns := newTestServer(t, "yt", server.Config{}, divtopk.WithCache(128))
	for i, text := range patterns {
		for _, k := range []int{3, 7} {
			status, body := post(t, ts.URL+"/v1/query", server.QueryRequest{Graph: "yt", Pattern: text, K: k})
			if status != http.StatusOK {
				t.Fatalf("pattern %d k %d: %d %s", i, k, status, body)
			}
		}
	}
	stats := graphStats(t, ts.URL, "yt")
	want := uint64(len(patterns) * 2)
	if stats.Misses != want {
		t.Fatalf("misses = %d, want %d distinct evaluations", stats.Misses, want)
	}
	if stats.Entries != int(want) {
		t.Fatalf("entries = %d, want %d", stats.Entries, want)
	}
}
