package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"divtopk"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
)

// The JSON request bodies the daemon decodes from untrusted clients: a query
// (POST /v1/query and /v1/query/diversified) and a graph update (POST
// /v1/graphs/{name}/updates). The property for both: no input panics or
// draws a 500, every refusal is an ErrorResponse with one of the documented
// codes, and an update moves the graph exactly one version forward when it
// is accepted and not at all when it is refused. Each input runs against a
// fresh server on the Figure 1 graph whose body caps are small enough for
// body_too_large to be in reach. The seed corpus runs with go test; go test
// -fuzz explores from it.

// fuzzBodyLimit caps both body kinds in the fuzzed servers.
const fuzzBodyLimit = 512

var errorCodes = []string{
	codeBadRequest, codeBadPattern, codeBadDelta, codeUnknownGraph, codeConflict,
	codeBodyTooLarge, codeTimeout, codeCanceled, codeInternal, codeDurability, codeOverloaded,
}

// fuzzServer returns a fresh server whose registry holds the Figure 1 graph
// as "fig1", and that graph's matcher.
func fuzzServer(t *testing.T) (*Server, *divtopk.Matcher) {
	g, _ := testutil.Figure1()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	dg, err := divtopk.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("fig1", dg); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("fig1")
	return New(reg, Config{MaxQueryBytes: fuzzBodyLimit, MaxGraphBytes: fuzzBodyLimit}), m
}

// serveFuzzed posts body to path and checks the answer's shape: never a 500,
// and every non-200 body an ErrorResponse with a documented code.
func serveFuzzed(t *testing.T, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s %q: 500: %s", path, body, rec.Body.Bytes())
	}
	if rec.Code != http.StatusOK {
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !slices.Contains(errorCodes, er.Error.Code) {
			t.Fatalf("%s %q: %d with body %s, want an ErrorResponse with a documented code",
				path, body, rec.Code, rec.Body.Bytes())
		}
	}
	return rec
}

func FuzzQueryRequest(f *testing.F) {
	var buf bytes.Buffer
	if err := pattern.Write(&buf, testutil.Figure1Pattern()); err != nil {
		f.Fatal(err)
	}
	pat, _ := json.Marshal(buf.String())
	for _, seed := range []struct {
		body        string
		diversified bool
	}{
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":2}`, pat), false},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":5,"baseline":true,"timeout_ms":1000}`, pat), false},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":2,"lambda":0.5}`, pat), true},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":3,"lambda":1,"approx":true}`, pat), true},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":5,"lambda":1.5}`, pat), true},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":5,"lamda":0.5}`, pat), true},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":5,"lambda":NaN}`, pat), true},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":0}`, pat), false},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%s,"k":5,"approx":true}`, pat), false},
		{fmt.Sprintf(`{"graph":"nope","pattern":%s,"k":5}`, pat), false},
		{`{"graph":"fig1","pattern":"node 0 PM\nedge 0 7\n","k":5}`, false},
		{`{"graph":"fig1","k":5}`, false},
		{fmt.Sprintf(`{"graph":"fig1","pattern":%q,"k":5}`, strings.Repeat("#", fuzzBodyLimit)), false},
		{`{"graph":`, false},
	} {
		f.Add([]byte(seed.body), seed.diversified)
	}
	f.Fuzz(func(t *testing.T, body []byte, diversified bool) {
		s, _ := fuzzServer(t)
		path := "/v1/query"
		if diversified {
			path += "/diversified"
		}
		serveFuzzed(t, s, path, body)
	})
}

func FuzzUpdateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"add_nodes":[{"label":"ST"}],"add_edges":[[0,-1]]}`,
		`{"add_nodes":[{"label":"DB","attrs":{"year":2013,"venue":"vldb"}}],"add_edges":[[-1,7],[2,-1]]}`,
		`{"add_edges":[[0,11]],"del_edges":[[0,4]]}`,
		`{"del_edges":[[0,1]]}`,
		`{"add_edges":[[0,-2]],"add_nodes":[{"label":"x"}]}`,
		`{"add_edges":[[0,99]]}`,
		`{"add_nodes":[{"label":"x","attrs":{"r":1.5}}]}`,
		`{"add_nodes":[{"label":"x","attrs":{"r":[1]}}]}`,
		`{"del_edges":[[7]]}`,
		`{"add_edges":[[1,2,3]]}`,
		`{"add_edges":[[]]}`,
		`{"add_edge":[[0,1]]}`,
		`{}`,
		`[`,
		`{"add_nodes":[` + strings.Repeat(`{"label":"x"},`, fuzzBodyLimit/14) + `{"label":"x"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, m := fuzzServer(t)
		before := m.Graph().Version()
		rec := serveFuzzed(t, s, "/v1/graphs/fig1/updates", body)
		after := m.Graph().Version()
		if rec.Code != http.StatusOK {
			if after != before {
				t.Fatalf("refused update %q moved the graph from version %d to %d", body, before, after)
			}
			return
		}
		var resp UpdateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted update %q: bad body %s: %v", body, rec.Body.Bytes(), err)
		}
		if after != before+1 || resp.Version != after {
			t.Fatalf("accepted update %q: graph moved from version %d to %d, response says %d",
				body, before, after, resp.Version)
		}
	})
}
