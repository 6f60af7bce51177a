package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"divtopk"
	"divtopk/internal/graph"
)

// heldSink is a DurabilitySink whose first append blocks until release is
// closed, holding the graph's commit in flight.
type heldSink struct {
	entered, release chan struct{}
	once             sync.Once
}

func (s *heldSink) hold() {
	s.once.Do(func() { close(s.entered) })
	<-s.release
}

func (s *heldSink) AppendBatch(*divtopk.Graph, []*divtopk.Delta) error { s.hold(); return nil }

// TestUpdateQueueOverload pins the bound on a graph's group-commit queue:
// while one commit is held in its durability sink, maxQueuedUpdates requests
// queue behind it, the next one is answered 429 overloaded at once, and
// releasing the sink commits every held request at its own version.
func TestUpdateQueueOverload(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("g", divtopk.NewSynthetic(200, 800, 4, 1)); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("g")
	sink := &heldSink{entered: make(chan struct{}), release: make(chan struct{})}
	m.SetDurability(sink)
	s := New(reg, Config{})
	c := s.coalescer("g", m)

	released := false
	defer func() {
		if !released {
			close(sink.release)
		}
	}()
	outcomes := make(chan updateOutcome, maxQueuedUpdates+1)
	submit := func() {
		outcomes <- c.submit(context.Background(), &UpdateRequest{AddNodes: []UpdateNode{{Label: "x"}}})
	}
	go submit()
	select {
	case <-sink.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first commit never reached the sink")
	}
	for i := 0; i < maxQueuedUpdates; i++ {
		go submit()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n == maxQueuedUpdates {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d of %d requests", n, maxQueuedUpdates)
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/g/updates",
			bytes.NewReader([]byte(`{"add_nodes":[{"label":"x"}]}`))))
	}()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("an update over a full queue waited instead of being refused")
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("not an error body: %v (%s)", err, rec.Body.Bytes())
	}
	if rec.Code != http.StatusTooManyRequests || er.Error.Code != codeOverloaded {
		t.Fatalf("update over a full queue = %d %q, want 429 %q", rec.Code, er.Error.Code, codeOverloaded)
	}

	close(sink.release)
	released = true
	seen := make(map[uint64]bool)
	for i := 0; i <= maxQueuedUpdates; i++ {
		out := <-outcomes
		if out.code != "" {
			t.Fatalf("held request failed: %d %s: %s", out.status, out.code, out.msg)
		}
		if v := out.resp.Version; v < 1 || v > maxQueuedUpdates+1 || seen[v] {
			t.Fatalf("held request acked with version %d (seen before: %v)", v, seen[v])
		}
		seen[out.resp.Version] = true
	}
	if v := m.Graph().Version(); v != maxQueuedUpdates+1 {
		t.Fatalf("graph at version %d after the release, want %d", v, maxQueuedUpdates+1)
	}
}

// TestQueuedUpdateHonoursCancel pins that a queued update follows its
// request's context: while one commit is held in the durability sink, three
// requests queue behind it; the one whose client leaves is answered 499
// canceled at once and never applied, and its batch-mates commit at
// contiguous versions once the sink is released.
func TestQueuedUpdateHonoursCancel(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("g", divtopk.NewSynthetic(200, 800, 4, 1)); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("g")
	baseEdges := m.Graph().NumEdges()
	sink := &heldSink{entered: make(chan struct{}), release: make(chan struct{})}
	m.SetDurability(sink)
	s := New(reg, Config{})
	c := s.coalescer("g", m)

	released := false
	defer func() {
		if !released {
			close(sink.release)
		}
	}()
	held := make(chan updateOutcome, 1)
	go func() {
		held <- c.submit(context.Background(), &UpdateRequest{AddNodes: []UpdateNode{{Label: "x"}}})
	}()
	select {
	case <-sink.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first commit never reached the sink")
	}

	// Three queued requests, each appending one node and an edge from it
	// to node 0; the second one's client leaves.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recs := make([]*httptest.ResponseRecorder, 3)
	answered := make([]chan struct{}, 3)
	for i := range recs {
		recs[i], answered[i] = httptest.NewRecorder(), make(chan struct{})
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/g/updates",
			bytes.NewReader([]byte(`{"add_nodes":[{"label":"x"}],"add_edges":[[-1,0]]}`)))
		if i == 1 {
			req = req.WithContext(ctx)
		}
		go func() {
			defer close(answered[i])
			s.Handler().ServeHTTP(recs[i], req)
		}()
	}
	queued := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			n := len(c.queue)
			c.mu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue holds %d requests, want %d", n, want)
			}
		}
	}
	queued(3)
	cancel()
	select {
	case <-answered[1]:
	case <-time.After(10 * time.Second):
		t.Fatal("a canceled queued update waited for the commit")
	}
	var er ErrorResponse
	if err := json.Unmarshal(recs[1].Body.Bytes(), &er); err != nil {
		t.Fatalf("not an error body: %v (%s)", err, recs[1].Body.Bytes())
	}
	if recs[1].Code != statusClientClosedRequest || er.Error.Code != codeCanceled {
		t.Fatalf("canceled queued update = %d %q, want %d %q", recs[1].Code, er.Error.Code, statusClientClosedRequest, codeCanceled)
	}
	queued(2)

	close(sink.release)
	released = true
	if out := <-held; out.code != "" || out.resp.Version != 1 {
		t.Fatalf("held commit = %+v, want version 1", out)
	}
	var versions []uint64
	var appended []int
	for _, i := range []int{0, 2} {
		<-answered[i]
		var resp UpdateResponse
		if recs[i].Code != http.StatusOK {
			t.Fatalf("batch-mate %d = %d: %s", i, recs[i].Code, recs[i].Body.Bytes())
		}
		if err := json.Unmarshal(recs[i].Body.Bytes(), &resp); err != nil || resp.FirstNode == nil {
			t.Fatalf("batch-mate %d: bad body %s (%v)", i, recs[i].Body.Bytes(), err)
		}
		versions = append(versions, resp.Version)
		appended = append(appended, *resp.FirstNode)
	}
	slices.Sort(versions)
	if versions[0] != 2 || versions[1] != 3 {
		t.Fatalf("batch-mates acked with versions %v, want 2 and 3", versions)
	}
	g := m.Graph()
	if g.Version() != 3 || g.NumNodes() != 203 || g.NumEdges() != baseEdges+2 {
		t.Fatalf("graph at version %d with %d nodes and %d edges, want version 3 with 203 and %d",
			g.Version(), g.NumNodes(), g.NumEdges(), baseEdges+2)
	}
	// The batch-mates' edges are in; the canceled request appended no node,
	// so neither its node nor its edge exists.
	ig := g.Unwrap().(*graph.Graph)
	for _, v := range appended {
		if !ig.HasEdge(graph.NodeID(v), 0) {
			t.Fatalf("batch-mate's edge %d -> 0 missing", v)
		}
	}
}
