package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"divtopk"
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

func (s *heldSink) AppendDelta(*divtopk.Graph, *divtopk.Delta) error   { s.hold(); return nil }
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
		outcomes <- c.submit(&UpdateRequest{AddNodes: []UpdateNode{{Label: "x"}}})
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
