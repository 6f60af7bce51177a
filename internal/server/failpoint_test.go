package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"divtopk/internal/fsx"
	"divtopk/internal/server"
	"divtopk/internal/wal"
)

// TestDurabilityFailpoint pins the degraded-mode contract of the issue: when
// the WAL cannot be persisted (fsync failure), an update returns a structured
// durability_unavailable error and is NOT applied, reads keep serving at the
// last durable version, /healthz reports the graph degraded, and the server
// never wedges — the failure is sticky until a restart, even after the disk
// "recovers".
func TestDurabilityFailpoint(t *testing.T) {
	t.Parallel()
	w := worlds[0]()
	base, patternText := newModel(w).graph(), w.texts[0]

	fault := fsx.NewFault(fsx.OS())
	reg, err := server.NewPersistentRegistry(server.PersistOptions{
		Dir: t.TempDir(), FS: fault, Policy: wal.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("g", base); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{}).Handler())
	defer ts.Close()

	update := server.UpdateRequest{AddNodes: []server.UpdateNode{{Label: "A"}}}
	query := func() server.QueryResponse {
		status, body := post(t, ts.URL+"/v1/query", server.QueryRequest{Graph: "g", Pattern: patternText, K: 5})
		if status != http.StatusOK {
			t.Fatalf("query status %d: %s", status, body)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	healthz := func() server.Health {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		var h server.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	// Healthy: one update lands durably, health reports ok with durable ==
	// served.
	status, body := post(t, ts.URL+"/v1/graphs/g/updates", update)
	if status != http.StatusOK {
		t.Fatalf("healthy update: %d %s", status, body)
	}
	if v := query().Version; v != 1 {
		t.Fatalf("served version = %d, want 1", v)
	}
	if h := healthz(); h.Status != "ok" || !h.Persistent || h.Fsync != "always" ||
		len(h.GraphStatus) != 1 || h.GraphStatus[0].DurableVersion == nil || *h.GraphStatus[0].DurableVersion != 1 {
		t.Fatalf("healthy healthz = %+v", h)
	}

	// The disk stops persisting syncs. The next update must be refused with
	// the structured durability code and must not advance the served graph.
	fault.FailSyncs(errors.New("injected: device reports itself on fire"))
	status, body = post(t, ts.URL+"/v1/graphs/g/updates", update)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded update status = %d, want 503 (%s)", status, body)
	}
	if code := decodeError(t, body).Error.Code; code != "durability_unavailable" {
		t.Fatalf("degraded update code = %q, want durability_unavailable (%s)", code, body)
	}

	// Reads still serve, at the last durable version.
	if v := query().Version; v != 1 {
		t.Fatalf("read after degradation served version %d, want 1", v)
	}

	// /healthz tells the operator exactly what is wrong.
	h := healthz()
	if h.Status != "degraded" {
		t.Fatalf("degraded healthz status = %q, want degraded", h.Status)
	}
	gs := h.GraphStatus[0]
	if !gs.Degraded || gs.Error == "" {
		t.Fatalf("degraded graph health = %+v", gs)
	}
	if gs.ServedVersion != 1 || gs.DurableVersion == nil || *gs.DurableVersion != 1 {
		t.Fatalf("degraded graph versions = %+v, want served=durable=1", gs)
	}

	// Degradation is sticky: the page-cache state after a failed fsync is
	// unknowable, so even a "recovered" disk must not resume appends until a
	// restart re-establishes a known-durable baseline.
	fault.FailSyncs(nil)
	status, body = post(t, ts.URL+"/v1/graphs/g/updates", update)
	if status != http.StatusServiceUnavailable || decodeError(t, body).Error.Code != "durability_unavailable" {
		t.Fatalf("post-recovery update: %d %s, want sticky 503", status, body)
	}

	// And the server is not wedged: reads and health still answer.
	if v := query().Version; v != 1 {
		t.Fatalf("final read served version %d, want 1", v)
	}
	if h := healthz(); h.Status != "degraded" {
		t.Fatalf("final healthz status = %q, want degraded", h.Status)
	}
}
