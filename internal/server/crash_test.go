package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"divtopk"
	"divtopk/internal/fsx"
	"divtopk/internal/server"
	"divtopk/internal/wal"
)

// crashGraph builds a deterministic random graph for the crash fuzz: three
// labels, integer attributes (so patterns can carry predicates), and a dense
// enough edge set that the fixed query patterns actually match. It returns
// the graph and its edge list (the pool the delta chain deletes from).
func crashGraph(t *testing.T) (*divtopk.Graph, [][2]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	labels := []string{"A", "B", "C"}
	b := divtopk.NewGraphBuilder()
	const n = 40
	for i := 0; i < n; i++ {
		b.AddNode(labels[i%len(labels)], divtopk.Int("R", int64(rng.Intn(10))))
	}
	var edges [][2]int
	for i := 0; i < 150; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, [2]int{u, v})
	}
	return b.Build(), edges
}

// crashDeltas builds a deterministic chain of deltas: node appends with
// attributes, edge inserts (possibly duplicates — a no-op by delta
// semantics), and deletes drawn from the initial edge pool, each at most
// once so every delete targets an edge that still exists.
func crashDeltas(t *testing.T, nodes int, pool [][2]int, n int) []*divtopk.Delta {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	labels := []string{"A", "B", "C"}
	cur := nodes
	var ds []*divtopk.Delta
	for i := 0; i < n; i++ {
		d := &divtopk.Delta{}
		for j, appends := 0, rng.Intn(3); j < appends; j++ {
			d.AddNode(labels[rng.Intn(len(labels))], divtopk.Int("R", int64(rng.Intn(10))))
			cur++
		}
		for j, ins := 0, 2+rng.Intn(3); j < ins; j++ {
			d.InsertEdge(rng.Intn(cur), rng.Intn(cur))
		}
		if len(pool) > 0 && rng.Intn(2) == 0 {
			e := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			d.DeleteEdge(e[0], e[1])
		}
		ds = append(ds, d)
	}
	return ds
}

// crashPatterns are the fixed queries whose results the fuzz compares
// byte-for-byte between the crashed-and-recovered run and the reference run.
func crashPatterns(t *testing.T) []*divtopk.Pattern {
	t.Helper()
	var ps []*divtopk.Pattern
	{
		pb := divtopk.NewPatternBuilder()
		a := pb.AddNode("A")
		bn := pb.AddNode("B")
		if err := pb.AddEdge(a, bn); err != nil {
			t.Fatal(err)
		}
		p, err := pb.Build()
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	{
		pb := divtopk.NewPatternBuilder()
		bn := pb.AddNode("B", divtopk.Gt("R", 2))
		c := pb.AddNode("C")
		a := pb.AddNode("A")
		if err := pb.AddEdge(bn, c); err != nil {
			t.Fatal(err)
		}
		if err := pb.AddEdge(c, a); err != nil {
			t.Fatal(err)
		}
		p, err := pb.Build()
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

// resultSet maps a query tag to the JSON bytes of its wire response.
type resultSet map[string][]byte

// snapshotResults evaluates every fuzz query (top-k and diversified) on the
// session and returns the marshaled wire responses, version included.
func snapshotResults(t *testing.T, m *divtopk.Matcher, ps []*divtopk.Pattern) resultSet {
	t.Helper()
	out := resultSet{}
	put := func(tag string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[tag] = raw
	}
	for i, p := range ps {
		res, info, err := m.TopKInfo(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		put(fmt.Sprintf("topk:%d", i), server.NewQueryResponse(res, info.Version))
		dres, dinfo, err := m.TopKDiversifiedInfo(p, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		put(fmt.Sprintf("div:%d", i), server.NewDiversifiedResponse(dres, dinfo.Version))
	}
	return out
}

// assertSameResults compares two result sets byte-for-byte.
func assertSameResults(t *testing.T, got, want resultSet, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", context, len(got), len(want))
	}
	for tag, w := range want {
		if string(got[tag]) != string(w) {
			t.Fatalf("%s: query %s diverged:\n got %s\nwant %s", context, tag, got[tag], w)
		}
	}
}

// crashFuzzOptions is the persistence config of every fuzz run. The small
// rotation interval makes the byte stream cross several checkpoint
// rotations, so random crash offsets land in every phase: WAL appends,
// checkpoint tmp writes, the rename, the post-checkpoint truncate.
func crashFuzzOptions(dir string, fs fsx.FS) server.PersistOptions {
	return server.PersistOptions{Dir: dir, FS: fs, Policy: wal.SyncAlways, CheckpointEvery: 3}
}

// runPersistentUntilCrash boots a persistent registry over fs, registers the
// graph and applies deltas until one fails. Returns the number of
// acknowledged updates, or -1 if registration itself crashed (nothing was
// ever acknowledged).
func runPersistentUntilCrash(t *testing.T, dir string, fs fsx.FS, base *divtopk.Graph, deltas []*divtopk.Delta) int {
	t.Helper()
	reg, err := server.NewPersistentRegistry(crashFuzzOptions(dir, fs))
	if err != nil {
		return -1
	}
	if err := reg.Add("g", base); err != nil {
		return -1
	}
	m, _ := reg.Get("g")
	acked := 0
	for _, d := range deltas {
		if _, err := m.Update(d); err != nil {
			if !errors.Is(err, divtopk.ErrDurabilityUnavailable) {
				t.Fatalf("update failed with a non-durability error: %v", err)
			}
			break
		}
		acked++
	}
	// No clean shutdown: the process is "killed" here.
	return acked
}

// TestCrashRecoveryFuzz is the kill-and-recover fuzz of the issue: a
// persistent server run is killed at a random byte offset of its durability
// write stream; the rebooted registry must recover to exactly the
// acknowledged version, with TopK and TopKDiversified results byte-identical
// to a reference run that never crashed — and keep accepting the remaining
// updates afterwards.
func TestCrashRecoveryFuzz(t *testing.T) {
	base, edges := crashGraph(t)
	deltas := crashDeltas(t, base.NumNodes(), edges, 8)
	patterns := crashPatterns(t)

	// Reference run: the same lineage, never crashed, results recorded per
	// version.
	ref := make(map[uint64]resultSet)
	m := divtopk.NewMatcher(base)
	ref[0] = snapshotResults(t, m, patterns)
	for _, d := range deltas {
		g, err := m.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		ref[g.Version()] = snapshotResults(t, m, patterns)
	}

	// Pilot run measures the total bytes the durability layer writes, which
	// bounds the crash offsets of the fuzz runs.
	pilot := fsx.NewFault(fsx.OS())
	if acked := runPersistentUntilCrash(t, t.TempDir(), pilot, base, deltas); acked != len(deltas) {
		t.Fatalf("pilot run acked %d of %d updates", acked, len(deltas))
	}
	total := pilot.BytesWritten()
	if total == 0 {
		t.Fatal("pilot run wrote no bytes")
	}

	const seeds = 14
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			offset := 1 + rng.Int63n(total)
			dir := t.TempDir()
			fault := fsx.NewFault(fsx.OS())
			fault.CrashAfter(offset)
			acked := runPersistentUntilCrash(t, dir, fault, base, deltas)
			if !fault.Crashed() {
				t.Fatalf("offset %d of %d did not crash the run (acked %d)", offset, total, acked)
			}

			reg, err := server.NewPersistentRegistry(crashFuzzOptions(dir, fsx.OS()))
			if err != nil {
				t.Fatalf("recovery after crash at offset %d: %v", offset, err)
			}
			defer reg.Close()
			if acked < 0 {
				// Killed before registration completed: nothing was
				// acknowledged, so recovering nothing is correct.
				if reg.Len() != 0 {
					t.Fatalf("recovered %d graphs from a store that never acknowledged one", reg.Len())
				}
				return
			}
			m2, ok := reg.Get("g")
			if !ok {
				t.Fatalf("graph lost after crash at offset %d (acked %d)", offset, acked)
			}
			v := m2.Graph().Version()
			if v != uint64(acked) {
				t.Fatalf("recovered version %d, acknowledged %d", v, acked)
			}
			assertSameResults(t, snapshotResults(t, m2, patterns), ref[v],
				fmt.Sprintf("offset %d, version %d", offset, v))

			// The recovered session keeps going: the remaining updates apply
			// and land on the reference end state.
			for _, d := range deltas[v:] {
				if _, err := m2.Update(d); err != nil {
					t.Fatalf("update after recovery: %v", err)
				}
			}
			assertSameResults(t, snapshotResults(t, m2, patterns), ref[uint64(len(deltas))],
				"end state after recovery")
		})
	}
}

// TestCleanShutdownRestart: Close checkpoints every graph at its served
// version, so a restarted registry recovers it with nothing to replay and
// serves identical results.
func TestCleanShutdownRestart(t *testing.T) {
	t.Parallel()
	base, edges := crashGraph(t)
	deltas := crashDeltas(t, base.NumNodes(), edges, 4)
	patterns := crashPatterns(t)
	dir := t.TempDir()

	reg, err := server.NewPersistentRegistry(crashFuzzOptions(dir, fsx.OS()))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("g", base); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("g")
	for _, d := range deltas {
		if _, err := m.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotResults(t, m, patterns)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, err := server.NewPersistentRegistry(crashFuzzOptions(dir, fsx.OS()))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	m2, ok := reg2.Get("g")
	if !ok {
		t.Fatal("graph lost across clean restart")
	}
	if m2.Graph().Version() != uint64(len(deltas)) {
		t.Fatalf("restarted version = %d, want %d", m2.Graph().Version(), len(deltas))
	}
	assertSameResults(t, snapshotResults(t, m2, patterns), want, "clean restart")

	h := reg2.Health()
	if h.Status != "ok" || !h.Persistent || len(h.GraphStatus) != 1 {
		t.Fatalf("health after restart = %+v", h)
	}
	gs := h.GraphStatus[0]
	if gs.ServedVersion != uint64(len(deltas)) || gs.DurableVersion == nil || *gs.DurableVersion != gs.ServedVersion {
		t.Fatalf("graph health after restart = %+v", gs)
	}
}

// runPersistentBatchesUntilCrash is runPersistentUntilCrash for group
// commits: deltas are applied through Matcher.UpdateBatch in the given batch
// widths, so a crash can land inside a multi-record WAL write. Returns the
// number of acknowledged *versions* (every delta of an acked batch), or -1
// if registration itself crashed.
func runPersistentBatchesUntilCrash(t *testing.T, dir string, fs fsx.FS, base *divtopk.Graph, batches [][]*divtopk.Delta) int {
	t.Helper()
	reg, err := server.NewPersistentRegistry(crashFuzzOptions(dir, fs))
	if err != nil {
		return -1
	}
	if err := reg.Add("g", base); err != nil {
		return -1
	}
	m, _ := reg.Get("g")
	acked := 0
	for _, batch := range batches {
		if _, _, err := m.UpdateBatch(batch); err != nil {
			if !errors.Is(err, divtopk.ErrDurabilityUnavailable) {
				t.Fatalf("batch update failed with a non-durability error: %v", err)
			}
			break
		}
		acked += len(batch)
	}
	return acked
}

// TestCrashRecoveryBatchFuzz is the group-commit extension of the crash
// fuzz: runs are killed at random byte offsets while committing multi-delta
// batches, so crashes land inside a single multi-record WAL write. A torn
// batch write leaves a prefix of its per-request records, none of them
// acknowledged; recovery must reach at least every acknowledged version,
// never an inconsistent state, and every recovered version must answer
// queries byte-identically to the reference chain at that version.
func TestCrashRecoveryBatchFuzz(t *testing.T) {
	base, edges := crashGraph(t)
	deltas := crashDeltas(t, base.NumNodes(), edges, 9)
	patterns := crashPatterns(t)

	// Deterministic widths 2,3,2,... so most crashes land mid-batch.
	var batches [][]*divtopk.Delta
	for i, w := 0, 2; i < len(deltas); i, w = i+w, 5-w {
		end := i + w
		if end > len(deltas) {
			end = len(deltas)
		}
		batches = append(batches, deltas[i:end])
	}

	// Reference run: the sequential chain the batches are equivalent to,
	// results recorded at every version (recovery can surface any record
	// prefix, acked or not).
	ref := make(map[uint64]resultSet)
	m := divtopk.NewMatcher(base)
	ref[0] = snapshotResults(t, m, patterns)
	for _, d := range deltas {
		g, err := m.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		ref[g.Version()] = snapshotResults(t, m, patterns)
	}

	pilot := fsx.NewFault(fsx.OS())
	if acked := runPersistentBatchesUntilCrash(t, t.TempDir(), pilot, base, batches); acked != len(deltas) {
		t.Fatalf("pilot run acked %d of %d versions", acked, len(deltas))
	}
	total := pilot.BytesWritten()
	if total == 0 {
		t.Fatal("pilot run wrote no bytes")
	}

	const seeds = 14
	for seed := int64(100); seed < 100+seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			offset := 1 + rng.Int63n(total)
			dir := t.TempDir()
			fault := fsx.NewFault(fsx.OS())
			fault.CrashAfter(offset)
			acked := runPersistentBatchesUntilCrash(t, dir, fault, base, batches)
			if !fault.Crashed() {
				t.Fatalf("offset %d of %d did not crash the run (acked %d)", offset, total, acked)
			}

			reg, err := server.NewPersistentRegistry(crashFuzzOptions(dir, fsx.OS()))
			if err != nil {
				t.Fatalf("recovery after crash at offset %d: %v", offset, err)
			}
			defer reg.Close()
			if acked < 0 {
				if reg.Len() != 0 {
					t.Fatalf("recovered %d graphs from a store that never acknowledged one", reg.Len())
				}
				return
			}
			m2, ok := reg.Get("g")
			if !ok {
				t.Fatalf("graph lost after crash at offset %d (acked %d)", offset, acked)
			}
			v := m2.Graph().Version()
			// Durability may exceed the acks: a crash after the batch's WAL
			// write but before the acknowledgment leaves complete unacked
			// records, which recovery legitimately replays. It must never
			// fall below what was acknowledged, and never land outside the
			// chain.
			if v < uint64(acked) {
				t.Fatalf("recovered version %d below the %d acknowledged", v, acked)
			}
			if v > uint64(len(deltas)) {
				t.Fatalf("recovered version %d beyond the chain of %d", v, len(deltas))
			}
			assertSameResults(t, snapshotResults(t, m2, patterns), ref[v],
				fmt.Sprintf("offset %d, version %d", offset, v))

			// The recovered session finishes the chain (one batch per
			// remaining delta suffix) and lands on the reference end state.
			if rest := deltas[v:]; len(rest) > 0 {
				if _, _, err := m2.UpdateBatch(rest); err != nil {
					t.Fatalf("batch update after recovery: %v", err)
				}
			}
			assertSameResults(t, snapshotResults(t, m2, patterns), ref[uint64(len(deltas))],
				"end state after recovery")
		})
	}
}
