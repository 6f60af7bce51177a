package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"divtopk"
	"divtopk/internal/fsx"
	"divtopk/internal/graph"
	"divtopk/internal/oracle"
	"divtopk/internal/pattern"
	"divtopk/internal/server"
	"divtopk/internal/wal"
)

// FuzzDaemonHistory is the model of the daemon. Its input decodes into a
// history of at most historyOps operations against one persistent graph
// served over HTTP with the warm result cache on: queries of the four kinds,
// single updates, concurrent batches the coalescer merges, update-only runs
// longer than the warm cache's idle bound, a crash armed at a byte offset of
// the durability stream, and reboots over the same data directory. The
// model keeps its own node and edge lists and, at every acknowledged
// version, rebuilds the graph from scratch with the public builder. Every
// query response must equal, byte for byte with its cache field taken as
// reported, a cold package-level TopK or TopKDiversified on that rebuilt
// graph; every find-all answer must carry the (node, δr) list of
// oracle.MatchBaseline, the reference kernel; acks must form the
// sequential chain with the right first_node; /healthz must report the
// served version durable; queries asked while a batch's commit is parked
// must answer at the version before it; and a reboot must recover exactly
// what was acknowledged, plus at most a prefix of the unacknowledged members
// of a batch whose WAL write the crash tore.
//
// The seed corpus runs with go test; go test -fuzz explores from it, and a
// failing input lands under testdata/fuzz/FuzzDaemonHistory, where go test
// replays it.
func FuzzDaemonHistory(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seededTape(seed).b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newHistory(t, &tape{b: data}).run()
	})
}

const (
	// historyOps bounds a history's operations.
	historyOps = 48
	// idleRun is one update-only run: past the 16 commits after which the
	// warm cache forgets an answer nobody reads.
	idleRun = 17
	// historyCache is the daemon's result-cache capacity: small enough that
	// the LRU evicts within a history.
	historyCache = 48
)

// tape hands out the fuzz input a byte at a time; an exhausted tape reads
// zeros and ends the history.
type tape struct{ b []byte }

// seededTape is 640 random bytes from seed.
func seededTape(seed int64) *tape {
	b := make([]byte, 640)
	rand.New(rand.NewSource(seed)).Read(b)
	return &tape{b: b}
}

func (tp *tape) byte() byte {
	if len(tp.b) == 0 {
		return 0
	}
	c := tp.b[0]
	tp.b = tp.b[1:]
	return c
}

// n returns a value in [0, k) (0 for k <= 0).
func (tp *tape) n(k int) int {
	if k <= 0 {
		return 0
	}
	v := int(tp.byte())
	if k > 256 {
		v = v<<8 | int(tp.byte())
	}
	return v % k
}

// world is the fixed start of a history: the base graph's content and a
// pool of more mined patterns than the warm cache maintains, as text and
// parsed.
type world struct {
	labels   []string
	rs       []int64
	edges    [][2]int
	texts    []string
	patterns []*divtopk.Pattern
}

var worlds = [2]func() *world{
	sync.OnceValue(func() *world { return newWorld(1, 120, 340) }),
	sync.OnceValue(func() *world { return newWorld(2, 150, 300) }),
}

// newWorld builds a random graph of n nodes over labels A, B, C with an
// integer attribute R, and mines 20 distinct patterns of 2–4 nodes from it,
// half of them with predicates on R and some cyclic.
func newWorld(seed int64, n, m int) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{}
	b := divtopk.NewGraphBuilder()
	for i := 0; i < n; i++ {
		w.labels = append(w.labels, string(rune('A'+i%3)))
		w.rs = append(w.rs, int64(rng.Intn(10)))
		b.AddNode(w.labels[i], divtopk.Int("R", w.rs[i]))
	}
	seen := map[[2]int]bool{}
	for len(w.edges) < m {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		if !seen[e] {
			seen[e] = true
			w.edges = append(w.edges, e)
			if err := b.AddEdge(e[0], e[1]); err != nil {
				panic(err)
			}
		}
	}
	g := b.Build()
	have := map[string]bool{}
	for s := int64(0); len(w.texts) < 20; s++ {
		nodes := 2 + int(s%3)
		p, err := divtopk.GeneratePattern(g, nodes, nodes-1+int(s/3%3), s%4 == 1, s%2 == 0, seed*1000+s)
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := divtopk.WritePattern(&buf, p); err != nil {
			panic(err)
		}
		if text := buf.String(); !have[text] {
			// What the daemon parses: the pattern read back from its text.
			if p, err = divtopk.ReadPattern(&buf); err != nil {
				panic(err)
			}
			have[text] = true
			w.texts = append(w.texts, text)
			w.patterns = append(w.patterns, p)
		}
	}
	return w
}

// model is the graph the acknowledged updates define: labels, R values and
// the edge set, at version version.
type model struct {
	labels []string
	rs     []int64
	edges  map[[2]int]bool
	ver    uint64
	g      *divtopk.Graph // rebuilt lazily, dropped by apply
}

func newModel(w *world) *model {
	m := &model{labels: slices.Clone(w.labels), rs: slices.Clone(w.rs), edges: map[[2]int]bool{}}
	for _, e := range w.edges {
		m.edges[e] = true
	}
	return m
}

func (m *model) clone() *model {
	return &model{labels: slices.Clone(m.labels), rs: slices.Clone(m.rs), edges: maps.Clone(m.edges), ver: m.ver}
}

// sortedEdges lists the edge set in (source, target) order.
func (m *model) sortedEdges() [][2]int {
	es := make([][2]int, 0, len(m.edges))
	for e := range m.edges {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return es
}

// apply advances the model by one acknowledged request whose appends landed
// at first: deletes before inserts, as a delta applies.
func (m *model) apply(req *server.UpdateRequest, first int) {
	for _, nd := range req.AddNodes {
		m.labels = append(m.labels, nd.Label)
		m.rs = append(m.rs, int64(nd.Attrs["R"].(int)))
	}
	id := func(x int) int {
		if x < 0 {
			return first - 1 - x
		}
		return x
	}
	for _, e := range req.DelEdges {
		delete(m.edges, [2]int{id(e[0]), id(e[1])})
	}
	for _, e := range req.AddEdges {
		m.edges[[2]int{id(e[0]), id(e[1])}] = true
	}
	m.ver++
	m.g = nil
}

// graph rebuilds the model's graph from scratch through the public builder —
// never through ApplyDelta or Delta.Merge, the code under test.
func (m *model) graph() *divtopk.Graph {
	if m.g == nil {
		b := divtopk.NewGraphBuilder()
		for i, l := range m.labels {
			b.AddNode(l, divtopk.Int("R", m.rs[i]))
		}
		for _, e := range m.sortedEdges() {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				panic(err)
			}
		}
		m.g = b.Build()
	}
	return m.g
}

// dump renders a graph's content — per node its label, R and sorted
// successors — so a recovered graph can be compared with the model's.
func dump(g *divtopk.Graph) string {
	gg := g.Unwrap().(*graph.Graph)
	var b strings.Builder
	for v := 0; v < g.NumNodes(); v++ {
		r, _ := g.Attr(v, "R")
		fmt.Fprintf(&b, "%d %s R=%s -> %v\n", v, g.Label(v), r, gg.Out(graph.NodeID(v)))
	}
	return b.String()
}

// gatedFS holds the next File.Sync until released: a batch parks its first
// member's commit in its WAL sync so the members posted behind it queue up
// and the coalescer merges them into one commit.
type gatedFS struct {
	fsx.FS
	mu      sync.Mutex
	hold    chan struct{}
	entered chan struct{}
}

type gatedFile struct {
	fsx.File
	fs *gatedFS
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

func (f gatedFile) Sync() error {
	f.fs.mu.Lock()
	hold, entered := f.fs.hold, f.fs.entered
	f.fs.hold = nil
	f.fs.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	return f.File.Sync()
}

// arm makes the next Sync wait; entered closes when one does, and release
// lets it go (or disarms the gate if no Sync came). Release is idempotent.
func (g *gatedFS) arm() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	hold, ent := make(chan struct{}), make(chan struct{})
	g.hold, g.entered = hold, ent
	return ent, sync.OnceFunc(func() {
		g.mu.Lock()
		g.hold = nil
		g.mu.Unlock()
		close(hold)
	})
}

// daemon is one boot of the server: a persistent registry over a Fault in
// dir, behind the HTTP handler.
type daemon struct {
	fault *fsx.Fault
	gate  *gatedFS
	reg   *server.Registry
	srv   *server.Server
	ts    *httptest.Server
}

// boot starts a daemon over dir that checkpoints every `every` versions,
// registering base as graph "g" when given (first boot) and recovering the
// directory otherwise.
func boot(t *testing.T, dir string, every int, base *divtopk.Graph) *daemon {
	t.Helper()
	d := &daemon{fault: fsx.NewFault(fsx.OS())}
	d.gate = &gatedFS{FS: d.fault}
	reg, err := server.NewPersistentRegistry(server.PersistOptions{
		Dir: dir, FS: d.gate, Policy: wal.SyncAlways, CheckpointEvery: every,
	}, divtopk.WithCache(historyCache))
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	d.reg = reg
	if base != nil {
		if err := reg.Add("g", base); err != nil {
			t.Fatal(err)
		}
	}
	d.srv = server.New(reg, server.Config{})
	d.ts = httptest.NewServer(d.srv.Handler())
	return d
}

// kill ends the daemon the way a killed process ends: nothing more reaches
// the disk (the crash point is set at the current byte), and Close only
// releases the files.
func (d *daemon) kill() {
	d.ts.Close()
	d.fault.CrashAfter(d.fault.BytesWritten())
	_ = d.reg.Close()
}

func (d *daemon) post(t *testing.T, path string, body any) (int, []byte) {
	raw, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := d.ts.Client().Post(d.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Error(err)
	}
	return resp.StatusCode, out.Bytes()
}

// history is one run: the world, the daemon, the model, and what the
// durability layer may still surface on the next reboot.
type history struct {
	t     *testing.T
	tp    *tape
	w     *world
	dir   string
	every int // the checkpoint interval
	d     *daemon
	m     *model
	// pending are the valid members of batches that failed with the crash,
	// in no known order: a torn multi-record WAL write can leave a prefix of
	// them durable.
	pending []*server.UpdateRequest
	// what the history did, for -v
	queries, advanced, updates, batches, merged, crashes, reboots, idles, inDoubt, surfaced int
}

// newHistory boots a daemon over the world the tape's first byte picks, with
// the checkpoint interval its second byte picks (often, so a crash can land
// in a checkpoint; or never within a history, so it lands in the WAL) and
// the model at version 0. The daemon is killed when the test ends.
func newHistory(t *testing.T, tp *tape) *history {
	w := worlds[tp.n(len(worlds))]()
	h := &history{t: t, tp: tp, w: w, dir: t.TempDir(), every: []int{3, 8, 64}[tp.n(3)], m: newModel(w)}
	h.d = boot(t, h.dir, h.every, h.m.graph())
	t.Cleanup(func() { h.d.kill() })
	return h
}

// run decodes the rest of the tape into operations.
func (h *history) run() {
	t, tp, w := h.t, h.tp, h.w
	for op := 0; op < historyOps && len(tp.b) > 0 && !t.Failed(); op++ {
		switch c := tp.n(32); {
		case c < 14:
			h.ask()
		case c < 15:
			// A burst over the whole pool: more patterns than the warm
			// registry holds.
			for i := range w.texts {
				h.query(0, i, 3, 0)
			}
		case c < 22:
			h.single()
		case c < 27:
			h.batch()
		case c < 28:
			h.idles++
			for i := 0; i < idleRun && !t.Failed(); i++ {
				h.single()
			}
		case c < 30:
			if !h.d.fault.Crashed() {
				h.crashes++
				h.d.fault.CrashAfter(h.d.fault.BytesWritten() + 1 + int64(tp.n(1<<16)%3000))
			}
		default:
			h.restart(false)
		}
	}
	h.health()
	h.log()
}

// log reports what the history did (go test -v).
func (h *history) log() {
	h.t.Logf("%d queries (%d advanced), %d updates, %d batches (%d acks of merged commits), %d idle runs, %d crashes armed, "+
		"%d reboots (%d with batch members in doubt, %d recovered beyond the acks); version %d",
		h.queries, h.advanced, h.updates, h.batches, h.merged, h.idles, h.crashes, h.reboots, h.inDoubt, h.surfaced, h.m.ver)
}

// ask asks one query: three times in four one of the hot shapes, so answers
// are asked again after the commits that advance them; otherwise any kind on
// any pattern with a random k and λ.
func (h *history) ask() {
	tp := h.tp
	if i := tp.n(32); i < 24 {
		h.hot(i % hotShapes)
		return
	}
	h.query(tp.n(4), tp.n(len(h.w.texts)), 1+tp.n(6), float64(tp.n(5))/4)
}

// hotShapes is the number of hot shapes: every kind on three patterns.
const hotShapes = 8

// hot asks hot shape i.
func (h *history) hot(i int) { h.query(i%4, i%3, 2+i%3, 0.5) }

// query asks one shape and checks the answer against the model.
func (h *history) query(kind, pi, k int, lambda float64) {
	t := h.t
	h.queries++
	req := server.QueryRequest{Graph: "g", Pattern: h.w.texts[pi], K: k}
	path := "/v1/query"
	switch kind {
	case 1:
		req.Baseline = true
	case 2, 3:
		path += "/diversified"
		req.Lambda, req.Approx = lambda, kind == 3
	}
	status, body := h.d.post(t, path, req)
	if status != http.StatusOK {
		t.Fatalf("query %+v: status %d: %s", req, status, body)
	}
	var got struct {
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	switch got.Cache {
	case "advanced":
		h.advanced++
	case "hit", "miss":
	default:
		t.Fatalf("query %+v: cache %q", req, got.Cache)
	}
	g, p := h.m.graph(), h.w.patterns[pi]
	var want any
	var found []divtopk.Match
	switch kind {
	case 0, 1:
		res, err := divtopk.TopK(g, p, k)
		if err != nil {
			t.Fatal(err)
		}
		r := server.NewQueryResponse(res, h.m.ver)
		r.Cache = got.Cache
		want, found = r, res.Matches
	default:
		var opts []divtopk.Option
		if kind == 3 {
			opts = append(opts, divtopk.WithApproximation())
		}
		res, err := divtopk.TopKDiversified(g, p, k, lambda, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := server.NewDiversifiedResponse(res, h.m.ver)
		r.Cache = got.Cache
		want, found = r, res.Matches
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatalf("%s %+v at version %d: the daemon's answer differs from a cold evaluation of the rebuilt graph:\n got %s\nwant %s",
			path, req, h.m.ver, body, buf.Bytes())
	}
	if kind == 2 {
		return // TopKDH's values are its engine's bounds, not the find-all pool's
	}
	ora, err := oracle.MatchBaseline(g.Unwrap().(*graph.Graph), p.UnwrapPattern().(*pattern.Pattern), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := map[int]int{}
	for _, om := range ora.All {
		pool[int(om.Node)] = om.Relevance
	}
	if kind < 2 && len(found) != len(ora.Matches) {
		t.Fatalf("%s %+v: %d matches, the reference kernel has %d", path, req, len(found), len(ora.Matches))
	}
	for i, fm := range found {
		if r, ok := pool[fm.Node]; !ok || r != fm.Relevance || (kind < 2 && int(ora.Matches[i].Node) != fm.Node) {
			t.Fatalf("%s %+v at version %d: match %d (node %d, δr %d) disagrees with the reference kernel's pool %v",
				path, req, h.m.ver, i, fm.Node, fm.Relevance, ora.Matches)
		}
	}
}

// request draws one update over the n nodes before it: up to two appends,
// now and then with a label no pattern uses; up to two deletes taken from
// the front of pool, so the deletes of a batch are disjoint edges; and up to
// three inserts among the n nodes and the request's own appends, by
// self-reference or, from a sole writer, by absolute ID. One insert in four
// re-inserts an edge the batch deletes, which is valid in either order.
func (h *history) request(n int, pool, deleted *[][2]int, sole bool) *server.UpdateRequest {
	tp := h.tp
	req := &server.UpdateRequest{}
	for i := tp.n(3); i > 0; i-- {
		label := string(rune('A' + tp.n(3)))
		if tp.n(8) == 0 {
			label = fmt.Sprintf("N%d", tp.n(4))
		}
		req.AddNodes = append(req.AddNodes, server.UpdateNode{Label: label, Attrs: map[string]any{"R": tp.n(10)}})
	}
	for i := tp.n(3); i > 0 && len(*pool) > 0; i-- {
		e := (*pool)[0]
		*pool, *deleted = (*pool)[1:], append(*deleted, e)
		req.DelEdges = append(req.DelEdges, server.EdgePair{e[0], e[1]})
	}
	abs, a := 0, len(req.AddNodes)
	if sole {
		abs = a
	}
	end := func() int {
		if j := tp.n(n + abs + a); j < n+abs {
			return j
		} else {
			return n + abs - 1 - j
		}
	}
	for i := tp.n(4); i > 0; i-- {
		if len(*deleted) > 0 && tp.n(4) == 0 {
			e := (*deleted)[tp.n(len(*deleted))]
			req.AddEdges = append(req.AddEdges, server.EdgePair{e[0], e[1]})
		} else {
			req.AddEdges = append(req.AddEdges, server.EdgePair{end(), end()})
		}
	}
	return req
}

// malform makes req invalid in whatever order it is merged: a
// self-reference past its appends, a node past any batch's appends, or a
// delete of an edge the graph does not have, which it returns.
func (h *history) malform(req *server.UpdateRequest) *server.EdgePair {
	switch h.tp.n(3) {
	case 0:
		req.AddEdges = append(req.AddEdges, server.EdgePair{0, -1 - len(req.AddNodes)})
	case 1:
		req.AddEdges = append(req.AddEdges, server.EdgePair{1 << 20, 0})
	default:
		for u := 0; ; u++ {
			for v := range h.m.labels {
				if !h.m.edges[[2]int{u, v}] {
					req.DelEdges = append(req.DelEdges, server.EdgePair{u, v})
					return &req.DelEdges[len(req.DelEdges)-1]
				}
			}
		}
	}
	return nil
}

// single posts one update; one in eight is malformed.
func (h *history) single() {
	h.updates++
	pool, deleted := h.shuffledEdges(), [][2]int(nil)
	req := h.request(len(h.m.labels), &pool, &deleted, true)
	bad := -1
	if h.tp.n(8) == 0 {
		bad = 0
	}
	h.commit([]*server.UpdateRequest{req}, bad)
}

// batch posts 2–4 requests at once. Every member is valid in any order it
// may be merged in: members reference only nodes that existed before the
// batch and their own appends, by self-reference, and delete disjoint edges
// of the pre-batch graph. In one batch in four one member is malformed in
// any order, and only it may be refused.
func (h *history) batch() {
	h.batches++
	n, size := len(h.m.labels), 2+h.tp.n(3)
	pool, deleted := h.shuffledEdges(), [][2]int(nil)
	reqs := make([]*server.UpdateRequest, size)
	for i := range reqs {
		reqs[i] = h.request(n, &pool, &deleted, false)
	}
	bad := -1
	if h.tp.n(4) == 0 {
		bad = h.tp.n(size)
	}
	h.commit(reqs, bad)
}

// shuffledEdges lists the model's edges in an order the tape picks.
func (h *history) shuffledEdges() [][2]int {
	es := h.m.sortedEdges()
	rand.New(rand.NewSource(int64(h.tp.byte()))).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// commit posts reqs at once, reqs[bad] malformed (none for bad < 0), and
// checks the outcome against the model. The malformed request must get its
// 400 and the others their acks, or 503s once the crash fired: the acks, in
// version order, must continue the model's chain with the right first_node,
// and the last ack of each commit must report the graph the model has after
// it. With more than one request the first one's commit is parked in its WAL
// sync until the others wait in the coalescer's queue, so they commit as one
// merged batch; queries asked while it is parked must answer at the version
// before the batch.
func (h *history) commit(reqs []*server.UpdateRequest, bad int) {
	t, tp, m := h.t, h.tp, h.m
	if bad >= 0 {
		// The missing edge stays missing whatever the order: nobody inserts it.
		if missing := h.malform(reqs[bad]); missing != nil {
			for _, r := range reqs {
				r.AddEdges = slices.DeleteFunc(r.AddEdges, func(e server.EdgePair) bool { return e == *missing })
			}
		}
	}
	type result struct {
		status int
		body   []byte
	}
	results := make([]result, len(reqs))
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		results[i].status, results[i].body = h.d.post(t, "/v1/graphs/g/updates", reqs[i])
	}
	crashed := h.d.fault.Crashed()
	var entered <-chan struct{}
	release := func() {}
	if len(reqs) > 1 {
		entered, release = h.d.gate.arm()
		defer release() // a failed check must not leave the commit parked
	}
	first := make(chan struct{})
	wg.Add(1)
	go func() { send(0); close(first) }()
	var asked []int
	parked := false
	select {
	case <-entered:
		// Parked before it installs its warm answers and publishes. A query
		// on a pattern the warm registry does not hold admits a state the
		// commit's pass never saw, at the version the commit leaves behind;
		// the same pattern is asked again once the batch is in.
		parked = true
		for j := 1 + tp.n(3); j > 0; j-- {
			asked = append(asked, tp.n(len(h.w.texts)))
			h.query(0, asked[len(asked)-1], 2, 0)
		}
	case <-first:
	}
	wg.Add(len(reqs) - 1)
	for i := 1; i < len(reqs); i++ {
		go send(i)
	}
	// Behind a parked commit the others queue up and commit merged.
	for deadline := time.Now().Add(5 * time.Second); parked && h.d.srv.QueuedUpdates("g") < len(reqs)-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d updates queued behind a parked commit", h.d.srv.QueuedUpdates("g"), len(reqs)-1)
		}
		time.Sleep(50 * time.Microsecond)
	}
	release()
	wg.Wait()
	if t.Failed() {
		return
	}

	type ack struct {
		i  int
		ur server.UpdateResponse
	}
	var acks []ack
	var failed []*server.UpdateRequest
	for i, r := range results {
		var er server.ErrorResponse
		switch {
		case r.status == http.StatusOK && i != bad:
			var ur server.UpdateResponse
			if err := json.Unmarshal(r.body, &ur); err != nil {
				t.Fatal(err)
			}
			acks = append(acks, ack{i, ur})
		case json.Unmarshal(r.body, &er) != nil:
			t.Fatalf("update %+v: status %d: %s", reqs[i], r.status, r.body)
		case i == bad && (r.status != http.StatusBadRequest || er.Error.Code != "bad_delta"):
			t.Fatalf("malformed update %+v: status %d: %s", reqs[i], r.status, r.body)
		case i != bad && (r.status != http.StatusServiceUnavailable || er.Error.Code != "durability_unavailable" || !h.d.fault.Crashed()):
			t.Fatalf("update %+v refused: status %d: %s", reqs[i], r.status, r.body)
		case i != bad:
			failed = append(failed, reqs[i])
		}
	}
	slices.SortFunc(acks, func(a, b ack) int { return int(a.ur.Version) - int(b.ur.Version) })
	var commitEnd uint64
	for _, a := range acks {
		req, ur, first := reqs[a.i], &a.ur, len(m.labels)
		switch {
		case ur.Version != m.ver+1:
			t.Fatalf("update %+v acked version %d after version %d", req, ur.Version, m.ver)
		case ur.Index.BatchWidth < 1 || ur.Index.BatchWidth > len(acks):
			t.Fatalf("update %+v: batch width %d with %d acks", req, ur.Index.BatchWidth, len(acks))
		case (len(req.AddNodes) == 0) != (ur.FirstNode == nil) || ur.FirstNode != nil && *ur.FirstNode != first:
			t.Fatalf("update %+v at version %d: first_node %v, want %d", req, ur.Version, ur.FirstNode, first)
		}
		if ur.Version > commitEnd {
			commitEnd = ur.Version + uint64(ur.Index.BatchWidth) - 1
		}
		if ur.Index.BatchWidth > 1 {
			h.merged++
		}
		m.apply(req, first)
		if ur.Version == commitEnd && (ur.Nodes != len(m.labels) || ur.Edges != len(m.edges)) {
			t.Fatalf("update %+v: ack says %d nodes, %d edges; the model has %d nodes, %d edges after version %d",
				req, ur.Nodes, ur.Edges, len(m.labels), len(m.edges), m.ver)
		}
	}
	if !crashed && len(reqs) > 1 {
		// Failed by the crash this batch fired: the torn write may have left
		// a prefix of them durable. A single record is durable whole or not
		// at all, and past the crash nothing reaches the disk.
		h.pending = append(h.pending, failed...)
	}
	h.health()
	for _, pi := range asked {
		h.query(tp.n(4), pi, 4, 0.5)
	}
}

// health checks /healthz: the served version is the model's and is durable,
// and the status is degraded exactly when the crash fired.
func (h *history) health() {
	t := h.t
	resp, err := h.d.ts.Client().Get(h.d.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hl server.Health
	if err := json.NewDecoder(resp.Body).Decode(&hl); err != nil {
		t.Fatal(err)
	}
	if len(hl.GraphStatus) != 1 {
		t.Fatalf("healthz: %+v", hl)
	}
	gs := hl.GraphStatus[0]
	if gs.ServedVersion != h.m.ver || gs.DurableVersion == nil || *gs.DurableVersion != gs.ServedVersion {
		t.Fatalf("healthz at model version %d: served %d, durable %v", h.m.ver, gs.ServedVersion, gs.DurableVersion)
	}
	if crashed := h.d.fault.Crashed(); gs.Degraded != crashed || (hl.Status == "degraded") != crashed {
		t.Fatalf("healthz: status %q, degraded %v, but crashed is %v", hl.Status, gs.Degraded, crashed)
	}
}

// restart kills the daemon, or shuts it down cleanly, and starts a new one
// over the same directory. It must recover every acknowledged update and, of
// the requests the crash failed, at most a prefix of one order of the
// pending batch members.
func (h *history) restart(clean bool) {
	t := h.t
	h.reboots++
	if clean {
		h.d.ts.Close()
		if err := h.d.reg.Close(); err != nil {
			t.Fatalf("clean shutdown: %v", err)
		}
	} else {
		h.d.kill()
	}
	h.d = boot(t, h.dir, h.every, nil)
	mt, ok := h.d.reg.Get("g")
	if !ok {
		t.Fatal("graph lost across the reboot")
	}
	g := mt.Graph()
	extra := int(g.Version()) - int(h.m.ver)
	if len(h.pending) > 0 {
		h.inDoubt++
	}
	if extra > 0 {
		h.surfaced++
	}
	if extra < 0 || extra > len(h.pending) {
		t.Fatalf("recovered version %d; acknowledged %d with %d batch members in doubt", g.Version(), h.m.ver, len(h.pending))
	}
	if m := h.recovered(h.m, h.pending, extra, dump(g)); m != nil {
		h.m = m
	} else {
		t.Fatalf("recovered version %d holds a graph no order of the %d members in doubt produces:\n%s", g.Version(), len(h.pending), dump(g))
	}
	h.pending = nil
	h.health()
}

// recovered returns the model advanced by extra of the pending requests, in
// some order, whose graph is want; nil if none is.
func (h *history) recovered(m *model, pending []*server.UpdateRequest, extra int, want string) *model {
	if extra == 0 {
		if dump(m.graph()) == want {
			return m
		}
		return nil
	}
	for i, req := range pending {
		next := m.clone()
		next.apply(req, len(next.labels))
		rest := append(slices.Clone(pending[:i]), pending[i+1:]...)
		if got := h.recovered(next, rest, extra-1, want); got != nil {
			return got
		}
	}
	return nil
}
