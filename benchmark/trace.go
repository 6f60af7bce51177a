package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"divtopk"
	"divtopk/internal/cache"
	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/durable"
	"divtopk/internal/fsx"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/server"
	"divtopk/internal/simulation"
	"divtopk/internal/wal"
)

// The traced pass takes the per-layer metrics from outside the program: the
// daemon's own code carries no spans yet, so the benchmark replays the run's
// inputs in-process, calls the layers' public functions in pipeline order and
// records a span around each call. Counters a client can see (cache
// statistics, batch widths, index-maintenance stats on update responses, the
// data directory) come from a short run of the real daemon.

// span is one timed call into a layer. Spans of one request share req; parent
// is the index of the enclosing span, -1 for a request's root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens a root span for a new request.
func (t *tracer) request(name string) {
	t.req++
	t.begin(name)
}

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: t.req})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
}

func (t *tracer) in(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// selfNs is each span's duration minus the part its child spans cover.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// ms returns the durations (self times with self=true) of the spans named
// name, in milliseconds.
func (t *tracer) ms(name string, self bool) []float64 {
	var selfNs []int64
	if self {
		selfNs = t.selfNs()
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.EndNs - s.StartNs
		if self {
			d = selfNs[i]
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// perRequestMs sums, per request, the durations of the spans named by names.
func (t *tracer) perRequestMs(root string, names ...string) []float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	sums := make(map[int]float64)
	var order []int
	for _, s := range t.spans {
		if s.Name == root {
			order = append(order, s.Req)
			sums[s.Req] += 0
		}
		if want[s.Name] {
			sums[s.Req] += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	out := make([]float64, 0, len(order))
	for _, r := range order {
		out = append(out, sums[r])
	}
	return out
}

const (
	traceDaemonShare = 0.25 // share of -seconds the traced pass drives the real daemon
	tracePatterns    = 12   // patterns whose four kinds are staged in-process
	traceCommits     = 32   // updates replayed through each commit chain
	warmStates       = 16   // maxWarmPatterns of the matcher: pattern states a session maintains
)

// countingFS counts the fsyncs the durability layers issue.
type countingFS struct {
	fsx.FS
	syncs *int
}

type countingFile struct {
	fsx.File
	syncs *int
}

func (f countingFile) Sync() error { *f.syncs++; return f.File.Sync() }

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.syncs}, nil
}

func (c countingFS) SyncDir(name string) error { *c.syncs++; return c.FS.SyncDir(name) }

// storeSink lets a facade Matcher log through a durable.Store, as the
// serving layer's adapter does.
type storeSink struct{ store *durable.Store }

func (s storeSink) AppendDelta(g *divtopk.Graph, d *divtopk.Delta) error {
	return s.store.Append(g.Unwrap().(*graph.Graph), d.Unwrap().(*graph.Delta))
}

func (s storeSink) AppendBatch(g *divtopk.Graph, ds []*divtopk.Delta) error {
	raw := make([]*graph.Delta, len(ds))
	for i, d := range ds {
		raw[i] = d.Unwrap().(*graph.Delta)
	}
	return s.store.AppendBatch(g.Unwrap().(*graph.Graph), raw)
}

// layers accumulates the per-layer metrics of one traced pass.
type layers struct {
	r       *run
	tr      *tracer
	metrics map[string]metricValue
	samples map[string]int
	notes   []string
	fails   []string
	// hitP50us is the loopback p50 of answers the daemon served from its
	// cache; 0 where the workload's daemon has none.
	hitP50us float64
}

func (l *layers) put(name, unit string, v float64) {
	l.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (l *layers) fail(format string, args ...any) {
	if len(l.fails) < 20 {
		l.fails = append(l.fails, fmt.Sprintf(format, args...))
	}
}

// executeTraced runs the traced pass of one workload and computes the
// per-layer metrics of BENCHMARK.json. End-to-end metrics are never taken
// from it.
func (r *run) executeTraced() (*result, error) {
	var err error
	if r.scratch, err = scratchDir(r.root); err != nil {
		return nil, err
	}
	if err := r.generate(); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	l := &layers{r: r, tr: newTracer(), metrics: make(map[string]metricValue), samples: make(map[string]int)}
	l.put("loadgen.inputs_s", "s", r.inputsS)

	t := time.Now()
	if err := l.outside(); err != nil {
		return nil, err
	}
	t = r.phase("daemon pass", t)
	if err := l.queries(); err != nil {
		return nil, err
	}
	t = r.phase("staged queries", t)
	if err := l.commits(); err != nil {
		return nil, err
	}
	t = r.phase("staged commits", t)
	if err := l.micro(); err != nil {
		return nil, err
	}
	r.phase("layer probes", t)
	if err := l.writeSpans(); err != nil {
		return nil, err
	}

	res := &result{
		Workload: r.wl.name, Seed: r.seed, Seconds: r.seconds, Clients: r.clients,
		Metrics: l.metrics, Samples: l.samples, Notes: l.notes, Checks: r.report,
	}
	res.Checks.Failures = append(res.Checks.Failures, l.fails...)
	w := r.writer.total
	res.Attempted = r.q.attempted + w.attempted + r.probeQ.attempted + l.samples["staged_query"] + l.samples["staged_commit"]
	res.Failed = r.q.failed + w.failed + r.probeQ.failed + len(res.Checks.Failures)
	if r.warmed != nil {
		res.Attempted += r.warmed.attempted
		res.Failed += r.warmed.failed
	}
	res.Correct = len(res.Checks.Failures) == 0
	return res, nil
}

// outside drives the real daemon for a share of the window and reads the
// counters a client can see.
func (l *layers) outside() error {
	r := l.r
	if err := r.setUp(1); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() { r.d.kill() }() // before the in-process replay starts measuring
	l.put("daemon.boot_s", "s", r.bootS[0])
	r.drive(r.seconds * traceDaemonShare)

	acks := r.writer.total.acks
	if err := checkAcks(acks, r.in); err != nil {
		l.fail("acks: %v", err)
	}
	r.report.Acks = len(acks)
	var width float64
	for _, a := range acks {
		width += float64(a.ack.Index.BatchWidth)
	}
	l.put("server.batch_width_mean", "count", width/float64(max(len(acks), 1)))

	info, err := r.d.graphInfo()
	if err != nil {
		return err
	}
	c := info.Cache
	lookups := c.Hits + c.Misses + c.Coalesced
	l.put("cache.hit_rate", "share", float64(c.Hits)/float64(max(lookups, 1)))
	l.put("cache.evictions", "count", float64(c.Evictions))
	commits := float64(max(len(acks), 1))
	l.put("matcher.advanced_per_commit", "count", float64(c.Advanced)/commits)
	l.put("matcher.advance_evicted_per_commit", "count", float64(c.AdvanceEvicted)/commits)

	// How the first answers at a new version were served. A daemon without a
	// cache reports no provenance; every such answer is an evaluation.
	shares := map[string]float64{}
	for _, s := range r.pc {
		if s.cache == "" {
			s.cache = "miss"
		}
		shares[s.cache]++
	}
	for _, k := range []string{"advanced", "hit", "miss", "seeded"} {
		l.put("matcher.post_commit_share."+k, "share", shares[k]/float64(max(len(r.pc), 1)))
	}
	l.samples["post_commit"] = len(r.pc)

	if !r.wl.cacheOff {
		l.hitP50us = percentile(sortedCopy(nsToMs(r.q.all())), 50) * 1000
	}

	var checkpoints int
	var diskBytes int64
	if r.wl.durable {
		checkpoints = len(acks) / checkpointEvery
		filepath.Walk(r.dataDir(0), func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				diskBytes += fi.Size()
			}
			return nil
		})
	}
	l.put("durable.checkpoints", "count", float64(checkpoints))
	l.put("durable.disk_bytes", "bytes", float64(diskBytes))
	l.put("daemon.peak_rss_mb", "MB", r.d.peakRSSMB())
	return nil
}

func fromCore(ms []core.Match) []answerMatch {
	out := make([]answerMatch, len(ms))
	for i, m := range ms {
		out[i] = answerMatch{Node: int(m.Node), Relevance: m.Relevance, Upper: m.Upper, Exact: m.Exact}
	}
	return out
}

// evalKind evaluates one kind from settled state (candidates, product,
// fixpoint), each remaining stage under its own span, exactly as the
// matcher's warm path dispatches it.
func (l *layers) evalKind(g *graph.Graph, p *pattern.Pattern, k kind, pre *core.PrebuiltEval, bc *core.BoundsCache, reeval bool) (*answer, *core.Result, error) {
	eng := core.Options{Bounds: core.BoundLabelCount, Cache: bc, Prebuilt: pre}
	name := func(stage string) string {
		if reeval {
			return "core.reeval"
		}
		return stage
	}
	var (
		res  *core.Result
		dres *diversify.Result
		err  error
	)
	switch k {
	case kTopK:
		l.tr.in(name("core.engine"), func() { res, err = core.TopK(g, p, queryK, eng) })
	case kMatch:
		l.tr.in(name("simulation.relevant"), func() { res, err = core.MatchBaselineOpts(g, p, queryK, true, eng) })
	case kTopKDiv:
		if reeval {
			l.tr.in("core.reeval", func() {
				if res, err = core.MatchBaselineOpts(g, p, queryK, true, eng); err == nil {
					dres, err = diversify.TopKDivFromBase(res, queryK, queryLambda, eng)
				}
			})
		} else {
			l.tr.in("simulation.relevant", func() { res, err = core.MatchBaselineOpts(g, p, queryK, true, eng) })
			if err == nil {
				l.tr.in("diversify.select", func() { dres, err = diversify.TopKDivFromBase(res, queryK, queryLambda, eng) })
			}
		}
	case kTopKDH:
		l.tr.in(name("diversify.topkdh"), func() { dres, err = diversify.TopKDH(g, p, queryK, queryLambda, eng) })
	}
	if err != nil {
		return nil, nil, err
	}
	if dres != nil {
		return &answer{GlobalMatch: dres.GlobalMatch, F: &dres.F, Matches: fromCore(dres.Matches)}, res, nil
	}
	return &answer{GlobalMatch: res.GlobalMatch, Matches: fromCore(res.Matches)}, res, nil
}

// queries stages the first tracePatterns patterns under all four kinds:
// query ⊃ pattern.parse, simulation.candidates, .product, .fixpoint, then
// core.engine | simulation.relevant [+ diversify.select] | diversify.topkdh,
// then server.encode. Each staged answer must equal the facade's.
func (l *layers) queries() error {
	r, tr := l.r, l.tr
	fg := r.in.g
	g := fg.Unwrap().(*graph.Graph)
	// NewMatcher warms the facade graph's whole bound index, so that neither
	// side of the comparison pays for it inside a query.
	divtopk.NewMatcher(fg)
	var bc *core.BoundsCache
	t0 := time.Now()
	bc = core.NewBoundsCache(g, true)
	bc.Warm(nil)
	l.put("core.bounds_warm_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)

	var (
		pairs, edges, alive []float64
		ratios              []float64
		early, topks        float64
		stagedNs, facadeNs  int64
		dhTimes, divTimes   []float64
		fRatios             []float64
		engine              = []string{"simulation.candidates", "simulation.product", "simulation.fixpoint", "core.engine", "simulation.relevant", "diversify.select", "diversify.topkdh"}
	)
	n := min(tracePatterns, len(r.in.patterns))
	for pat := 0; pat < n; pat++ {
		pi := &r.in.patterns[pat]
		var dhNodes []graph.NodeID
		var divF float64
		for k := kind(0); k < numKinds; k++ {
			tf := time.Now()
			want, facadeRes, err := ask(onGraph{fg}, pi.p, k)
			if err != nil {
				return err
			}
			facadeNs += time.Since(tf).Nanoseconds()

			tr.request("query")
			var fp *divtopk.Pattern
			tr.in("pattern.parse", func() { fp, err = divtopk.ReadPattern(strings.NewReader(pi.text)) })
			if err != nil {
				return err
			}
			p := fp.UnwrapPattern().(*pattern.Pattern)
			var (
				ci   *simulation.CandidateIndex
				prod *simulation.Product
				sim  *simulation.Result
			)
			tr.in("simulation.candidates", func() { ci = simulation.BuildCandidatesParallel(g, p, 0) })
			tr.in("simulation.product", func() { prod = simulation.BuildProduct(g, p, ci, 0) })
			tr.in("simulation.fixpoint", func() { sim = simulation.ComputeWithProduct(prod) })
			got, res, err := l.evalKind(g, p, k, &core.PrebuiltEval{CI: ci, Prod: prod, Sim: sim}, bc, false)
			if err != nil {
				return err
			}
			tr.in("server.encode", func() {
				var body []byte
				switch v := facadeRes.(type) {
				case *divtopk.Result:
					body, err = json.Marshal(server.NewQueryResponse(v, 0))
				case *divtopk.DiversifiedResult:
					body, err = json.Marshal(server.NewDiversifiedResponse(v, 0))
				}
				_ = body
			})
			tr.end()
			if err != nil {
				return err
			}
			l.samples["staged_query"]++
			if err := sameAnswer(got, want); err != nil {
				l.fail("pattern %d %s: the staged answer differs from the facade's: %v", pat, kindNames[k], err)
			}

			nAlive := 0
			for _, in := range sim.InSim {
				if in {
					nAlive++
				}
			}
			pairs = append(pairs, float64(ci.NumPairs()))
			edges = append(edges, float64(prod.NumEdges()))
			alive = append(alive, float64(nAlive)/float64(max(ci.NumPairs(), 1)))
			switch k {
			case kTopK:
				topks++
				if mu := len(sim.MatchesOf(p.Output())); sim.Matched && mu > 0 {
					ratios = append(ratios, float64(res.Stats.MatchesFound)/float64(mu))
				}
				if res.Stats.EarlyTerminated {
					early++
				}
			case kTopKDH:
				for _, m := range got.Matches {
					dhNodes = append(dhNodes, graph.NodeID(m.Node))
				}
			case kTopKDiv:
				if got.F != nil {
					divF = *got.F
				}
			}
		}
		if divF > 0 && len(dhNodes) > 0 {
			fdh, err := diversify.ExactF(g, pi.p.UnwrapPattern().(*pattern.Pattern), dhNodes, queryLambda, queryK)
			if err != nil {
				return err
			}
			fRatios = append(fRatios, fdh/divF)
		}
	}
	for i, ms := range tr.perRequestMs("query", engine...) {
		stagedNs += int64(ms * 1e6)
		switch kind(i % int(numKinds)) {
		case kTopKDH:
			dhTimes = append(dhTimes, ms)
		case kTopKDiv:
			divTimes = append(divTimes, ms)
		}
	}
	var timeRatios []float64
	for i := range dhTimes {
		timeRatios = append(timeRatios, dhTimes[i]/divTimes[i])
	}

	l.put("pattern.parse_us", "us", median(tr.ms("pattern.parse", false))*1000)
	l.put("server.encode_us", "us", median(tr.ms("server.encode", false))*1000)
	l.put("simulation.candidates_ms", "ms", median(tr.ms("simulation.candidates", false)))
	l.put("simulation.product_ms", "ms", median(tr.ms("simulation.product", false)))
	l.put("simulation.fixpoint_ms", "ms", median(tr.ms("simulation.fixpoint", false)))
	l.put("simulation.relevant_ms", "ms", median(tr.ms("simulation.relevant", false)))
	l.put("simulation.pairs_mean", "count", mean(pairs))
	l.put("simulation.product_edges_mean", "count", mean(edges))
	l.put("simulation.alive_share", "share", mean(alive))
	l.put("core.engine_ms", "ms", median(tr.ms("core.engine", false)))
	l.put("core.match_ratio", "share", mean(ratios))
	l.put("core.early_terminated_share", "share", early/max(topks, 1))
	l.put("diversify.select_ms", "ms", median(tr.ms("diversify.select", false)))
	l.put("diversify.topkdh_ms", "ms", median(tr.ms("diversify.topkdh", false)))
	l.put("diversify.dh_over_div_time", "ratio", median(timeRatios))
	l.put("diversify.dh_over_div_f", "ratio", mean(fRatios))
	l.put("trace.overhead_share", "share", float64(stagedNs)/float64(max(facadeNs, 1))-1)
	return nil
}

// newStore opens and seeds a fresh durability store in the run's scratch
// directory, with explicit checkpoints only; syncs, if set, counts its fsyncs.
func (l *layers) newStore(name string, syncs *int) (*durable.Store, error) {
	opts := durable.Options{Policy: wal.SyncAlways, CheckpointEvery: -1}
	if syncs != nil {
		opts.FS = countingFS{fsx.OS(), syncs}
	}
	store, rec, err := durable.Open(filepath.Join(l.r.scratch, name), opts)
	if err != nil {
		return nil, err
	}
	if rec.Base != nil {
		return nil, fmt.Errorf("fresh store %s is not empty", name)
	}
	return store, store.Seed(l.r.in.g.Unwrap().(*graph.Graph))
}

// facadeChain times ops through UpdateWithStats on a facade Matcher over the
// run's graph, with the nHot hottest patterns' states warm (0: no cache at
// all), logging through a store of its own when the workload is durable.
func (l *layers) facadeChain(ops []updateOp, nHot int, storeName string) (ms []float64, m *divtopk.Matcher, err error) {
	r := l.r
	var opts []divtopk.Option
	if nHot > 0 {
		opts = append(opts, divtopk.WithCache(4096))
	}
	m = divtopk.NewMatcher(r.in.g, opts...)
	for pat := 0; pat < nHot; pat++ {
		for k := kind(0); k < numKinds; k++ {
			if _, _, err := ask(m, r.in.patterns[pat].p, k); err != nil {
				return nil, nil, err
			}
		}
	}
	if r.wl.durable {
		store, err := l.newStore(storeName, nil)
		if err != nil {
			return nil, nil, err
		}
		defer store.Close()
		m.SetDurability(storeSink{store})
		defer m.SetDurability(nil)
	}
	nodes := r.in.g.NumNodes()
	for i := range ops {
		d := ops[i].delta(nodes)
		t0 := time.Now()
		if _, _, err := m.UpdateWithStats(d); err != nil {
			return nil, nil, fmt.Errorf("%s chain, update %d: %w", storeName, i, err)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		if ops[i].kind == opAppend {
			nodes++
		}
	}
	return ms, m, nil
}

// warmState is one maintained pattern state of the staged commit chain.
type warmState struct {
	pat int
	p   *pattern.Pattern
	inc *simulation.IncState
}

// commits replays the first traceCommits updates of the plan through three
// chains on the run's graph: the staged one — commit ⊃ graph.merge,
// graph.apply, core.bounds_advance, per maintained state simulation.inc ⊃
// core.reeval, wal.append, and one durable.checkpoint — and two facade
// Matchers, one with the hottest pattern states warm and one with nothing
// cached. The staged chain keeps pattern states exactly when the workload's
// daemon does (its cache is on), and logs exactly when it is durable.
func (l *layers) commits() error {
	r, tr := l.r, l.tr
	fg := r.in.g
	g := fg.Unwrap().(*graph.Graph)
	nHot := min(warmStates, len(r.in.patterns))
	n := min(traceCommits, len(r.in.updates))
	ops := r.in.updates[:n] // a delete names an earlier insert, so every prefix of the plan replays alone

	warmMs, mWarm, err := l.facadeChain(ops, nHot, "store-warm")
	if err != nil {
		return err
	}
	bareMs, _, err := l.facadeChain(ops, 0, "store-bare")
	if err != nil {
		return err
	}

	// The staged chain.
	var states []*warmState
	if !r.wl.cacheOff {
		for pat := 0; pat < nHot; pat++ {
			p := r.in.patterns[pat].p.UnwrapPattern().(*pattern.Pattern)
			states = append(states, &warmState{pat: pat, p: p, inc: simulation.NewIncState(g, p, 0)})
		}
	}
	bc := core.NewBoundsCache(g, true)
	bc.Warm(nil)
	var (
		store     *durable.Store
		syncs     int
		walBefore int64
	)
	if r.wl.durable {
		if store, err = l.newStore("store-staged", &syncs); err != nil {
			return err
		}
		defer store.Close()
		syncs = 0 // the seed checkpoint's fsyncs are set-up, not per-update cost
	}
	var (
		cur                    = g
		incCalls, incFallbacks float64
		incShares              []float64
		advShares, frontier    []float64
		rebuilds               float64
		lastTopK               = make(map[int]*answer)
	)
	for i := range ops {
		d := ops[i].delta(cur.NumNodes()).Unwrap().(*graph.Delta)
		var (
			merged graph.Delta
			g2     *graph.Graph
			sum    *graph.DeltaSummary
			bc2    *core.BoundsCache
			adv    core.AdvanceStats
			err    error
		)
		tr.request("commit")
		tr.in("graph.merge", func() { err = merged.Merge(cur, d) })
		if err == nil {
			tr.in("graph.apply", func() { g2, sum, err = graph.ApplyDeltaVersionStep(cur, &merged, 1) })
		}
		if err == nil {
			tr.in("core.bounds_advance", func() { bc2, adv, err = bc.Advance(g2, sum, core.AdvanceOptions{}) })
		}
		if err != nil {
			return fmt.Errorf("staged chain, update %d: %w", i, err)
		}
		var evicted []*warmState
		noAppends := len(merged.NodeAppends) == 0
		for _, st := range states {
			tr.begin("simulation.inc")
			inc2, ist, ierr := simulation.IncCompute(st.inc, g2, &merged, simulation.IncOptions{NoFallback: true})
			incCalls++
			if ierr != nil {
				tr.end()
				if !errors.Is(ierr, simulation.ErrIncFallback) {
					return fmt.Errorf("staged chain, update %d, pattern %d: %w", i, st.pat, ierr)
				}
				incFallbacks++
				evicted = append(evicted, st)
				continue
			}
			incShares = append(incShares, float64(ist.AffectedPairs)/float64(max(ist.TotalPairs, 1)))
			st.inc = inc2
			// The full-evaluation kinds are a pure function of the state: the
			// matcher carries their values over when the delta left it
			// untouched, and re-runs only the early-termination kinds.
			unchanged := noAppends && ist.TouchedPairs == 0
			pre := &core.PrebuiltEval{CI: inc2.CI, Prod: inc2.Prod, Sim: inc2.Res}
			for k := kind(0); k < numKinds; k++ {
				if unchanged && (k == kMatch || k == kTopKDiv) {
					continue
				}
				a, _, rerr := l.evalKind(g2, st.p, k, pre, bc2, true)
				if rerr != nil {
					return rerr
				}
				if k == kTopK {
					lastTopK[st.pat] = a
				}
			}
			tr.end()
		}
		if store != nil {
			tr.in("wal.append", func() { err = store.Append(g2, d) })
			if err != nil {
				return err
			}
		}
		tr.end()
		l.samples["staged_commit"]++
		// An evicted state is re-admitted by the next query that asks for the
		// pattern, outside the commit.
		for _, st := range evicted {
			st.inc = simulation.NewIncState(g2, st.p, 0)
		}
		advShares = append(advShares, adv.WorkShare)
		frontier = append(frontier, float64(adv.FrontierRows))
		if !adv.Incremental {
			rebuilds++
		}
		cur, bc = g2, bc2
	}

	// The staged chain must have arrived where the facade chain did.
	fcur := mWarm.Graph()
	if fcur.NumNodes() != cur.NumNodes() || fcur.NumEdges() != cur.NumEdges() || fcur.Version() != cur.Version() {
		l.fail("after %d commits the staged graph is v%d %d/%d, the facade's v%d %d/%d", n,
			cur.Version(), cur.NumNodes(), cur.NumEdges(), fcur.Version(), fcur.NumNodes(), fcur.NumEdges())
	}
	for _, st := range states {
		want, _, err := ask(mWarm, r.in.patterns[st.pat].p, kTopK)
		if err != nil {
			return err
		}
		if got := lastTopK[st.pat]; got != nil && sameAnswer(got, want) != nil {
			l.fail("pattern %d: the staged re-evaluation after %d commits differs from the facade Matcher's answer: %v", st.pat, n, sameAnswer(got, want))
		}
	}

	appendSyncs := syncs
	if store != nil {
		if fi, err := os.Stat(filepath.Join(r.scratch, "store-staged", "wal.log")); err == nil {
			walBefore = fi.Size()
		}
		tr.request("commit")
		tr.in("durable.checkpoint", func() { err = store.Checkpoint(cur) })
		tr.end()
		if err != nil {
			return err
		}
	}

	stage := func(name string, self bool) float64 { return median(tr.ms(name, self)) }
	// Per commit, the time under each stage's spans; the maintained states'
	// own time is their simulation.inc spans minus the re-evaluations inside.
	perCommit := func(names ...string) []float64 { return tr.perRequestMs("commit", names...)[:n] }
	incAll, reevalAll := perCommit("simulation.inc"), perCommit("core.reeval")
	incOwn := make([]float64, n)
	for i := range incOwn {
		incOwn[i] = incAll[i] - reevalAll[i]
	}
	commitMs, which := median(warmMs), "matcher.commit_ms"
	if r.wl.cacheOff {
		commitMs, which = median(bareMs), "matcher.commit_bare_ms"
	}
	incSelf := tr.ms("simulation.inc", true)
	stages := []struct {
		name string
		ms   float64
	}{
		{"graph.merge", median(perCommit("graph.merge"))},
		{"graph.apply", median(perCommit("graph.apply"))},
		{"core.bounds_advance", median(perCommit("core.bounds_advance"))},
		{"simulation.inc (all states, self)", median(incOwn)},
		{"core.reeval (all states)", median(reevalAll)},
		{"wal.append", median(perCommit("wal.append"))},
	}
	var sum float64
	for _, s := range stages {
		sum += s.ms
		l.notes = append(l.notes, fmt.Sprintf("commit stage %-36s %9.3f ms per commit", s.name, s.ms))
	}
	l.notes = append(l.notes, fmt.Sprintf("commit stages sum to %.3f ms of %s = %.3f ms", sum, which, commitMs))

	l.put("matcher.commit_ms", "ms", median(warmMs))
	l.put("matcher.commit_bare_ms", "ms", median(bareMs))
	l.put("matcher.warm_advance_ms", "ms", median(warmMs)-median(bareMs))
	l.put("matcher.commit_unattributed_share", "share", 1-sum/commitMs)
	l.put("graph.merge_us", "us", stage("graph.merge", false)*1000)
	l.put("graph.apply_ms", "ms", stage("graph.apply", false))
	l.put("core.bounds_advance_ms", "ms", stage("core.bounds_advance", false))
	l.put("core.bounds_affected_share_mean", "share", mean(advShares))
	l.put("core.bounds_rebuild_share", "share", rebuilds/float64(n))
	l.put("core.frontier_rows_mean", "count", mean(frontier))
	l.put("simulation.inc_ms", "ms", median(incSelf))
	l.put("simulation.inc_affected_share_mean", "share", mean(incShares))
	l.put("simulation.inc_fallback_share", "share", incFallbacks/max(incCalls, 1))
	l.put("core.reeval_ms", "ms", stage("core.reeval", false))
	l.put("wal.append_us", "us", stage("wal.append", false)*1000)
	l.put("wal.bytes_per_update", "bytes", float64(walBefore)/float64(n))
	l.put("wal.fsyncs_per_update", "count", float64(appendSyncs)/float64(n))
	l.put("durable.checkpoint_ms", "ms", stage("durable.checkpoint", false))

	// Recovery of what the staged chain left: one checkpoint at the last
	// version would replay nothing, so replay is measured on the warm facade
	// chain's store, which holds the seed checkpoint and every record.
	replay := 0.0
	if r.wl.durable {
		reopened, rec, err := durable.Open(filepath.Join(r.scratch, "store-warm"), durable.Options{Policy: wal.SyncAlways, CheckpointEvery: -1})
		if err != nil {
			return err
		}
		defer reopened.Close()
		if rec.Base == nil || len(rec.Records) != n {
			l.fail("recovery found %d WAL records, want %d", len(rec.Records), n)
		} else {
			m := divtopk.NewMatcher(divtopk.WrapGraph(rec.Base))
			t0 := time.Now()
			for _, record := range rec.Records {
				if _, _, err := m.UpdateWithStats(divtopk.WrapDelta(record.Delta)); err != nil {
					return err
				}
			}
			replay = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(n)
		}
	}
	l.put("durable.replay_ms_per_record", "ms", replay)
	return nil
}

// micro times the single calls the pipelines above do not isolate: a cache
// lookup, a Matcher hit, and the graph codecs.
func (l *layers) micro() error {
	r := l.r
	fg := r.in.g
	g := fg.Unwrap().(*graph.Graph)

	c := cache.New(4096)
	load := func() (any, bool, error) { return 1, false, nil }
	if _, _, err := c.DoStatus("k", load); err != nil {
		return err
	}
	const lookups = 200_000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		c.DoStatus("k", load)
	}
	l.put("cache.lookup_ns", "ns", float64(time.Since(t0).Nanoseconds())/lookups)

	m := divtopk.NewMatcher(fg, divtopk.WithCache(4096))
	p := r.in.patterns[0].p
	if _, _, err := m.TopKInfo(p, queryK); err != nil {
		return err
	}
	var hits []float64
	for i := 0; i < 2000; i++ {
		t := time.Now()
		_, info, err := m.TopKInfo(p, queryK)
		if err != nil || info.Cache != "hit" {
			return fmt.Errorf("Matcher.TopKInfo on a cached shape: cache=%q err=%v", info.Cache, err)
		}
		hits = append(hits, float64(time.Since(t).Nanoseconds())/1e3)
	}
	hitUs := median(hits)
	l.put("matcher.hit_us", "us", hitUs)
	overhead := 0.0
	if l.hitP50us > 0 {
		overhead = l.hitP50us - hitUs
	}
	l.put("server.http_overhead_us", "us", overhead)

	f, err := os.Open(r.in.graphPath)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = graph.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	l.put("graph.read_text_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)
	t0 = time.Now()
	data := graph.WriteBinary(g)
	l.put("graph.binary_write_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)
	t0 = time.Now()
	if _, err := graph.ReadBinary(data); err != nil {
		return err
	}
	l.put("graph.binary_read_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)
	l.put("graph.binary_bytes", "bytes", float64(len(data)))
	return nil
}

// writeSpans writes the spans and the self time per span name to
// benchmark/results/trace-<workload>.json.
func (l *layers) writeSpans() error {
	self := l.tr.selfNs()
	byName := make(map[string]float64)
	for i, s := range l.tr.spans {
		byName[s.Name] += float64(self[i]) / 1e6
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l.notes = append(l.notes, fmt.Sprintf("self time %-24s %10.3f ms over %d spans", n, byName[n], len(l.tr.ms(n, false))))
	}
	out := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms_by_name"`
		Spans    []span             `json:"spans"`
	}{l.r.wl.name, l.r.seed, byName, l.tr.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	dir := l.r.resultsDir
	if dir == "" {
		dir = filepath.Join(l.r.root, "benchmark", "results")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+l.r.wl.name+".json"), append(data, '\n'), 0o644)
}
