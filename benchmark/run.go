package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// run is one execution of one workload: its inputs, its daemon, and what the
// load phases recorded. An untraced run of the program is wl.epochs of these
// in a row, pooled (execute); the traced pass is epoch 0 alone.
type run struct {
	root    string
	bin     string
	wl      *workload
	seed    int64 // the program's -seed
	epoch   int   // which of the workload's epochs; every input comes from inputSeed
	seconds float64
	clients int

	resultsDir string // where the traced pass writes its spans; default benchmark/results
	scratch    string
	boots      int // set-ups made; the last one's data directory is the live one
	in         *inputs
	sampled    map[int]bool
	d          *daemon
	client     *http.Client
	writer     *writer

	inputsS  float64   // generating graph, patterns, updates and the graph file
	bootS    []float64 // exec → /healthz OK, one per set-up
	warmS    float64   // the warm-up pass, where the workload has one
	q        *querySamples
	u        *updateSamples
	pc       []postCommit
	warmed   *querySamples // the warm-up pass's operations (counted, not timed)
	probeQ   querySamples  // the post-commit probe's queries (counted; timed as post-commit samples)
	recoverS []float64     // SIGKILL → /healthz OK at the expected version
	stolen   float64       // share of the CPUs the host took between set-up and recovery (steal.go)
	report   checkReport
}

// maxEpochs bounds workload.epochs, so that no two (seed, epoch) pairs share
// their inputs.
const maxEpochs = 16

func (r *run) inputSeed() int64 { return r.seed*maxEpochs + int64(r.epoch) }

// daemonFlags are the flags of this run's daemon; a durable workload gets the
// given data directory.
func (r *run) daemonFlags(dataDir string) []string {
	flags := []string{"-graph", graphName + "=" + r.in.graphPath}
	if r.wl.cacheOff {
		flags = append(flags, "-cache", "0")
	}
	if r.wl.durable {
		flags = append(flags, "-data-dir", dataDir, "-fsync", "always", "-checkpoint-every", strconv.Itoa(checkpointEvery))
	}
	return flags
}

// generate builds every input of the run from the seed, through the facade.
func (r *run) generate() error {
	t0 := time.Now()
	wl := r.wl
	in := &inputs{}
	in.g = wl.graph.generate(r.inputSeed())
	pats, err := minePatterns(in.g, wl.patterns, wl.graph.youtube, r.inputSeed())
	if err != nil {
		return err
	}
	in.patterns = pats
	for pat := range pats {
		for k := kind(0); k < numKinds; k++ {
			in.shapes = append(in.shapes, newShape(pat, pats[pat].text, k))
		}
	}
	in.updates = planUpdates(in.g, pats[:wl.hot], wl.graph.youtube, wl.updates, r.inputSeed())
	in.graphPath = filepath.Join(r.scratch, "graph.txt")
	if err := writeGraph(in.g, in.graphPath); err != nil {
		return err
	}
	r.in = in
	r.sampled = sampleShapes(in, r.inputSeed())
	r.inputsS = time.Since(t0).Seconds()
	return nil
}

// setUp boots the daemon the given number of times — each from exec to a
// healthy /healthz, each durable one on a fresh data directory — and keeps
// the last.
func (r *run) setUp(boots int) error {
	r.boots = boots
	for i := 0; i < boots; i++ {
		if r.d != nil {
			r.d.kill()
		}
		d, err := startDaemon(r.bin, r.daemonFlags(r.dataDir(i))...)
		if err != nil {
			return err
		}
		took, err := d.waitHealthy(0)
		if err != nil {
			d.kill()
			return err
		}
		r.d = d
		r.bootS = append(r.bootS, took.Seconds())
	}
	r.client = newLoadClient(r.clients)
	r.writer = newWriter(r.in, r.d.base, r.client)
	if r.wl.warmUp {
		// Ask every shape once, split across the clients, so that the timed
		// window starts with a full cache. Part of set-up, and of setup_s.
		t0 := time.Now()
		n := len(r.in.shapes)
		per := (n + r.clients - 1) / r.clients
		rp := r.readPlan(func(_ *rand.Rand, i int) int { return i % n })
		r.warmed = rp.runReaders(r.clients, r.inputSeed(), per, nil)
		r.warmS = time.Since(t0).Seconds()
	}
	return nil
}

func (r *run) dataDir(i int) string {
	return filepath.Join(r.scratch, fmt.Sprintf("data-%d", i))
}

// probeWrites measures updates where the workload's own traffic has none:
// one closed-loop client sends n updates, and after each ack asks one shape
// of the hot patterns, which is the first answer at the new version.
func (r *run) probeWrites(n int) (*updateSamples, []postCommit) {
	u := &updateSamples{}
	var pc []postCommit
	var buf bytes.Buffer
	t0 := time.Now()
	var asked time.Duration
	for i := 0; i < n; i++ {
		op := r.writer.take()
		if op < 0 {
			break
		}
		r.writer.send(op, &buf, u)
		if len(u.acks) == 0 || u.acks[len(u.acks)-1].op != op {
			continue // the update failed and is already counted
		}
		want := u.acks[len(u.acks)-1].ack.Version
		qs := &querySamples{}
		t1 := time.Now()
		shape := shapeID(i*7%r.wl.hot, kind(i%int(numKinds))) // 7 is coprime to every hot count: all patterns, all kinds
		r.readPlan(nil).askOne(shape, &buf, qs)
		asked += time.Since(t1)
		r.probeQ.attempted += qs.attempted
		r.probeQ.failed += qs.failed
		if qs.failed > 0 {
			continue
		}
		got, _ := scanUint(buf.Bytes(), "version")
		if got != want {
			r.report.fail("post-commit probe: answer at version %d right after the ack of version %d", got, want)
			r.probeQ.failed++
			continue
		}
		pc = append(pc, postCommit{latNs: qs.byKind[r.in.shapes[shape].kind][0], cache: scanString(buf.Bytes(), "cache")})
	}
	// The probe's queries sit between its updates; its update rate is over
	// the time spent updating only.
	u.wallNs = (time.Since(t0) - asked).Nanoseconds()
	r.writer.absorb(u)
	return u, pc
}

// crashAndRecover is the end of every run, repeated wl.recovers times:
// SIGKILL the daemon, start a new process on what the old one left — its
// data directory if the workload is durable, the graph file if not — and time
// until /healthz reports the expected version: the last acknowledged one, or 0
// for an in-memory daemon, which has nothing to recover. Each cycle checks
// that the daemon's own account of the graph and one probe answer survived
// the crash unchanged; between cycles a durable run writes a fresh WAL tail,
// so that no two crashes replay the same records.
func (r *run) crashAndRecover() error {
	probe := shapeID(0, kTopK)
	pq := &querySamples{}
	for i := 0; i < r.wl.recovers; i++ {
		if i > 0 {
			r.topUpWAL()
		}
		before, err := r.d.graphInfo()
		if err != nil {
			return err
		}
		var beforeBody, afterBody bytes.Buffer
		r.readPlan(nil).askOne(probe, &beforeBody, pq)
		want := before
		if !r.wl.durable {
			want.Version, want.Nodes, want.Edges = 0, r.in.g.NumNodes(), r.in.g.NumEdges()
		} else if acked := uint64(len(r.writer.total.acks)); before.Version != acked {
			r.report.fail("the daemon serves version %d after %d acknowledged updates", before.Version, acked)
		}

		t0 := time.Now()
		r.d.kill()
		d, err := startDaemon(r.bin, r.daemonFlags(r.dataDir(r.boots-1))...)
		if err != nil {
			return err
		}
		if _, err := d.waitHealthy(want.Version); err != nil {
			d.kill()
			return fmt.Errorf("recovery: %w", err)
		}
		r.recoverS = append(r.recoverS, time.Since(t0).Seconds())
		r.d, r.writer.base = d, d.base
		r.client.CloseIdleConnections()

		after, err := r.d.graphInfo()
		if err != nil {
			return err
		}
		if after.Version != want.Version || after.Nodes != want.Nodes || after.Edges != want.Edges {
			r.report.fail("after recovery the daemon serves version %d with %d nodes and %d edges, want version %d, %d nodes, %d edges",
				after.Version, after.Nodes, after.Edges, want.Version, want.Nodes, want.Edges)
		}
		if r.wl.durable {
			r.readPlan(nil).askOne(probe, &afterBody, pq)
			var b, a answer
			if json.Unmarshal(beforeBody.Bytes(), &b) != nil || json.Unmarshal(afterBody.Bytes(), &a) != nil {
				r.report.fail("crash %d: undecodable probe answer", i)
			} else if err := sameAnswer(&a, &b); err != nil || a.Version != b.Version {
				r.report.fail("crash %d: the probe answer changed (version %d, before %d): %v", i, a.Version, b.Version, err)
			}
		}
	}
	r.report.Recovery = true
	r.probeQ.attempted += pq.attempted
	r.probeQ.failed += pq.failed
	return nil
}

// drive runs the workload's timed window for the given number of seconds,
// then its probes.
func (r *run) drive(seconds float64) {
	stop := make(chan struct{})
	timer := time.AfterFunc(time.Duration(seconds*float64(time.Second)), func() { close(stop) })
	r.wl.main(r, stop)
	timer.Stop()
	r.probes()
}

// phase logs how long a stage of the run took, on stderr: the wall-clock
// budget of a run is tight, and this is how one sees where it goes.
func (r *run) phase(name string, since time.Time) time.Time {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "benchmark: %s epoch %d: %s %.2fs\n", r.wl.name, r.epoch, name, now.Sub(since).Seconds())
	return now
}

// result is what one run reports: the contract's four keys plus everything a
// reader of a results file needs to reproduce it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Clients   int                    `json:"clients"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Tails     map[string]string      `json:"tails,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Checks    checkReport            `json:"checks"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload's epochs one after the other — each with inputs,
// a daemon and a crash of its own, and an equal share of the timed window —
// and computes the end-to-end metrics from their pooled samples. One epoch
// measures one graph, one set of patterns and one process's memory layout,
// and a median over those moved by 10-20 % from seed to seed; several in a
// run are the larger sample that steadies it.
func (r *run) execute() (*result, error) {
	var p pool
	wait, redos := maxQuietWait, 0
	for e := 0; e < r.wl.epochs; e++ {
		awaitQuiet(&wait)
		ep := &run{
			root: r.root, bin: r.bin, wl: r.wl, seed: r.seed, epoch: e, clients: r.clients,
			seconds: r.seconds / float64(r.wl.epochs),
		}
		err := ep.executeEpoch()
		cleanupAll()
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		// An epoch the host disturbed is measured again, unless something in it
		// failed: a failure stays on the record whatever the host did.
		if ep.stolen > maxStealShare && redos < maxRedos && ep.failures() == 0 {
			p.notes = append(p.notes, fmt.Sprintf("epoch %d measured again: the host took %.0f%% of the CPUs during it", e, 100*ep.stolen))
			redos++
			e--
			continue
		}
		if ep.stolen > maxStealShare {
			p.notes = append(p.notes, fmt.Sprintf("epoch %d kept although the host took %.0f%% of the CPUs during it", e, 100*ep.stolen))
		}
		p.add(ep)
	}
	return p.endToEnd(r), nil
}

// executeEpoch runs one epoch end to end, untraced: inputs, set-up, the
// timed window and the probes, crashes and recoveries, and the checks.
func (r *run) executeEpoch() error {
	var err error
	if r.scratch, err = scratchDir(r.root); err != nil {
		return err
	}
	t := time.Now()
	if err := r.generate(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	t = r.phase("inputs", t)
	ticks := readCPUTicks()
	if err := r.setUp(r.wl.boots); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	t = r.phase("set-up", t)
	r.drive(r.seconds)
	t = r.phase("timed window and probes", t)
	if err := r.crashAndRecover(); err != nil {
		return err
	}
	r.stolen = stealShareSince(ticks)
	r.phase(fmt.Sprintf("crash and recovery (the host took %.2f%% of the CPUs since set-up)", 100*r.stolen), t)

	// Off the clock: the checks.
	tChecks := time.Now()
	acks := r.writer.total.acks
	if err := checkAcks(acks, r.in); err != nil {
		r.report.fail("acks: %v", err)
	}
	r.report.Acks = len(acks)
	checkAnswers(r.in, r.q.kept, acks, &r.report)
	r.phase("checks", tChecks)
	return nil
}

// failures counts the epoch's failed operations and failed checks.
func (r *run) failures() int {
	n := r.q.failed + r.writer.total.failed + r.probeQ.failed + len(r.report.Failures)
	if r.warmed != nil {
		n += r.warmed.failed
	}
	return n
}

// pool is what the epochs of one run recorded, pooled: every latency sample
// of every epoch, and the operations and seconds the rates are taken over.
type pool struct {
	setupS    []float64 // per boot: exec → /healthz OK, plus its epoch's warm-up pass
	recoverS  []float64
	q         querySamples
	u         updateSamples
	pc        []postCommit
	attempted int
	failed    int
	report    checkReport
	notes     []string // epochs measured again or kept in spite of the host (steal.go)
}

func (p *pool) add(r *run) {
	for _, b := range r.bootS {
		p.setupS = append(p.setupS, b+r.warmS)
	}
	p.recoverS = append(p.recoverS, r.recoverS...)
	p.q.merge(r.q)
	p.q.wallNs += r.q.wallNs
	p.u.acks = append(p.u.acks, r.u.acks...)
	p.u.wallNs += r.u.wallNs
	p.pc = append(p.pc, r.pc...)

	w := r.writer.total
	p.attempted += r.q.attempted + w.attempted + r.probeQ.attempted
	p.failed += r.q.failed + w.failed + r.probeQ.failed
	if r.warmed != nil {
		p.attempted += r.warmed.attempted
		p.failed += r.warmed.failed
	}
	p.report.merge(&r.report)
}

// endToEnd computes the metrics of BENCHMARK.json's end_to_end list. Every
// workload reports every one of them; README.md says which come from the
// workload's own traffic and which from its probes.
func (p *pool) endToEnd(r *run) *result {
	res := &result{
		Workload: r.wl.name, Seed: r.seed, Seconds: r.seconds, Clients: r.clients,
		Metrics: make(map[string]metricValue), Samples: make(map[string]int), Tails: make(map[string]string),
		Checks: p.report, Notes: p.notes,
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unit} }

	res.Samples["boot"], res.Samples["recovery"] = len(p.setupS), len(p.recoverS)
	put("setup_s", "s", median(p.setupS))
	put("recover_s", "s", median(p.recoverS))

	all := sortedCopy(nsToMs(p.q.all()))
	res.Samples["query"] = len(all)
	put("query_per_s", "1/s", float64(len(all))/(float64(p.q.wallNs)/1e9))
	put("query_p50_ms", "ms", percentile(all, 50))
	put("query_p99_ms", "ms", percentile(all, 99))
	res.Tails["query"] = ladder(all)
	for k := kind(0); k < numKinds; k++ {
		ms := nsToMs(p.q.byKind[k])
		res.Samples[kindNames[k]] = len(ms)
		put(kindNames[k]+"_p50_ms", "ms", median(ms))
	}

	upd := sortedCopy(nsToMs(p.u.latencies()))
	res.Samples["update"] = len(upd)
	put("update_p50_ms", "ms", percentile(upd, 50))
	put("update_p95_ms", "ms", percentile(upd, 95))
	put("update_per_s", "1/s", float64(len(upd))/(float64(p.u.wallNs)/1e9))
	res.Tails["update"] = ladder(upd)

	pc := make([]float64, len(p.pc))
	for i, s := range p.pc {
		pc[i] = float64(s.latNs) / 1e6
	}
	res.Samples["post_commit"] = len(pc)
	put("post_commit_p50_ms", "ms", median(pc))

	res.Attempted = p.attempted
	res.Failed = p.failed + len(p.report.Failures)
	res.Correct = len(p.report.Failures) == 0
	return res
}
