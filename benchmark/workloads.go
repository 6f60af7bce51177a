package main

import (
	"math/rand"
	"sync/atomic"
)

// workload is one traffic mix with the daemon configuration it runs against.
// Sizes and counts are frozen here: a run is comparable with another only if
// both used the same table. README.md says why each workload exists and which
// layer does the work in it.
type workload struct {
	name     string
	graph    graphCfg
	patterns int  // mined patterns; shapes = patterns × 4 kinds
	hot      int  // hottest patterns: the updates aim at them, the post-commit samples ask them
	cacheOff bool // daemon runs with -cache 0
	durable  bool // daemon runs with -data-dir <scratch> -fsync always
	warmUp   bool // every shape is asked once before timing, inside setup_s
	updates  int  // size of the pre-generated update plan

	// A run is this many epochs, each on inputs of its own (run.execute); every
	// size and count in this struct is per epoch.
	epochs int
	// boots and recovers say how many times an epoch sets the daemon up and
	// how many kill/restart cycles it makes; setup_s and recover_s report the
	// medians over the run. A durable set-up writes a checkpoint of the whole
	// graph and a durable recovery replays the WAL, so those get fewer
	// repeats than the in-memory ones, which take tens of milliseconds and
	// need them more.
	boots    int
	recovers int

	// main is the timed window: the workload's own traffic, until stop closes.
	main func(r *run, stop <-chan struct{})
	// The probes measure, after the window, the operation types main does not
	// issue: probeQueryRounds walks that many times over all shapes with one
	// client; probeWrites sends that many updates with one client, each
	// followed by one query of a hot shape (the post-commit sample).
	probeQueryRounds int
	probeWrites      int
}

const (
	zipfS = 1.1
	// churnEvery makes every 200th operation of mixed_churn an update.
	churnEvery = 200
	// checkpointEvery is the WAL rotation period of a durable run's daemon: a
	// quarter of the daemon's default, so that with two writers one update in
	// eight waits behind a rotation and update_p95_ms sits inside that tail
	// instead of on its edge. Before each crash the run tops its updates up so
	// that the WAL holds walTail records.
	checkpointEvery = 16
	walTail         = 12
)

var workloads = []workload{
	{
		// The paper's own experiment: one client, no cache, every answer is a
		// full evaluation by simulation, core and diversify.
		name:     "cold_paper",
		graph:    graphCfg{youtube: true, nodes: 15_000, edges: 90_000},
		patterns: 128, hot: 128, cacheOff: true, updates: 256,
		epochs: 4, boots: 2, recovers: 4,
		main: func(r *run, stop <-chan struct{}) {
			r.q = r.cyclicPlan().runReaders(1, r.inputSeed(), 0, stop)
		},
		probeWrites: 128,
	},
	{
		// The opposite: after the warm-up every answer is a cache hit, so
		// server, pattern parsing, key derivation and cache do all the work.
		name:     "serve_zipf",
		graph:    graphCfg{nodes: 10_000, edges: 70_000, labels: 24},
		patterns: 64, hot: 8, warmUp: true, updates: 128,
		epochs: 4, boots: 2, recovers: 4,
		main: func(r *run, stop <-chan struct{}) {
			r.q = r.zipfPlan(false).runReaders(r.clients, r.inputSeed(), 0, stop)
		},
		probeWrites: 52,
	},
	{
		// Writes beside reads: every commit advances the warm pattern states
		// while readers share the cores; cold patterns miss after each commit.
		name:     "mixed_churn",
		graph:    graphCfg{nodes: 5_000, edges: 35_000, labels: 24},
		patterns: 64, hot: 8, warmUp: true, updates: 512,
		epochs: 4, boots: 2, recovers: 4,
		main: func(r *run, stop <-chan struct{}) {
			r.q, r.u = r.zipfPlan(true).runMixed(r.clients, r.inputSeed(), churnEvery, r.writer, stop)
			r.pc = r.q.postCommit
		},
	},
	{
		// The same commit path with nothing cached and durability on: graph
		// apply, bound-index advance, WAL and checkpoints.
		name:     "write_burst",
		graph:    graphCfg{nodes: 60_000, edges: 420_000, labels: 24},
		patterns: 64, hot: 64, cacheOff: true, durable: true, updates: 4096,
		epochs: 4, boots: 2, recovers: 3,
		main: func(r *run, stop <-chan struct{}) {
			r.u = r.writer.runClosed(r.clients, 0, stop)
		},
		probeQueryRounds: 1,
		probeWrites:      48,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// probes runs the workload's probes and, on a durable run, leaves a WAL tail
// of known length for the crash: a timed burst does not end on a multiple of
// anything.
func (r *run) probes() {
	wl := r.wl
	if wl.probeQueryRounds > 0 {
		r.q = r.cyclicPlan().runReaders(1, r.inputSeed(), wl.probeQueryRounds*len(r.in.shapes), nil)
	}
	if wl.probeWrites > 0 {
		u, pc := r.probeWrites(wl.probeWrites)
		if r.u == nil {
			r.u = u
		}
		r.pc = pc
	}
	r.topUpWAL()
}

// topUpWAL sends a durable run as many updates as leave walTail records in
// the WAL; at least one, so that successive crashes replay different tails.
func (r *run) topUpWAL() {
	if !r.wl.durable {
		return
	}
	acked := len(r.writer.total.acks)
	topUp := (walTail - acked%checkpointEvery + checkpointEvery) % checkpointEvery
	if topUp == 0 {
		topUp = checkpointEvery
	}
	r.writer.runClosed(1, topUp, nil)
}

// readPlan builds the readers' plan around a shape chooser.
func (r *run) readPlan(next func(rng *rand.Rand, i int) int) *readPlan {
	return &readPlan{in: r.in, base: r.d.base, client: r.client, next: next, sampled: r.sampled}
}

// cyclicPlan walks a seeded shuffle of all shapes, round after round.
func (r *run) cyclicPlan() *readPlan {
	order := rand.New(rand.NewSource(r.inputSeed() ^ 0x0c01d)).Perm(len(r.in.shapes))
	return r.readPlan(func(_ *rand.Rand, i int) int { return order[i%len(order)] })
}

// zipfPlan asks pattern ranks under Zipf(s) popularity and kinds uniformly;
// with trackHot it also watches the hot shapes for post-commit samples.
func (r *run) zipfPlan(trackHot bool) *readPlan {
	z := newZipf(len(r.in.patterns), zipfS)
	rp := r.readPlan(func(rng *rand.Rand, _ int) int {
		return shapeID(z.draw(rng), kind(rng.Intn(int(numKinds))))
	})
	if trackHot {
		rp.hotSeen = make([]*atomic.Uint64, len(r.in.shapes))
		for pat := 0; pat < r.wl.hot; pat++ {
			for k := kind(0); k < numKinds; k++ {
				rp.hotSeen[shapeID(pat, k)] = new(atomic.Uint64)
			}
		}
	}
	return rp
}
