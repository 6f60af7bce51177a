// Command divtopkd is the query-serving daemon: it loads named graphs,
// warms a Matcher session (full bound index + result cache) per graph, and
// serves the paper's algorithms over an HTTP JSON API with per-request
// timeouts, a k cap, and singleflight-deduplicated caching: /v1/query runs
// the find-all Match cut at k (exact, and cheaper than the early-termination
// TopK), /v1/query/diversified runs TopKDH (TopKDiv with "approx":true).
//
// Serve two graphs:
//
//	divtopkd -listen :8372 -graph social=social.txt -graph cite=cite.txt
//
// Query it:
//
//	curl -s localhost:8372/v1/query -d '{"graph":"social","pattern":"node 0 PM *\nnode 1 DB\nedge 0 1\n","k":10}'
//	curl -s localhost:8372/v1/query/diversified -d '{"graph":"social","pattern":"...","k":10,"lambda":0.5}'
//	curl -s localhost:8372/v1/graphs
//	curl -s localhost:8372/healthz
//
// Update it (graphs are dynamic: deltas append nodes and insert/delete
// edges; every response carries the graph version the answer was computed
// against):
//
//	curl -s localhost:8372/v1/graphs/social/updates -d '{"add_nodes":[{"label":"DB"}],"add_edges":[[0,6000]]}'
//
// Make it durable — every applied delta goes through a write-ahead log
// before it is served, the WAL rotates into CSR checkpoints, and the next
// boot recovers every graph from the data directory (at which point the
// -graph seed files are ignored for recovered names):
//
//	divtopkd -listen :8372 -graph social=social.txt -data-dir /var/lib/divtopkd -fsync always
//
// Measuring it is the tracked benchmark's job (benchmark/README.md): it
// builds this command, spawns it as a child and drives it over loopback.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"divtopk"
	"divtopk/internal/server"
	"divtopk/internal/wal"
)

func main() {
	var graphs []struct{ name, path string }
	listen := flag.String("listen", ":8372", "listen address")
	flag.Func("graph", "name=path of a graph file in the text format (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		graphs = append(graphs, struct{ name, path string }{name, path})
		return nil
	})
	cacheEntries := flag.Int("cache", 4096, "result-cache entries per graph session (0 disables caching)")
	maxK := flag.Int("max-k", 1000, "cap on the requested k")
	maxConcurrent := flag.Int("max-concurrent", 0, "evaluation worker pool size (0 = 2x cores)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request timeout")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "cap on the per-request timeout")
	dataDir := flag.String("data-dir", "", "durability directory: WAL + checkpoints per graph, recovered on boot (empty = in-memory only)")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "flush interval for -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", 0, "updates between WAL-to-checkpoint rotations (0 = default, negative = shutdown only)")
	flag.Parse()

	var opts []divtopk.Option
	if *cacheEntries > 0 {
		opts = append(opts, divtopk.WithCache(*cacheEntries))
	}
	cfg := server.Config{
		MaxK:           *maxK,
		MaxConcurrent:  *maxConcurrent,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	}

	var reg *server.Registry
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("divtopkd: -fsync: %v", err)
		}
		start := time.Now()
		reg, err = server.NewPersistentRegistry(server.PersistOptions{
			Dir:             *dataDir,
			Policy:          policy,
			Interval:        *fsyncInterval,
			CheckpointEvery: *checkpointEvery,
		}, opts...)
		if err != nil {
			log.Fatal(err)
		}
		if n := reg.Len(); n > 0 {
			log.Printf("recovered %d graph(s) from %s in %s", n, *dataDir, time.Since(start).Round(time.Millisecond))
		}
	} else {
		reg = server.NewRegistry(opts...)
	}
	if len(graphs) == 0 && reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "divtopkd: at least one -graph name=path is required (or a -data-dir with recovered graphs)")
		flag.Usage()
		os.Exit(2)
	}
	for _, g := range graphs {
		if _, ok := reg.Get(g.name); ok {
			// Recovered from the data dir: the durable state is newer than
			// the seed file, which only matters on the very first boot.
			log.Printf("graph %q: already recovered from %s; ignoring %s", g.name, *dataDir, g.path)
			continue
		}
		start := time.Now()
		if err := reg.LoadFile(g.name, g.path); err != nil {
			log.Fatal(err)
		}
		m, _ := reg.Get(g.name)
		snap := m.Graph()
		log.Printf("graph %q: %d nodes, %d edges (warmed in %s)",
			g.name, snap.NumNodes(), snap.NumEdges(), time.Since(start).Round(time.Millisecond))
	}

	srv := &http.Server{
		Addr:    *listen,
		Handler: server.New(reg, cfg).Handler(),
		// Slow clients must not bypass the per-request budget: the query
		// timeout only starts once the body is decoded, so the transport
		// bounds header/body reads itself. Writes get the budget plus slack
		// for the response.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *maxTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain in-flight requests first, then flush durability: once no
		// update can be running, every graph gets a clean-shutdown checkpoint
		// and its WAL closed, so the next boot replays nothing.
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := reg.Close(); err != nil {
			log.Printf("shutdown: closing durability: %v", err)
		}
	}()
	log.Printf("serving %d graph(s) on %s", reg.Len(), *listen)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}
