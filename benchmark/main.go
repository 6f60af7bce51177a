// Command benchmark is the repository's tracked benchmark: it generates every
// input from a seed through the public facade, builds cmd/divtopkd and drives
// it as a child process over loopback HTTP, checks the answers, and prints
// the metrics BENCHMARK.json declares. See README.md.
//
//	benchmark/run.sh --workload cold_paper --seed 1 --seconds 12 --trace 0
//	go run -C benchmark . -seed 1                 # all four workloads
//	go run -C benchmark . -seed 1 -trace 1        # the per-layer pass
//	go run -C benchmark . -list
//	go run -C benchmark . -compare results/baseline-a.json results/baseline-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(realMain())
}

// realMain returns the exit code, so that deferred cleanup (reaping the child
// daemon, removing scratch directories) runs on every path, panics included.
func realMain() (code int) {
	workloadName := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer pass")
	clients := flag.Int("clients", runtime.NumCPU(), "load-generator connections (at most nproc)")
	out := flag.String("out", "", "record the runs in this JSON file (merged by workload and trace)")
	list := flag.Bool("list", false, "print every metric with unit, direction, bound and workloads, and exit")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	spinOn := flag.Int("spin-on", -1, "internal: be the idle-class spinner of this CPU (see affinity.go)")
	flag.Parse()
	if *spinOn >= 0 {
		return spin(*spinOn)
	}

	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *list {
		printList(spec)
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare wants two results files"))
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		return fatal(fmt.Errorf("-clients %d outside [1, nproc=%d]: load comes from one process with at most nproc connections", *clients, runtime.NumCPU()))
	}
	var todo []*workload
	if *workloadName != "" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			return fatal(fmt.Errorf("unknown workload %q (see -list)", *workloadName))
		}
		todo = []*workload{wl}
	} else {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	}

	pinSelf()
	reapOnSignal()
	defer cleanupAll()
	defer stopSpinners()
	if n := startSpinners(); n < runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d CPUs have a spinner: the others halt when idle, and latencies under a millisecond will vary with the host\n", n, runtime.NumCPU())
	}
	defer func() {
		if p := recover(); p != nil {
			cleanupAll()
			panic(p)
		}
	}()

	bin, err := buildDaemon(root)
	if err != nil {
		return fatal(err)
	}
	var results []*result
	for _, wl := range todo {
		r := &run{root: root, bin: bin, wl: wl, seed: *seed, seconds: *seconds, clients: *clients}
		var res *result
		if *trace == 0 {
			res, err = r.execute()
		} else {
			res, err = r.executeTraced()
		}
		cleanupAll()
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		res.Trace = *trace
		if err := verifyNames(spec, res); err != nil {
			return fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		printResult(spec, res)
		results = append(results, res)
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	if *out != "" {
		if err := mergeResults(*out, results); err != nil {
			return fatal(err)
		}
	}
	// The contract's last line: one JSON object with exactly these four keys.
	// With several workloads it describes the last one; each has its own line
	// above, prefixed by its name.
	last := results[len(results)-1]
	line, err := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	return code
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// verifyNames holds the program to its declaration: the metrics a run emits
// are exactly the ones BENCHMARK.json lists for that kind of run.
func verifyNames(spec *benchSpec, res *result) error {
	declared := spec.EndToEnd
	if res.Trace != 0 {
		declared = spec.PerLayer
	}
	want := make(map[string]string, len(declared))
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, v := range res.Metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("emitted metric %q is not declared in BENCHMARK.json", name)
		}
		if unit != v.Unit {
			return fmt.Errorf("metric %q emitted in %q, declared in %q", name, v.Unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		return fmt.Errorf("declared metric %q was not emitted", name)
	}
	return nil
}

func printResult(spec *benchSpec, res *result) {
	fmt.Printf("== %s  seed=%d  seconds=%g  clients=%d  trace=%d\n", res.Workload, res.Seed, res.Seconds, res.Clients, res.Trace)
	declared := spec.EndToEnd
	if res.Trace != 0 {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v := res.Metrics[m.Name]
		fmt.Printf("   %-42s %14.6g %-6s (%s is better)\n", m.Name, v.Value, v.Unit, m.Better)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("   samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, res.Samples[k])
	}
	fmt.Println()
	for _, k := range []string{"query", "update"} {
		if t, ok := res.Tails[k]; ok {
			fmt.Printf("   %s tail: %s\n", k, t)
		}
	}
	for _, n := range res.Notes {
		fmt.Printf("   %s\n", n)
	}
	c := res.Checks
	fmt.Printf("   checks: %d shapes re-evaluated %v, topk-vs-match %d, topkdiv-vs-topkdh %d (mean F ratio %.4f), acks %d, recovery %v\n",
		c.Shapes, c.Kinds, c.TopKVsAll, c.DivVsDH, c.FRatio, c.Acks, c.Recovery)
	for _, f := range c.Failures {
		fmt.Printf("   CHECK FAILED: %s\n", f)
	}
	fmt.Printf("   attempted=%d failed=%d failed_share=%g correct=%v\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
}

// metricSource says, for -list, where each end-to-end metric comes from: the
// workload's own timed traffic or one of the probes after it. Set-up and
// recovery are measured the same way everywhere.
func metricSource(name string) string {
	switch name {
	case "setup_s":
		return "all: median of the boots (+ warm-up pass on serve_zipf, mixed_churn)"
	case "recover_s":
		return "all: median of the kill/restart cycles; write_burst replays a WAL tail on its last checkpoint"
	case "update_p50_ms", "update_p95_ms", "update_per_s":
		return "window: mixed_churn, write_burst; probe: cold_paper, serve_zipf"
	case "post_commit_p50_ms":
		return "window: mixed_churn; probe: cold_paper, serve_zipf, write_burst"
	}
	return "window: cold_paper, serve_zipf, mixed_churn; probe: write_burst"
}

func printList(spec *benchSpec) {
	fmt.Println("workloads:")
	for _, w := range spec.Workloads {
		fmt.Printf("  %-12s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (every workload reports every one):")
	for _, m := range spec.EndToEnd {
		fmt.Printf("  %-20s %-5s %-6s is better  bound %.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, metricSource(m.Name))
	}
	fmt.Println("  failed_share         (attempted and failed of every run's result line; must stay 0)")
	fmt.Println("per-layer metrics (-trace 1, no bound; layer = module name):")
	for _, m := range spec.PerLayer {
		fmt.Printf("  %-42s %-6s %-6s is better\n", m.Name, m.Unit, m.Better)
	}
}
