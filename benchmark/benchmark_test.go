package main

import (
	"regexp"
	"testing"
)

// TestShortPass runs all four workloads, untraced and traced, at a size that
// fits a unit-test budget, and holds the program to its declaration: the
// emitted metric names are exactly the ones BENCHMARK.json lists (both
// directions), they are well-formed, nothing failed, and every check ran.
func TestShortPass(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if e := workloads[i].epochs; e < 1 || e > maxEpochs {
			t.Errorf("%s has %d epochs, want 1..%d", w.Name, e, maxEpochs)
		}
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !wellFormed.MatchString(m.Name) {
			t.Errorf("metric name %q is not of the form [A-Za-z0-9_.-]+", m.Name)
		}
	}

	bin, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupAll()
	for i := range workloads {
		wl := workloads[i] // a copy, shrunk
		wl.graph.nodes, wl.graph.edges = 2_000, 14_000
		wl.patterns, wl.hot = 16, min(wl.hot, 16)
		wl.updates = 256
		wl.epochs, wl.boots, wl.recovers = 2, 1, 1
		wl.probeWrites = min(wl.probeWrites, 8)
		for trace := 0; trace <= 1; trace++ {
			r := &run{root: root, bin: bin, wl: &wl, seed: 7, seconds: 0.6, clients: 2, resultsDir: t.TempDir()}
			var res *result
			if trace == 0 {
				res, err = r.execute()
			} else {
				res, err = r.executeTraced()
			}
			cleanupAll()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.name, trace, err)
			}
			res.Trace = trace
			if err := verifyNames(spec, res); err != nil {
				t.Errorf("%s trace=%d: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v", wl.name, trace, res.Correct, res.Attempted, res.Failed, res.Checks.Failures)
			}
			c := res.Checks
			if c.Acks == 0 {
				t.Errorf("%s trace=%d: the ack check saw no update", wl.name, trace)
			}
			if trace == 1 {
				if res.Samples["staged_query"] == 0 || res.Samples["staged_commit"] == 0 {
					t.Errorf("%s: the traced pass staged %d queries and %d commits", wl.name, res.Samples["staged_query"], res.Samples["staged_commit"])
				}
				continue
			}
			if want := wl.epochs * ((wl.patterns + 3) / 4) * int(numKinds); c.Shapes < want {
				t.Errorf("%s: %d shapes re-evaluated, want at least %d", wl.name, c.Shapes, want)
			}
			for _, k := range kindNames {
				if c.Kinds[k] == 0 {
					t.Errorf("%s: no %s answer was re-evaluated", wl.name, k)
				}
			}
			if c.TopKVsAll == 0 {
				t.Errorf("%s: the topk-vs-match invariant never ran", wl.name)
			}
			// Under churn a pattern's two diversified answers rarely share a
			// version; everywhere else the invariant must have run.
			if c.DivVsDH == 0 && wl.name != "mixed_churn" {
				t.Errorf("%s: the topkdiv-vs-topkdh invariant never ran", wl.name)
			}
			if !c.Recovery {
				t.Errorf("%s: the recovery check did not run", wl.name)
			}
		}
	}
}
