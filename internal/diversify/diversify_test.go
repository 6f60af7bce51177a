package diversify

import (
	"math"
	"math/rand"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/testutil"
)

const eps = 1e-9

func names(t *testing.T, id map[string]graph.NodeID, ms []core.Match) map[string]bool {
	t.Helper()
	rev := map[graph.NodeID]string{}
	for n, v := range id {
		rev[v] = n
	}
	out := map[string]bool{}
	for _, m := range ms {
		out[rev[m.Node]] = true
	}
	return out
}

func TestExample9TopKDiv(t *testing.T) {
	// λ=0.5, k=2: the optimum F is 16/11 ≈ 1.45, attained by {PM1,PM3} (the
	// paper's answer) and, in an exact tie, by {PM1,PM2}. TopKDiv must
	// return one of the optima.
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopKDiv(g, p, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GlobalMatch || len(res.Matches) != 2 {
		t.Fatalf("got %d matches", len(res.Matches))
	}
	if math.Abs(res.F-16.0/11.0) > eps {
		t.Fatalf("F = %v, want 16/11 (Example 9)", res.F)
	}
	got := names(t, id, res.Matches)
	if !got["PM1"] || (!got["PM2"] && !got["PM3"] && !got["PM4"]) {
		t.Fatalf("matches = %v, want PM1 plus one of PM2/PM3 (F-tied optima)", got)
	}
	// MR of TopKDiv is always 1: it evaluates every match.
	if res.Stats.MatchesFound != 4 {
		t.Fatalf("TopKDiv examined %d, want all 4", res.Stats.MatchesFound)
	}
}

func TestExample10TopKDH(t *testing.T) {
	// λ=0.1, k=2: TopKDH finds {PM2, PM3}.
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopKDH(g, p, 2, 0.1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("got %d matches", len(res.Matches))
	}
	got := names(t, id, res.Matches)
	if !got["PM2"] || (!got["PM3"] && !got["PM4"]) {
		t.Fatalf("matches = %v, want {PM2,PM3} (Example 10; PM4 ties PM3)", got)
	}
}

func TestExample6RegimesViaTopKDiv(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	cases := []struct {
		lambda float64
		need   string // one member that must be present
	}{
		{0.0, "PM2"},  // pure relevance
		{0.05, "PM2"}, // λ <= 4/33
		{0.3, "PM1"},  // 4/33 < λ < 0.5 → {PM1,PM2}
		{0.8, "PM1"},  // λ >= 0.5 → {PM1,PM3}
		{1.0, "PM1"},  // pure diversity
	}
	for _, c := range cases {
		res, err := TopKDiv(g, p, 2, c.lambda)
		if err != nil {
			t.Fatal(err)
		}
		got := names(t, id, res.Matches)
		if !got[c.need] {
			t.Errorf("λ=%v: matches %v missing %s", c.lambda, got, c.need)
		}
		// The greedy result must be within factor 2 of the brute-force
		// optimum (here it is optimal; assert the guarantee at least).
		base, err := core.MatchBaseline(g, p, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		best := BruteForceBest(res.Params, base.All, 2)
		if res.F < best/2-eps {
			t.Errorf("λ=%v: F=%v below half of optimum %v", c.lambda, res.F, best)
		}
	}
}

func TestApproximationRatioProperty(t *testing.T) {
	// On random instances, TopKDiv's F must be >= optimum/2 and <= optimum.
	rng := rand.New(rand.NewSource(13))
	labels := []string{"a", "b", "c"}
	checked := 0
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(16)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n)+n, labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(4), rng.Intn(3), labels, trial%2 == 0)
		k := 2 + rng.Intn(2)
		lambda := float64(rng.Intn(11)) / 10
		res, err := TopKDiv(g, p, k, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if !res.GlobalMatch || len(res.Matches) < k {
			continue
		}
		base, err := core.MatchBaseline(g, p, k, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.All) > 14 {
			continue // keep brute force cheap
		}
		best := BruteForceBest(res.Params, base.All, k)
		if res.F > best+eps {
			t.Fatalf("trial %d: greedy F=%v exceeds optimum %v", trial, res.F, best)
		}
		if res.F < best/2-eps {
			t.Fatalf("trial %d: F=%v violates 2-approximation of %v (λ=%v,k=%d)",
				trial, res.F, best, lambda, k)
		}
		checked++
	}
	if checked < 15 {
		t.Fatalf("too few checked trials: %d", checked)
	}
}

func TestTopKDHQualityProperty(t *testing.T) {
	// The heuristic must return a valid k-set of true matches whose F is at
	// most the optimum; the paper observes F(DH) >= ~0.77 * F(Div) — we
	// assert a loose 0.4 floor relative to TopKDiv to catch regressions
	// without overfitting.
	rng := rand.New(rand.NewSource(29))
	labels := []string{"a", "b", "c"}
	okRatio := 0
	checked := 0
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(16)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n)+n, labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(4), rng.Intn(3), labels, trial%2 == 0)
		k := 2 + rng.Intn(2)
		lambda := 0.5
		dh, err := TopKDH(g, p, k, lambda, core.Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		div, err := TopKDiv(g, p, k, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if !dh.GlobalMatch || !div.GlobalMatch || len(div.Matches) < k {
			continue
		}
		if len(dh.Matches) != len(div.Matches) {
			t.Fatalf("trial %d: DH returned %d matches, Div %d", trial, len(dh.Matches), len(div.Matches))
		}
		// Every DH member must be a true match.
		base, err := core.MatchBaseline(g, p, k, false)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[graph.NodeID]bool{}
		for _, m := range base.All {
			truth[m.Node] = true
		}
		for _, m := range dh.Matches {
			if !truth[m.Node] {
				t.Fatalf("trial %d: DH returned non-match %d", trial, m.Node)
			}
		}
		checked++
		if dh.F >= 0.4*div.F-eps {
			okRatio++
		}
	}
	if checked < 15 {
		t.Fatalf("too few checked trials: %d", checked)
	}
	if okRatio*10 < checked*9 {
		t.Fatalf("DH quality below 0.4*Div in %d/%d trials", checked-okRatio, checked)
	}
}

func TestOddK(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopKDiv(g, p, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("odd k: got %d matches", len(res.Matches))
	}
	seen := map[graph.NodeID]bool{}
	for _, m := range res.Matches {
		if seen[m.Node] {
			t.Fatal("duplicate member")
		}
		seen[m.Node] = true
	}
}

func TestK1DegeneratesToTopRelevance(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopKDiv(g, p, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Node != id["PM2"] {
		t.Fatalf("k=1 should pick PM2, got %+v", res.Matches)
	}
	dh, err := TopKDH(g, p, 1, 0.5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dh.Matches) != 1 {
		t.Fatalf("DH k=1: %d matches", len(dh.Matches))
	}
}

func TestKLargerThanPool(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopKDiv(g, p, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 4 {
		t.Fatalf("want all 4 matches, got %d", len(res.Matches))
	}
	dh, err := TopKDH(g, p, 10, 0.5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dh.Matches) != 4 {
		t.Fatalf("DH: want all 4 matches, got %d", len(dh.Matches))
	}
}

func TestBadLambda(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	if _, err := TopKDiv(g, p, 2, -0.1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := TopKDH(g, p, 2, 1.5, core.Options{}); err == nil {
		t.Error("lambda > 1 accepted")
	}
}

func TestNoMatchEmpty(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	p2 := p.Clone()
	p2.AddNode("CEO") // disconnected unmatched node
	res, err := TopKDiv(g, p2, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalMatch || len(res.Matches) != 0 {
		t.Fatal("unmatched pattern must give empty diversified result")
	}
	dh, err := TopKDH(g, p2, 2, 0.5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dh.GlobalMatch || len(dh.Matches) != 0 {
		t.Fatal("unmatched pattern must give empty DH result")
	}
}

// TestTopKDAGDH runs the paper's TopKDAGDH, TopKDH on a DAG pattern, on
// Example 7's Q1.
func TestTopKDAGDH(t *testing.T) {
	g, _ := testutil.Figure1()
	q1 := testutil.Example7Pattern()
	res, err := TopKDH(g, q1, 2, 0.5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("got %d matches", len(res.Matches))
	}
}
