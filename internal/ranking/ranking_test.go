package ranking

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"divtopk/internal/bitset"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
	"divtopk/internal/testutil"
)

const eps = 1e-12

// figure1Sets returns the relevant sets of the four PM matches of Fig. 1,
// keyed by name, over the 11-node relevant universe.
func figure1Sets(t *testing.T) (map[string]*bitset.Set, DiversifyParams) {
	t.Helper()
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := simulation.BuildCandidates(g, p)
	prod := simulation.BuildProduct(g, p, ci, 1)
	res := simulation.ComputeWithProduct(prod)
	an := pattern.Analyze(p)
	space := simulation.BuildRelSpace(g, p, res.CI, an)
	rel := simulation.ComputeRelevant(prod, space, res.InSim, p.Output(), true)
	lo, _ := res.CI.PairRange(p.Output())
	sets := map[string]*bitset.Set{}
	for _, name := range []string{"PM1", "PM2", "PM3", "PM4"} {
		sets[name] = rel.Sets[res.CI.Pair(p.Output(), id[name])-lo]
		if sets[name] == nil {
			t.Fatalf("missing set for %s", name)
		}
	}
	params := DiversifyParams{Lambda: 0.5, K: 2, Cuo: simulation.Cuo(p, res.CI, an)}
	return sets, params
}

func TestExample5Distances(t *testing.T) {
	sets, _ := figure1Sets(t)
	cases := []struct {
		a, b string
		want float64
	}{
		{"PM3", "PM4", 0},
		{"PM1", "PM2", 10.0 / 11.0},
		{"PM2", "PM3", 1.0 / 4.0},
		{"PM1", "PM3", 1},
	}
	for _, c := range cases {
		got := Distance(sets[c.a], sets[c.b])
		if math.Abs(got-c.want) > eps {
			t.Errorf("δd(%s,%s) = %v, want %v (Example 5)", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got != Distance(sets[c.b], sets[c.a]) {
			t.Errorf("δd not symmetric for (%s,%s)", c.a, c.b)
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	sets, _ := figure1Sets(t)
	names := []string{"PM1", "PM2", "PM3", "PM4"}
	for _, a := range names {
		for _, b := range names {
			for _, c := range names {
				if Distance(sets[a], sets[b]) > Distance(sets[a], sets[c])+Distance(sets[c], sets[b])+eps {
					t.Fatalf("triangle inequality violated for %s,%s,%s", a, b, c)
				}
			}
		}
	}
}

// fOf evaluates F on a 2-set by name using the Fig. 1 fixture.
func fOf(t *testing.T, sets map[string]*bitset.Set, params DiversifyParams, a, b string) float64 {
	t.Helper()
	return params.FSets([]*bitset.Set{sets[a], sets[b]})
}

func TestExample6LambdaRegimes(t *testing.T) {
	sets, params := figure1Sets(t)
	if params.Cuo != 11 {
		t.Fatalf("Cuo = %d, want 11", params.Cuo)
	}
	best := func(lambda float64) []string {
		params.Lambda = lambda
		names := []string{"PM1", "PM2", "PM3", "PM4"}
		bestV := math.Inf(-1)
		var bestSet []string
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				v := fOf(t, sets, params, names[i], names[j])
				if v > bestV+eps {
					bestV = v
					bestSet = []string{names[i], names[j]}
				}
			}
		}
		return bestSet
	}
	has := func(s []string, names ...string) bool {
		m := map[string]bool{}
		for _, x := range s {
			m[x] = true
		}
		for _, n := range names {
			if !m[n] {
				return false
			}
		}
		return true
	}

	// (a) λ=0: {PM2,PM3} (ties with {PM2,PM4} broken by iteration order are
	// acceptable; both have identical F).
	if s := best(0); !has(s, "PM2") {
		t.Errorf("λ=0 best = %v, want a set containing PM2", s)
	}
	params.Lambda = 0
	if math.Abs(fOf(t, sets, params, "PM2", "PM3")-14.0/11.0) > eps {
		t.Errorf("F({PM2,PM3}) at λ=0 = %v, want 14/11", fOf(t, sets, params, "PM2", "PM3"))
	}
	// (b) λ=1: {PM1,PM3} (F=2·δd=2; {PM1,PM4} ties).
	params.Lambda = 1
	if math.Abs(fOf(t, sets, params, "PM1", "PM3")-2.0) > eps {
		t.Errorf("F({PM1,PM3}) at λ=1 = %v, want 2", fOf(t, sets, params, "PM1", "PM3"))
	}
	// (c) 4/33 < λ < 0.5: {PM1,PM2}.
	if s := best(0.3); !has(s, "PM1", "PM2") {
		t.Errorf("λ=0.3 best = %v, want {PM1,PM2}", s)
	}
	// (d) λ <= 4/33: {PM2,PM3}.
	if s := best(0.1); !has(s, "PM2", "PM3") && !has(s, "PM2", "PM4") {
		t.Errorf("λ=0.1 best = %v, want {PM2,PM3} (Example 6d)", s)
	}
	// (e) λ >= 0.5 (strictly above to dodge the exact tie at 0.5): {PM1,PM3}.
	if s := best(0.6); !has(s, "PM1", "PM3") && !has(s, "PM1", "PM4") {
		t.Errorf("λ=0.6 best = %v, want {PM1,PM3}", s)
	}

	// Boundary identities: at λ = 4/33 the two regimes tie exactly, and at
	// λ = 0.5 {PM1,PM2} ties {PM1,PM3} at F = 16/11.
	params.Lambda = 4.0 / 33.0
	if math.Abs(fOf(t, sets, params, "PM2", "PM3")-fOf(t, sets, params, "PM1", "PM2")) > eps {
		t.Error("λ=4/33 should tie {PM2,PM3} with {PM1,PM2} (Example 6)")
	}
	params.Lambda = 0.5
	f12 := fOf(t, sets, params, "PM1", "PM2")
	f13 := fOf(t, sets, params, "PM1", "PM3")
	if math.Abs(f12-16.0/11.0) > eps || math.Abs(f13-16.0/11.0) > eps {
		t.Errorf("λ=0.5: F(PM1,PM2)=%v F(PM1,PM3)=%v, want both 16/11", f12, f13)
	}
}

func TestExample9FPrime(t *testing.T) {
	sets, params := figure1Sets(t)
	params.Lambda = 0.5
	nr := func(n string) float64 { return params.NormRel(Relevance(sets[n])) }
	got := params.FPrime(nr("PM1"), nr("PM3"), Distance(sets["PM1"], sets["PM3"]))
	if math.Abs(got-16.0/11.0) > eps { // 1.4545... printed as 1.45 in the paper
		t.Errorf("F'(PM1,PM3) = %v, want 16/11 ≈ 1.45 (Example 9)", got)
	}
	// F'(PM1,PM2) ties at 16/11 (the paper reports only the winner).
	got2 := params.FPrime(nr("PM1"), nr("PM2"), Distance(sets["PM1"], sets["PM2"]))
	if math.Abs(got2-16.0/11.0) > eps {
		t.Errorf("F'(PM1,PM2) = %v, want 16/11", got2)
	}
}

func TestFPrimeSumIdentity(t *testing.T) {
	// Σ_{i<j} F'(vi,vj) over a k-set equals F(S) (§5.1's reduction).
	sets, params := figure1Sets(t)
	names := []string{"PM1", "PM2", "PM3", "PM4"}
	params.K = 4
	params.Lambda = 0.37
	nr := make([]float64, len(names))
	ss := make([]*bitset.Set, len(names))
	for i, n := range names {
		ss[i] = sets[n]
		nr[i] = params.NormRel(Relevance(sets[n]))
	}
	sum := 0.0
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			sum += params.FPrime(nr[i], nr[j], Distance(ss[i], ss[j]))
		}
	}
	if f := params.FSets(ss); math.Abs(sum-f) > 1e-9 {
		t.Fatalf("Σ F' = %v but F(S) = %v", sum, f)
	}
}

func TestK1Degenerate(t *testing.T) {
	sets, params := figure1Sets(t)
	params.K = 1
	params.Lambda = 0.5
	f := params.FSets([]*bitset.Set{sets["PM2"]})
	want := 0.5 * 8.0 / 11.0
	if math.Abs(f-want) > eps {
		t.Fatalf("k=1 F = %v, want %v (pure normalized relevance)", f, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (DiversifyParams{Lambda: -0.1, K: 2}).Validate(); err == nil {
		t.Error("negative lambda accepted")
	}
	if err := (DiversifyParams{Lambda: 1.1, K: 2}).Validate(); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if err := (DiversifyParams{Lambda: 0.5, K: 0}).Validate(); err == nil {
		t.Error("k = 0 accepted")
	}
	if err := (DiversifyParams{Lambda: 0.5, K: 2}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	// NaN fails both sides of "< 0 || > 1"; the regression pins that it is
	// rejected with the structured sentinel rather than flowing into F.
	err := (DiversifyParams{Lambda: math.NaN(), K: 2}).Validate()
	if err == nil {
		t.Error("NaN lambda accepted")
	} else if !errors.Is(err, ErrLambdaRange) {
		t.Errorf("NaN lambda error = %v, want errors.Is(_, ErrLambdaRange)", err)
	}
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		if err := (DiversifyParams{Lambda: inf, K: 2}).Validate(); !errors.Is(err, ErrLambdaRange) {
			t.Errorf("lambda %v: err = %v, want ErrLambdaRange", inf, err)
		}
	}
	if err := (DiversifyParams{Lambda: 0.5, K: 0}).Validate(); !errors.Is(err, ErrKRange) {
		t.Errorf("k=0 err not ErrKRange")
	}
	// The boundary values stay legal.
	for _, l := range []float64{0, 1} {
		if err := (DiversifyParams{Lambda: l, K: 1}).Validate(); err != nil {
			t.Errorf("lambda %v rejected: %v", l, err)
		}
	}
}

func TestZeroCuo(t *testing.T) {
	p := DiversifyParams{Lambda: 0.5, K: 2, Cuo: 0}
	if p.NormRel(5) != 0 {
		t.Fatal("zero Cuo should normalize to 0")
	}
}

func TestGeneralizedRelevanceFuncs(t *testing.T) {
	r := bitset.New(10)
	r.Add(1)
	r.Add(2)
	r.Add(3)
	m := bitset.New(10)
	m.Add(2)
	m.Add(3)
	m.Add(4)
	m.Add(5)
	in := RelevanceInput{RSet: r, DescQueryNodes: 3, DescMatches: m}

	if got := (RelSetSize{}).Score(in); got != 3 {
		t.Errorf("RelSetSize = %v", got)
	}
	if got := (PreferenceAttachment{}).Score(in); got != 9 {
		t.Errorf("PreferenceAttachment = %v, want 9", got)
	}
	if got := (CommonNeighbors{}).Score(in); got != 2 {
		t.Errorf("CommonNeighbors = %v, want 2", got)
	}
	if got := (JaccardCoefficient{}).Score(in); math.Abs(got-2.0/5.0) > eps {
		t.Errorf("JaccardCoefficient = %v, want 0.4", got)
	}
}

func TestRegistries(t *testing.T) {
	for _, n := range RelevanceNames() {
		if _, err := RelevanceByName(n); err != nil {
			t.Errorf("RelevanceByName(%q): %v", n, err)
		}
	}
	if _, err := RelevanceByName("nope"); err == nil {
		t.Error("unknown relevance name accepted")
	}
	if len(RelevanceNames()) != 4 {
		t.Errorf("registry size: %d relevance functions, want 4", len(RelevanceNames()))
	}
}

func TestFSwapBitIdenticalToF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(12)
		p := DiversifyParams{Lambda: []float64{0, 0.3, 0.5, 1, rng.Float64()}[trial%5], K: k, Cuo: 1 + rng.Intn(50)}
		if trial%11 == 0 {
			p.K = k + 3 // a partial set under the full set's scaling
		}
		normRel, toNew := make([]float64, k), make([]float64, k)
		dist := make([]float64, k*k)
		for i := 0; i < k; i++ {
			normRel[i], toNew[i] = p.NormRel(float64(rng.Intn(40))), rng.Float64()
			for j := i + 1; j < k; j++ {
				d := rng.Float64()
				dist[i*k+j], dist[j*k+i] = d, d
			}
		}
		rel := p.NormRel(float64(rng.Intn(40)))
		for r := -1; r < k; r++ {
			subst := append([]float64(nil), normRel...)
			if r >= 0 {
				subst[r] = rel
			}
			want := p.F(subst, func(i, j int) float64 {
				switch r {
				case i:
					return toNew[j]
				case j:
					return toNew[i]
				}
				return dist[i*k+j]
			})
			if got := p.FSwap(normRel, dist, r, rel, toNew); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d λ=%v r=%d: FSwap = %v, F = %v", k, p.Lambda, r, got, want)
			}
		}
	}
}

func TestDistanceSizedBitIdenticalToDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(500)
		a, b := bitset.New(n), bitset.New(n)
		pa, pb := rng.Float64()*rng.Float64(), rng.Float64()*rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < pa {
				a.Add(i)
			}
			if rng.Float64() < pb {
				b.Add(i)
			}
		}
		got, want := DistanceSized(a, b, a.Count(), b.Count()), Distance(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: DistanceSized = %v, Distance = %v", n, got, want)
		}
	}
}
