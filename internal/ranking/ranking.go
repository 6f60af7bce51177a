// Package ranking implements the ranking machinery of §3: the relevance
// function δr (relevant-set size), the distance function δd (Jaccard
// distance of relevant sets), the bi-criteria diversification function F
// balanced by λ, the pair objective F' used by the 2-approximation TopKDiv,
// and the generalized relevance/distance functions of §3.4.
package ranking

import (
	"errors"
	"fmt"

	"divtopk/internal/bitset"
)

// ErrLambdaRange is the structured error every diversified entry point
// returns for a λ outside [0,1] — including NaN, which no comparison chain
// of the form "< 0 || > 1" catches (NaN fails both sides). Callers match it
// with errors.Is.
var ErrLambdaRange = errors.New("ranking: lambda must be within [0,1]")

// ErrKRange is the structured error for k < 1 in diversification parameters.
var ErrKRange = errors.New("ranking: k must be >= 1")

// Relevance returns δr(u,v) = |R(u,v)| given a relevant set.
func Relevance(r *bitset.Set) float64 { return float64(r.Count()) }

// Distance returns δd(v1,v2) = 1 − |R1 ∩ R2| / |R1 ∪ R2| (§3.2). Two empty
// sets have distance 0: matches with identical (empty) impact are
// indistinguishable. δd is a metric (symmetric, triangle inequality), which
// the 2-approximation of TopKDiv relies on.
func Distance(r1, r2 *bitset.Set) float64 { return 1 - bitset.Jaccard(r1, r2) }

// DistanceSized is Distance for callers that already hold the two sets'
// sizes n1 = |R1| and n2 = |R2|: |R1 ∪ R2| = n1 + n2 − |R1 ∩ R2| is the
// integer Distance counts, so the quotient is the same float64, for an
// intersection scan alone.
func DistanceSized(r1, r2 *bitset.Set, n1, n2 int) float64 {
	inter := r1.IntersectCount(r2)
	union := n1 + n2 - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// DiversifyParams carries the fixed inputs of the diversification function:
// the user balance λ ∈ [0,1], the requested k, and the normalization
// constant C_uo of §3.3 (total candidates of the output node's descendant
// query nodes).
type DiversifyParams struct {
	Lambda float64
	K      int
	Cuo    int
}

// Validate checks the parameter ranges. The λ check is written as a negated
// conjunction so that NaN — for which both λ < 0 and λ > 1 are false — is
// rejected rather than silently poisoning every F value downstream.
func (p DiversifyParams) Validate() error {
	if !(p.Lambda >= 0 && p.Lambda <= 1) {
		return fmt.Errorf("%w (got %v)", ErrLambdaRange, p.Lambda)
	}
	if p.K < 1 {
		return fmt.Errorf("%w (got %d)", ErrKRange, p.K)
	}
	return nil
}

// NormRel returns δ'r = δr / C_uo, the normalized relevance of §3.3. With an
// empty candidate space (C_uo = 0) every relevance is 0.
func (p DiversifyParams) NormRel(rel float64) float64 {
	if p.Cuo == 0 {
		return 0
	}
	return rel / float64(p.Cuo)
}

// DiversityScale returns 2λ/(k−1), the scaling of the pairwise distance sum.
// For k = 1 the distance sum is empty and the scale is irrelevant; 0 keeps
// F well-defined (F degenerates to pure normalized relevance). F consults its
// distance callback only when the scale is nonzero, which callers that
// precompute distances may rely on.
func (p DiversifyParams) DiversityScale() float64 {
	if p.K <= 1 {
		return 0
	}
	return 2 * p.Lambda / float64(p.K-1)
}

// F evaluates the diversification function of §3.3 on a match set S given
// its normalized-relevance values and a pairwise distance callback:
//
//	F(S) = (1−λ) Σ δ'r(uo,vi)  +  2λ/(k−1) Σ_{i<j} δd(vi,vj)
//
// normRel[i] must already be normalized (δr/C_uo); dist(i,j) must be
// symmetric. k is taken from the params, not len(normRel), so partial sets
// evaluate under the same scaling as full ones (as TopKDH's F” does).
func (p DiversifyParams) F(normRel []float64, dist func(i, j int) float64) float64 {
	sum := 0.0
	for _, r := range normRel {
		sum += r
	}
	total := (1 - p.Lambda) * sum
	scale := p.DiversityScale()
	if scale != 0 {
		dsum := 0.0
		for i := 0; i < len(normRel); i++ {
			for j := i + 1; j < len(normRel); j++ {
				dsum += dist(i, j)
			}
		}
		total += scale * dsum
	}
	return total
}

// FSwap evaluates F on a set given as memoized numbers, with one member
// optionally swapped out: normRel holds the members' normalized relevances,
// dist their pairwise distances as a row-major len(normRel)² matrix, and
// member r (none when r < 0) is replaced by a candidate of normalized
// relevance rel whose distance to member i is toNew[i]. FSwap adds exactly
// the terms F would add on the substituted inputs, in F's order, so the two
// results are bit-identical (a test holds it to that); it exists because the
// swap selector of TopKDH evaluates k+1 of these per discovered match, and a
// callback per term was most of that cost.
func (p DiversifyParams) FSwap(normRel, dist []float64, r int, rel float64, toNew []float64) float64 {
	k := len(normRel)
	sum := 0.0
	for i, x := range normRel {
		if i == r {
			x = rel
		}
		sum += x
	}
	total := (1 - p.Lambda) * sum
	scale := p.DiversityScale()
	if scale != 0 {
		dsum := 0.0
		for i := 0; i < k; i++ {
			if i == r {
				for _, d := range toNew[i+1 : k] {
					dsum += d
				}
				continue
			}
			row := dist[i*k : i*k+k]
			for j := i + 1; j < k; j++ {
				d := row[j]
				if j == r {
					d = toNew[i]
				}
				dsum += d
			}
		}
		total += scale * dsum
	}
	return total
}

// FSets evaluates F on explicit relevant sets: relevance is |set|/C_uo and
// distance is the Jaccard distance. This is the form used on final results.
func (p DiversifyParams) FSets(sets []*bitset.Set) float64 {
	normRel := make([]float64, len(sets))
	for i, s := range sets {
		normRel[i] = p.NormRel(Relevance(s))
	}
	return p.F(normRel, func(i, j int) float64 { return Distance(sets[i], sets[j]) })
}

// FPrime is the pair objective of TopKDiv (§5.1):
//
//	F'(v1,v2) = (1−λ)/(k−1) · (δ'r(v1)+δ'r(v2)) + 2λ/(k−1) · δd(v1,v2)
//
// Selecting k/2 disjoint pairs greedily by F' simulates the 2-approximation
// for maximum dispersion [Hassin-Rubinstein-Tamir]: summing F' over *all*
// C(k,2) pairs of a k-set S gives each member's relevance k−1 times, so
// Σ_{i<j} F'(vi,vj) = F(S) — the reduction identity of §5.1.
func (p DiversifyParams) FPrime(normRel1, normRel2, dist float64) float64 {
	if p.K <= 1 {
		return (1 - p.Lambda) * (normRel1 + normRel2)
	}
	return (1-p.Lambda)/float64(p.K-1)*(normRel1+normRel2) + 2*p.Lambda/float64(p.K-1)*dist
}
