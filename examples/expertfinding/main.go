// Expertfinding demonstrates the paper's motivating scenario (§1): expert
// recommendation over a large collaboration network. It generates a
// synthetic scale-free organization, asks for project managers whose teams
// satisfy a structural requirement, and contrasts top-k by relevance alone
// (TopK) with diversified top-k (TopKDH), which trades some relevance for
// experts whose teams overlap less.
//
//	go run ./examples/expertfinding
package main

import (
	"fmt"
	"log"
	"time"

	divtopk "divtopk"
)

func main() {
	// A synthetic organization: 15 role labels, scale-free reporting edges.
	g := divtopk.NewSynthetic(50_000, 150_000, 15, 7)
	fmt.Printf("organization: %d people, %d supervision links\n", g.NumNodes(), g.NumEdges())

	// Mine a realistic requirement pattern (guaranteed satisfiable): a
	// 4-role reporting hierarchy that a few dozen managers satisfy.
	q, err := divtopk.GeneratePattern(g, 4, 5, false, false, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("requirement pattern:", q)

	const (
		k      = 10
		lambda = 0.5
	)

	// Warm the bound index TopKDH reads (built lazily on first use, like the
	// paper's precomputed index) with a throwaway query; time steady state.
	if _, err := divtopk.TopKDiversified(g, q, k, lambda); err != nil {
		log.Fatal(err)
	}

	// Relevance only (the find-all Match cut at k), then relevance and
	// diversity (TopKDH, which stops once its swap heuristic settles).
	start := time.Now()
	top, err := divtopk.TopK(g, q, k)
	if err != nil {
		log.Fatal(err)
	}
	topTime := time.Since(start)
	start = time.Now()
	div, err := divtopk.TopKDiversified(g, q, k, lambda)
	if err != nil {
		log.Fatal(err)
	}
	divTime := time.Since(start)

	fmt.Printf("\n%-18s %10s %10s\n", "", "TopK", "TopKDH")
	fmt.Printf("%-18s %10s %10s\n", "time", topTime.Round(time.Microsecond), divTime.Round(time.Microsecond))
	fmt.Printf("%-18s %10d %10d  (of %d matches; the paper's MR)\n", "matches examined",
		top.Stats.Examined, div.Stats.Examined, len(top.All))

	// TopK's relevances are exact; TopKDH's are lower bounds (≥) for the
	// members it stopped before finalizing.
	inTop := map[int]bool{}
	show := func(title string, ms []divtopk.Match) (sum, shared int) {
		fmt.Println(title)
		for i, m := range ms {
			rel := "≥"
			if m.Exact {
				rel = "="
			}
			fmt.Printf("  %2d. person %-8d δr %s %d\n", i+1, m.Node, rel, m.Relevance)
			sum += m.Relevance
			if inTop[m.Node] {
				shared++
			}
			inTop[m.Node] = true
		}
		return sum, shared
	}
	topSum, _ := show("\ntop experts by social impact (δr = relevant-set size):", top.Matches)
	divSum, shared := show(fmt.Sprintf("\ndiversified pick (λ = %g, F = %.3f):", lambda, div.F), div.Matches)
	fmt.Printf("\n%d of the %d diversified experts are in the relevance top-%d; Σδr %d against %d\n",
		shared, len(div.Matches), k, divSum, topSum)
}
