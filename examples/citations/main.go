// Citations runs DAG pattern queries over a citation-style network (the
// paper's Citation workload): find influential papers whose citation
// neighborhood matches a structural requirement, filtered by attribute
// predicates (publication year), and compare the generalized relevance
// functions of §3.4 on the result.
//
//	go run ./examples/citations
package main

import (
	"fmt"
	"log"

	divtopk "divtopk"
)

func main() {
	g := divtopk.NewCitationLike(60_000, 150_000, 9)
	fmt.Printf("citation graph: %d papers, %d citations\n", g.NumNodes(), g.NumEdges())

	// Recent DB papers citing ML work that builds on THEORY foundations.
	pb := divtopk.NewPatternBuilder()
	dbp := pb.AddNode("DB", divtopk.Ge("year", 1990))
	mlp := pb.AddNode("ML")
	thp := pb.AddNode("THEORY")
	if err := pb.AddEdge(dbp, mlp); err != nil {
		log.Fatal(err)
	}
	if err := pb.AddEdge(mlp, thp); err != nil {
		log.Fatal(err)
	}
	if err := pb.AddEdge(dbp, thp); err != nil {
		log.Fatal(err)
	}
	if err := pb.Output(dbp); err != nil {
		log.Fatal(err)
	}
	q, err := pb.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pattern:", q, "(DAG:", q.IsDAG(), ")")

	res, err := divtopk.TopK(g, q, 5)
	if err != nil {
		log.Fatal(err)
	}
	if !res.GlobalMatch {
		log.Fatal("no matches; increase the graph size")
	}
	fmt.Printf("\ntop-5 of %d matching DB papers (%d candidates) by citation impact:\n",
		len(res.All), res.Stats.Candidates)
	for i, m := range res.Matches {
		year, _ := g.Attr(m.Node, "year")
		fmt.Printf("  %d. paper %-8d area=%-8s year=%-5s impact=%d\n",
			i+1, m.Node, m.Label, year, m.Relevance)
	}

	// Diversified: avoid recommending papers whose influence cones overlap.
	div, err := divtopk.TopKDiversified(g, q, 5, 0.5, divtopk.WithApproximation())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiversified top-5 (λ=0.5, F=%.3f):\n", div.F)
	for i, m := range div.Matches {
		fmt.Printf("  %d. paper %-8d impact=%d\n", i+1, m.Node, m.Relevance)
	}

	// Generalized relevance functions of §3.4 over the same query.
	for _, fn := range []string{"preference-attachment", "jaccard-coefficient"} {
		ranked, scores, err := divtopk.TopKByRelevanceFunc(g, q, 3, fn)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntop-3 under %s:", fn)
		for i, m := range ranked.Matches {
			fmt.Printf(" %d(score %.3f)", m.Node, scores[i])
		}
		fmt.Println()
	}

	// Overlap comparison: how much do the two answers' audiences intersect?
	overlap := func(a, b []int) int {
		seen := map[int]bool{}
		for _, x := range a {
			seen[x] = true
		}
		n := 0
		for _, x := range b {
			if seen[x] {
				n++
			}
		}
		return n
	}
	if len(res.Matches) >= 2 {
		fmt.Printf("\naudience overlap of the two most relevant: %d papers\n",
			overlap(res.Matches[0].RelevantSet, res.Matches[1].RelevantSet))
	}
	if len(div.Matches) >= 2 {
		fmt.Printf("audience overlap of the two most diversified: %d papers\n",
			overlap(div.Matches[0].RelevantSet, div.Matches[1].RelevantSet))
	}
}
