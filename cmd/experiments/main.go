// Command experiments regenerates the paper's evaluation (Fig. 4, Fig.
// 5a-l, the λ-sensitivity result, and two ablations) on the substituted
// datasets and prints each figure as a text table.
//
// Usage:
//
//	experiments [-scale small|medium] [-figure all|fig4|fig5a|...|lambda|ablation-bounds|ablation-shape]
//
// Run with -figure all (the default) to reproduce everything; each table
// prints the paper's expected shape (Figure.Notes) under the measured rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"divtopk/internal/bench"
)

func main() {
	scale := flag.String("scale", "medium", "dataset scale preset: small|medium")
	figure := flag.String("figure", "all", "experiment to run: all, fig4, fig5a..fig5l, lambda, ablation-bounds, ablation-shape, list")
	flag.Parse()

	sc, err := bench.ByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *figure == "list" {
		ids := make([]string, 0, len(bench.Registry)+1)
		for id := range bench.Registry {
			ids = append(ids, id)
		}
		ids = append(ids, "fig4")
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	start := time.Now()
	switch *figure {
	case "all":
		for _, f := range bench.All(sc) {
			fmt.Println(f.Format())
		}
		fmt.Println(bench.Fig4(sc))
		fmt.Println(bench.Lambda(sc).Format())
		fmt.Println(bench.AblationBounds(sc).Format())
		fmt.Println(bench.AblationShape(sc).Format())
		fmt.Println(bench.MRScale(sc).Format())
	case "fig4":
		fmt.Println(bench.Fig4(sc))
	default:
		run, ok := bench.Registry[*figure]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (try -figure list)\n", *figure)
			os.Exit(2)
		}
		fmt.Println(run(sc).Format())
	}
	fmt.Printf("# scale=%s total=%s\n", sc.Name, time.Since(start).Round(time.Millisecond))
}
