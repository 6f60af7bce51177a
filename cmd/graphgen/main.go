// Command graphgen generates the datasets of the evaluation (synthetic,
// amazon-like, citation-like, youtube-like) and, optionally, an
// instance-guided pattern workload, writing them in the library's text
// formats.
//
// Usage:
//
//	graphgen -kind youtube -n 100000 -m 350000 -seed 1 -out graph.txt
//	graphgen -kind citation -n 50000 -m 120000 -out g.txt \
//	         -patterns 10 -pnodes 4 -pedges 6 -pattern-out q
//
// With -patterns N it also writes q-0.txt .. q-(N-1).txt next to the graph.
// Passing -stats prints the structural summary of the generated graph.
package main

import (
	"flag"
	"fmt"
	"os"

	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

func main() {
	kind := flag.String("kind", "synthetic", "dataset: synthetic|amazon|citation|youtube")
	n := flag.Int("n", 10000, "number of nodes")
	m := flag.Int("m", 30000, "number of edges")
	labels := flag.Int("labels", 15, "label alphabet size (synthetic only)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output graph file (default stdout)")
	stats := flag.Bool("stats", false, "print structural stats to stderr")

	patterns := flag.Int("patterns", 0, "also generate this many patterns")
	pnodes := flag.Int("pnodes", 4, "pattern nodes |Vp|")
	pedges := flag.Int("pedges", 6, "pattern edges |Ep|")
	pcyclic := flag.Bool("pcyclic", false, "require a cycle in patterns")
	ppreds := flag.Bool("ppreds", false, "attach attribute predicates")
	patternOut := flag.String("pattern-out", "pattern", "pattern file prefix")
	flag.Parse()
	if *n < 0 || *m < 0 {
		fmt.Fprintf(os.Stderr, "-n %d -m %d: node and edge counts must not be negative\n", *n, *m)
		os.Exit(2)
	}

	var g *graph.Graph
	switch *kind {
	case "synthetic":
		g = gen.Synthetic(gen.SynthConfig{N: *n, M: *m, Labels: *labels, Seed: *seed})
	case "amazon":
		g = gen.AmazonLike(*n, *m, *seed)
	case "citation":
		g = gen.CitationLike(*n, *m, *seed)
	case "youtube":
		g = gen.YouTubeLike(*n, *m, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graph.Write(w, g); err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprint(os.Stderr, graph.ComputeStats(g).String())
	}

	if *patterns > 0 {
		ps, err := gen.Suite(g, gen.PatternConfig{
			Nodes: *pnodes, Edges: *pedges, Cyclic: *pcyclic, Predicates: *ppreds, Seed: *seed,
		}, *patterns)
		if err != nil {
			fatal(err)
		}
		for i, p := range ps {
			name := fmt.Sprintf("%s-%d.txt", *patternOut, i)
			f, err := os.Create(name)
			if err != nil {
				fatal(err)
			}
			if err := pattern.Write(f, p); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s: %s\n", name, p)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
