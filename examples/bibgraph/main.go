// Command bibgraph reproduces the paper's motivating example
// (Section 3.1, Fig. 2) end to end: it builds the bibliographical
// schema by hand, checks the in/out consistency of its constraints,
// exports the configuration as gMark XML, generates instances of
// increasing size, and verifies the schema's real-world invariants on
// the generated data (papers have exactly one conference; the city
// population stays fixed while researchers grow; paper counts per
// researcher are heavy-tailed).
package main

import (
	"fmt"
	"log"
	"os"

	"gmark"
	"gmark/internal/gconfig"
)

func main() {
	// Fig. 2, built from scratch with the public API (usecases.Bib is
	// the packaged equivalent).
	cfg := &gmark.GraphConfig{
		Nodes: 10000,
		Schema: gmark.Schema{
			Types: []gmark.NodeType{
				{Name: "researcher", Occurrence: gmark.Proportion(0.50)},
				{Name: "paper", Occurrence: gmark.Proportion(0.30)},
				{Name: "journal", Occurrence: gmark.Proportion(0.10)},
				{Name: "conference", Occurrence: gmark.Proportion(0.10)},
				{Name: "city", Occurrence: gmark.Fixed(100)},
			},
			Predicates: []gmark.Predicate{
				{Name: "authors", Occurrence: gmark.Proportion(0.50)},
				{Name: "publishedIn", Occurrence: gmark.Proportion(0.30)},
				{Name: "heldIn", Occurrence: gmark.Proportion(0.10)},
				{Name: "extendedTo", Occurrence: gmark.Proportion(0.10)},
			},
			Constraints: []gmark.EdgeConstraint{
				{Source: "researcher", Target: "paper", Predicate: "authors",
					In: gmark.NewGaussian(3, 1), Out: gmark.NewZipfian(2.5)},
				{Source: "paper", Target: "conference", Predicate: "publishedIn",
					In: gmark.NewGaussian(3, 1), Out: gmark.NewUniform(1, 1)},
				{Source: "paper", Target: "journal", Predicate: "extendedTo",
					In: gmark.NewGaussian(1.5, 0.5), Out: gmark.NewUniform(0, 1)},
				{Source: "conference", Target: "city", Predicate: "heldIn",
					In: gmark.NewZipfian(1.2), Out: gmark.NewUniform(1, 1)},
			},
		},
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	// The consistency check of Section 3.2.
	for _, w := range cfg.CheckConsistency(0.25) {
		fmt.Printf("consistency note: %s\n", w)
	}

	// "Specifying all constraints ... can be easily done via a few
	// lines of XML" — export the declarative form.
	fmt.Println("\n--- configuration as gMark XML ---")
	if err := gconfig.Write(os.Stdout, gconfig.FromGraphConfig(cfg)); err != nil {
		log.Fatal(err)
	}

	// Generate instances of two sizes and verify the schema's
	// real-world shape claims.
	for _, n := range []int{5000, 20000} {
		cfg.Nodes = n
		g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== instance with n=%d: %d nodes, %d edges ===\n",
			n, g.NumNodes(), g.NumEdges())

		researcher := g.TypeIndex("researcher")
		paper := g.TypeIndex("paper")
		city := g.TypeIndex("city")
		authors := g.PredIndex("authors")
		publishedIn := g.PredIndex("publishedIn")

		fmt.Printf("researchers: %d (grows with n)\n", g.TypeCount(researcher))
		fmt.Printf("cities:      %d (fixed)\n", g.TypeCount(city))

		// Every paper is published in exactly one conference.
		pubStats := g.OutDegreeStats(paper, publishedIn)
		fmt.Printf("papers with exactly one conference: %d/%d (max=%d)\n",
			pubStats.NonZero, pubStats.Count, pubStats.Max)

		// The number of papers per researcher is Zipfian: compare the
		// top author against the mean.
		authStats := g.OutDegreeStats(researcher, authors)
		fmt.Printf("papers per researcher: mean=%.2f max=%d (heavy tail)\n",
			authStats.Mean, authStats.Max)

		// The co-authorship query from Section 3.1:
		// (authors.authors-)* — all pairs of researchers linked by a
		// co-authorship path.
		expr, err := gmark.ParsePathExpr("(authors.authors-)*")
		if err != nil {
			log.Fatal(err)
		}
		q := &gmark.Query{
			Rules: []gmark.Rule{{
				Head: []gmark.Var{0, 1},
				Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
			}},
		}
		count, err := gmark.Count(g, q, gmark.Budget{MaxPairs: 100_000_000}, gmark.EvalOptions{Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("co-authorship closure pairs: %d\n", count)
	}
}
