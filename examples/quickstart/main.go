// Command quickstart is the minimal end-to-end gMark pipeline: define
// a small schema, generate a graph instance, generate a
// selectivity-controlled query workload coupled to it, translate one
// query into all four concrete syntaxes, and evaluate it.
package main

import (
	"fmt"
	"log"

	"gmark"
)

func main() {
	// A three-type schema: a growing population of users posting
	// messages, in a fixed set of rooms. Users follow each other with
	// a power law in both directions — the quadratic chokepoint.
	cfg := &gmark.GraphConfig{
		Nodes: 5000,
		Schema: gmark.Schema{
			Types: []gmark.NodeType{
				{Name: "user", Occurrence: gmark.Proportion(0.40)},
				{Name: "message", Occurrence: gmark.Proportion(0.60)},
				{Name: "room", Occurrence: gmark.Fixed(50)},
			},
			Predicates: []gmark.Predicate{
				{Name: "follows", Occurrence: gmark.Proportion(0.45)},
				{Name: "wrote", Occurrence: gmark.Proportion(0.45)},
				{Name: "in", Occurrence: gmark.Proportion(0.10)},
			},
			Constraints: []gmark.EdgeConstraint{
				{Source: "user", Target: "user", Predicate: "follows",
					In: gmark.NewZipfian(1.8), Out: gmark.NewZipfian(1.8)},
				{Source: "user", Target: "message", Predicate: "wrote",
					In: gmark.NewUniform(1, 1), Out: gmark.NewGaussian(3, 1)},
				{Source: "message", Target: "room", Predicate: "in",
					In: gmark.Unspecified(), Out: gmark.NewUniform(1, 1)},
			},
		},
	}

	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	wl := gmark.WorkloadConfig{
		Graph: cfg,
		Count: 6,
		Arity: gmark.Interval{Min: 2, Max: 2},
		Size: gmark.QuerySize{
			Rules:     gmark.Interval{Min: 1, Max: 1},
			Conjuncts: gmark.Interval{Min: 1, Max: 3},
			Disjuncts: gmark.Interval{Min: 1, Max: 2},
			Length:    gmark.Interval{Min: 1, Max: 3},
		},
		Classes: []gmark.SelectivityClass{gmark.Constant, gmark.Linear, gmark.Quadratic},
		Seed:    7,
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		log.Fatal(err)
	}

	for _, class := range []gmark.SelectivityClass{gmark.Constant, gmark.Linear, gmark.Quadratic} {
		q, err := gen.GenerateWithClass(class)
		if err != nil {
			log.Fatal(err)
		}
		count, err := gmark.Count(g, q, gmark.Budget{}, gmark.EvalOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s query (|Q(G)| = %d):\n  %s\n", class, count, q)
	}

	// Translate one more query into every supported syntax.
	q, err := gen.GenerateWithClass(gmark.Linear)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntranslations of: %s\n", q)
	for _, syntax := range []gmark.Syntax{gmark.SPARQL, gmark.OpenCypher, gmark.PostgreSQL, gmark.Datalog} {
		text, err := gmark.Translate(syntax, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s ---\n%s", syntax, text)
	}
}
