// Command socialnetwork exercises the LSN use case (the gMark
// encoding of the LDBC Social Network Benchmark schema): it generates
// an instance, builds a mixed workload including a recursive
// friendship-closure query, translates one query into all four
// concrete syntaxes, and races the four simulated engines on the
// workload — a miniature of the paper's Section 7 study.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"gmark"
)

func main() {
	const n = 3000
	cfg := gmark.LSN(n)
	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LSN instance: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// A selectivity-controlled workload: two queries per class.
	wl, err := gmark.Workload("con", cfg, 11)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		log.Fatal(err)
	}
	var queries []*gmark.Query
	for _, class := range []gmark.SelectivityClass{gmark.Constant, gmark.Linear, gmark.Quadratic} {
		for i := 0; i < 2; i++ {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				log.Fatal(err)
			}
			queries = append(queries, q)
		}
	}

	// Plus the classic recursive chokepoint: the knows-closure.
	expr, err := gmark.ParsePathExpr("(knows)*")
	if err != nil {
		log.Fatal(err)
	}
	closure := &gmark.Query{
		Rules: []gmark.Rule{{
			Head: []gmark.Var{0, 1},
			Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
		}},
	}
	queries = append(queries, closure)

	// Show the four concrete syntaxes for the first query.
	fmt.Printf("\nquery: %s\n", queries[0])
	for _, syntax := range []gmark.Syntax{gmark.SPARQL, gmark.OpenCypher, gmark.PostgreSQL, gmark.Datalog} {
		text, err := gmark.TranslateCount(syntax, queries[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s (count form) ---\n%s", syntax, text)
	}

	// Engine comparison with the paper's budget discipline.
	budget := gmark.Budget{MaxPairs: 20_000_000, Timeout: 20 * time.Second}
	fmt.Printf("\n%-44s", "query")
	for _, eng := range gmark.Engines() {
		fmt.Printf(" %14s", eng.Name())
	}
	fmt.Println()
	for _, q := range queries {
		label := q.Rules[0].String()
		if len(label) > 42 {
			label = label[:39] + "..."
		}
		fmt.Printf("%-44s", label)
		for _, res := range gmark.CompareEngines(g, q, budget, gmark.EvalOptions{Workers: 1}) {
			switch {
			case errors.Is(res.Err, gmark.ErrBudget):
				fmt.Printf(" %14s", "budget!")
			case res.Err != nil:
				fmt.Printf(" %14s", "error")
			default:
				fmt.Printf(" %8d/%s", res.Count, compact(res.Elapsed.Round(time.Microsecond)))
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(counts differ for engine G on recursive queries: openCypher restriction)")
}

func compact(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dus", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}
