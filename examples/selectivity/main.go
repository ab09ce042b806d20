// Command selectivity is a miniature of the paper's Table 2 quality
// study on the dense WatDiv-style use case: it generates per-class
// query workloads, evaluates them on WD instances of increasing size,
// fits the selectivity exponent alpha of each query by log-log
// regression, and prints the per-class aggregate — demonstrating that
// the schema-driven estimates (alpha ~ 0, 1, 2) hold on generated
// data without ever consulting an instance during query generation.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"gmark"
)

func main() {
	sizes := []int{500, 1000, 2000, 4000}
	const queriesPerClass = 4

	cfg := gmark.WD(sizes[0])
	graphs := make(map[int]*gmark.Graph, len(sizes))
	for _, n := range sizes {
		c := gmark.WD(n)
		g, err := gmark.GenerateGraph(c, gmark.GenOptions{Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		graphs[n] = g
		fmt.Printf("WD instance n=%d: %d nodes, %d edges\n", n, g.NumNodes(), g.NumEdges())
	}

	wl, err := gmark.Workload("con", cfg, 3)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		log.Fatal(err)
	}

	budget := gmark.Budget{MaxPairs: 30_000_000, Timeout: 30 * time.Second}
	fmt.Printf("\n%-10s %-60s %8s\n", "class", "query", "alpha")
	for _, class := range []gmark.SelectivityClass{gmark.Constant, gmark.Linear, gmark.Quadratic} {
		var alphas []float64
		for i := 0; i < queriesPerClass; i++ {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				log.Fatal(err)
			}
			var xs, ys []float64
			failed := false
			for _, n := range sizes {
				count, err := gmark.Count(graphs[n], q, budget, gmark.EvalOptions{Workers: 1})
				if err != nil {
					failed = true
					break
				}
				if count < 1 {
					count = 1
				}
				xs = append(xs, math.Log(float64(n)))
				ys = append(ys, math.Log(float64(count)))
			}
			if failed {
				fmt.Printf("%-10s %-60s %8s\n", class, clip(q), "budget!")
				continue
			}
			alpha := slope(xs, ys)
			alphas = append(alphas, alpha)
			fmt.Printf("%-10s %-60s %8.2f\n", class, clip(q), alpha)
		}
		if len(alphas) > 0 {
			fmt.Printf("%-10s %-60s %8.2f  <- mean (target %d)\n\n",
				class, "", mean(alphas), class.Alpha())
		}
	}
}

func clip(q *gmark.Query) string {
	s := q.Rules[0].String()
	if len(s) > 58 {
		return s[:55] + "..."
	}
	return s
}

func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
