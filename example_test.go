package gmark_test

import (
	"fmt"
	"log"

	"gmark"
)

// ExampleGenerateWorkload generates the bibliographical use case's
// conjunctive workload (Section 6.2) in parallel and profiles it. The
// queries, and so the profile, are the same at any Parallelism.
func ExampleGenerateWorkload() {
	cfg, err := gmark.UseCase("bib", 2000)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := gmark.Workload("con", cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	wl.Count = 12
	qs, err := gmark.GenerateWorkload(wl, gmark.WorkloadOptions{Parallelism: 2})
	if err != nil {
		log.Fatal(err)
	}
	prof := gmark.AnalyzeWorkload(qs)
	fmt.Println("queries:", len(qs), "distinct:", prof.Distinct)
	fmt.Println("shapes:", prof.ByShape)
	fmt.Println("conjuncts:", prof.ConjunctHist)
	fmt.Println("lengths:", prof.LengthHist)
	fmt.Println("predicates used:", len(prof.PredicateUses))
	// Output:
	// queries: 12 distinct: 12
	// shapes: map[chain:12]
	// conjuncts: map[2:4 3:2 4:6]
	// lengths: map[1:10 2:12 3:29]
	// predicates used: 4
}

// ExampleEmitWorkload streams the same workload into a profile sink
// instead of materializing it: the streamed profile equals the one
// AnalyzeWorkload computes from GenerateWorkload's slice.
func ExampleEmitWorkload() {
	cfg, err := gmark.UseCase("bib", 2000)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := gmark.Workload("con", cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	wl.Count = 12
	prof := gmark.NewWorkloadProfileSink()
	n, err := gmark.EmitWorkload(wl, gmark.WorkloadOptions{}, prof)
	if err != nil {
		log.Fatal(err)
	}
	p := prof.Profile()
	fmt.Println("queries:", n, "distinct:", p.Distinct)
	fmt.Println("shapes:", p.ByShape)
	fmt.Println("conjuncts:", p.ConjunctHist)
	fmt.Println("lengths:", p.LengthHist)
	fmt.Println("predicates used:", len(p.PredicateUses))
	// Output:
	// queries: 12 distinct: 12
	// shapes: map[chain:12]
	// conjuncts: map[2:4 3:2 4:6]
	// lengths: map[1:10 2:12 3:29]
	// predicates used: 4
}

// edgeCounter is a caller's own EdgeSink: it takes one batch per
// non-empty shard and counts the edges of each predicate.
type edgeCounter struct{ perPred map[gmark.PredID]int }

func (c *edgeCounter) AddEdgeBatch(pred gmark.PredID, srcs, dsts []gmark.NodeID) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("batch of %d sources and %d targets", len(srcs), len(dsts))
	}
	c.perPred[pred] += len(srcs)
	return nil
}

func (c *edgeCounter) Flush() error { return nil }

// ExampleEmitGraph streams the bibliographical instance into a
// caller-defined sink instead of materializing it. The counts are the
// same at any Parallelism, and they add up to the edges EmitGraph
// reports.
func ExampleEmitGraph() {
	cfg, err := gmark.UseCase("bib", 2000)
	if err != nil {
		log.Fatal(err)
	}
	sink := &edgeCounter{perPred: map[gmark.PredID]int{}}
	n, err := gmark.EmitGraph(cfg, gmark.GenOptions{Seed: 42, Parallelism: 2}, sink)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range cfg.Schema.Predicates {
		fmt.Printf("%s: %d\n", p.Name, sink.perPred[gmark.PredID(i)])
	}
	fmt.Println("edges:", n)
	// Output:
	// authors: 1811
	// publishedIn: 600
	// heldIn: 200
	// extendedTo: 297
	// edges: 2908
}
