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
