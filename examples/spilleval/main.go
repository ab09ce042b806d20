// Command spilleval is the out-of-core evaluation walkthrough:
// generate an instance straight into a CSR spill (never holding the
// graph in memory), then run the paper's four simulated engines and
// the reference evaluator over the spill — the Section 7 comparison at
// beyond-memory scale. The spill carries persisted active-domain
// bitmaps (manifest format_version 2), so even the recursive query
// builds its epsilon mask without sweeping a single shard file.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"gmark"
)

func main() {
	// The paper's bibliographic schema (Fig. 2). Bump the node count to
	// push the spill past RAM — nothing below materializes the graph.
	const nodes = 50_000
	cfg := gmark.Bib(nodes)

	dir, err := os.MkdirTemp("", "gmark-spilleval-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Stream the generation pipeline into the incremental spill sink:
	// edges are routed to per-(predicate, direction, node-range) runs
	// under a fixed buffer budget; Flush then builds and writes each run
	// as an independent unit on GOMAXPROCS workers, admitting units only
	// while the pairs in flight fit the same budget, so peak writer
	// memory is bounded regardless of instance size.
	sink, err := gmark.NewGraphCSRSpillSink(dir, cfg, 0, gmark.GraphSpillCompressVarint)
	if err != nil {
		log.Fatal(err)
	}
	n, err := gmark.EmitGraph(cfg, gmark.GenOptions{Seed: 42}, sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spilled %d edges to %s\n", n, dir)

	// Open the spill as an evaluation source: a bounded LRU cache of
	// shard files (64 MiB here) is the only resident state.
	src, err := gmark.OpenGraphSpill(dir, gmark.GraphSpillSourceOptions{CacheBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}

	// One non-recursive join and one recursive closure, the shapes of
	// the paper's engine study (Table 4).
	queries := []struct{ label, expr string }{
		{"co-authorship join", "authors-.authors"},
		{"conference-chain closure", "(heldIn-.heldIn)*"},
	}
	for _, qc := range queries {
		expr, err := gmark.ParsePathExpr(qc.expr)
		if err != nil {
			log.Fatal(err)
		}
		q := &gmark.Query{Rules: []gmark.Rule{{
			Head: []gmark.Var{0, 1},
			Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
		}}}

		ref, err := gmark.Count(src, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s  %s\n  reference count: %d\n", qc.label, qc.expr, ref)

		// Engine G's recursive counts follow its documented openCypher
		// rewriting, so on the closure query it legitimately differs.
		for _, res := range gmark.CompareEngines(src, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1}) {
			if res.Err != nil {
				fmt.Printf("  engine %s: failed: %v\n", res.Engine, res.Err)
				continue
			}
			fmt.Printf("  engine %s: count %d in %v\n", res.Engine, res.Count, res.Elapsed.Round(10*time.Microsecond))
		}
	}

	st := src.CacheStats()
	fmt.Printf("\nshard cache: %d loads, %d hits, %d evictions, %d bytes resident\n",
		st.Loads, st.Hits, st.Evictions, st.BytesUsed)
}
