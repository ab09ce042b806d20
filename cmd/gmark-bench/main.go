// Command gmark-bench regenerates the artefacts of the paper's
// evaluation (gMark Sections 6 and 7; abstract in PAPER.md) from the
// registry in internal/experiments. It reproduces paper artefacts
// only: the performance of this implementation is measured by
// cmd/gmark-perf.
//
// Usage:
//
//	gmark-bench -exp table2            # one experiment
//	gmark-bench -exp all -full         # everything at paper scale
//
// Experiments (-exp; "all" runs them in this order):
//
//	table1     Table 1 (Section 5.2.2): boundedness and alpha of the selectivity-class operations
//	table2     Table 2 (Section 6.2): measured alpha per selectivity class, use case and workload kind
//	table3     Table 3 (Section 6.2): graph generation time per use case and size
//	table4     Table 4 (Section 7): two recursive Bib queries on engines P, S, G, D
//	fig10      Fig. 10 (Section 6.2): SP2Bench-style vs gMark-generated queries on SP
//	fig11      Fig. 11 (Section 6.2): measured vs fitted selectivities on Bib
//	fig12      Fig. 12 (Section 7.2): Len/Dis/Con workloads per class on engines P, S, G, D
//	qgen-scal  Section 6.2: time to generate and translate a thousand-query workload
//	coverage   Section 6.1: shape, class and alphabet coverage of generated workloads
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"gmark/internal/eval"
	"gmark/internal/experiments"
)

// experimentList renders the registry as the table shown by -h and
// repeated in the package comment (main_test.go keeps the two equal).
func experimentList() string {
	var b strings.Builder
	for _, e := range experiments.All() {
		fmt.Fprintf(&b, "%-10s %s\n", e.ID, e.Paper)
	}
	return b.String()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gmark-bench: ")

	var (
		exp      = flag.String("exp", "all", "experiment id from the list below, or all")
		full     = flag.Bool("full", false, "paper-scale sweeps (slower)")
		seed     = flag.Int64("seed", 1, "random seed")
		sizes    = flag.String("sizes", "", "comma-separated graph sizes override")
		perClass = flag.Int("queries-per-class", 0, "queries per selectivity class (0 = default)")
		budget   = flag.Duration("timeout", 60*time.Second, "per-query evaluation timeout")
		maxPairs = flag.Int64("max-pairs", 50_000_000, "per-query materialization budget")
		runs     = flag.Int("runs", 1, "engine runs per measurement; >= 3 enables the paper's cold+warm protocol (Section 7.1)")
		par      = flag.Int("parallelism", 0, "graph-generation workers (0 = all cores)")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nExperiments:\n%s", experimentList())
	}
	flag.Parse()
	if *par < 0 {
		log.Fatalf("-parallelism %d: a worker count is 0 (all cores) or positive", *par)
	}

	// Resolved before anything runs or prints, so a mistyped id fails
	// up front with the valid ones.
	exps, err := experiments.Select(*exp)
	if err != nil {
		log.Fatal(err)
	}

	opt := experiments.Options{
		Seed:            *seed,
		Full:            *full,
		QueriesPerClass: *perClass,
		Budget:          eval.Budget{MaxPairs: *maxPairs, Timeout: *budget},
		Runs:            *runs,
		Parallelism:     *par,
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("bad size %q", s)
			}
			opt.Sizes = append(opt.Sizes, n)
		}
	}

	for _, e := range exps {
		fmt.Printf("\n================ %s ================\n", e.ID)
		start := time.Now()
		if err := e.Run(opt, os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
