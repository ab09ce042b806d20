// Command gmark-perf is the repository's benchmark: one command that
// measures the whole path — generate, store, query-generate, evaluate,
// serve — end to end, and in a traced run every layer inside it, checks
// that the outputs are correct, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md next to this file explains them.
//
//	go run ./cmd/gmark-perf                        # every workload, end to end
//	go run ./cmd/gmark-perf -trace 1 -out perf-out # plus the traced runs, kept as JSON
//	go run ./cmd/gmark-perf -workload qgen -seed 2 -seconds 8 -trace 0
//	go run ./cmd/gmark-perf -compare a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// workloads lists the benchmark's workloads in the order they run.
var workloads = []workloadDef{
	{"gen-stream", "emission and text formatting: four use cases streamed as edge lists into a CRC, no disk; a storage-sink change must not move it", "edge", func() workload { return &genStream{} }},
	{"gen-store", "sink- and decoder-bound: one instance written as a varint CSR spill and a binary partition to real files, the spill read back shard by shard", "edge", func() workload { return &genStore{} }},
	{"qgen", "the query half: querygen, selectivity and translate render 8000 con/rec queries in four syntaxes; no graph, no evaluator", "query", func() workload { return &qgen{} }},
	{"eval-mem", "reference evaluator with no storage layer: the 60-query recipe counted over two in-memory instances; the control for spill and cache work", "query", func() workload { return &evalMem{spec: evalSpec{"sp", 4_000, 2}} }},
	{"eval-spill", "same evaluator and recipe over four varint CSR spills opened fresh each pass, cache fits: every Neighbors goes through SpillSource and ShardCache", "query", func() workload { return &evalSpill{spec: evalSpec{"sp", 800, 4}} }},
	{"serve-sweep", "a loader pulling three instances shard by shard over HTTP: every slice once, no cache hits, each miss a whole-predicate emission", "request", func() workload { return &serveSweep{} }},
	{"serve-hot", "the same server under Zipf-skewed re-reads of slices and workload windows, slice cache smaller than the key universe", "request", func() workload { return &serveHot{} }},
}

// scratchDir holds every file a run writes, inside the working
// directory so a run touches nothing outside its checkout.
const scratchDir = ".gmark-perf-tmp"

// defaultSeconds is how long one run measures unless told otherwise; it
// equals run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: each workload in a fresh process)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		secs    = flag.Float64("seconds", defaultSeconds, "seconds of timed passes per run")
		traced  = flag.Int("trace", 0, "1: record spans and run the per-layer probes, print the per-layer metrics")
		out     = flag.String("out", "", "directory to keep results (and traces) in, as JSON")
		compare = flag.Bool("compare", false, "compare two results.json files against the bounds: -compare a.json b.json")
		smoke   = flag.Bool("smoke", false, "sizes / 100 and one pass: checks that everything runs and verifies, measures nothing")
	)
	flag.Parse()
	if err := run(*name, *seed, *secs, *traced != 0, *out, *compare, *smoke, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "gmark-perf:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs float64, traced bool, out string, compare, smoke bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two results.json files")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if name == "" {
		return runAll(seed, secs, traced, out, smoke)
	}
	for _, def := range workloads {
		if def.name != name {
			continue
		}
		res, err := runWorkload(def, runOptions{seed: seed, seconds: secs, traced: traced, smoke: smoke, tmpRoot: scratchDir, outDir: out})
		if err != nil {
			return err
		}
		if err := res.print(); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed verification", name, res.Failed, res.Attempted)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// runAll runs every workload in a process of its own — a clean heap and
// a peak RSS per workload — untraced, and traced as well when asked.
func runAll(seed int64, secs float64, traced bool, out string, smoke bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	keep := out
	if keep == "" {
		// The summary needs the children's results even when the caller
		// does not want them kept.
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return err
		}
		if keep, err = os.MkdirTemp(scratchDir, "results-"); err != nil {
			return err
		}
		defer os.RemoveAll(keep)
	}
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	var results []*result
	var failed []string
	for _, def := range workloads {
		for _, tr := range modes {
			args := []string{"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs), "-out", keep, "-trace", "0"}
			if tr {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %v): %v", def.name, tr, err))
				continue
			}
			res, err := readResult(filepath.Join(keep, resultFileName(def.name, tr)))
			if err != nil {
				return err
			}
			results = append(results, res)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(resultSet{Results: results}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, "results.json"), data, 0o644); err != nil {
			return err
		}
	}
	printSummary(results)
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

// resultSet is results.json: one run of every workload. Claim is
// always null — a run of the benchmark measures; a gain is claimed, if
// ever, by the change that compares two of these.
type resultSet struct {
	Claim   *string   `json:"claim"`
	Results []*result `json:"results"`
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// printSummary prints one row per workload with its end-to-end metrics.
func printSummary(results []*result) {
	fmt.Printf("\n%-12s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %14s", d.Name)
	}
	fmt.Printf(" %8s %9s %7s\n", "passes", "attempted", "failed")
	for _, r := range results {
		if r.Traced {
			continue
		}
		fmt.Printf("%-12s", r.Workload)
		for _, d := range endToEnd {
			fmt.Printf(" %14.6g", r.Metrics[d.Name].Value)
		}
		fmt.Printf(" %8d %9d %7d\n", len(r.PassWallS), r.Attempted, r.Failed)
	}
}
