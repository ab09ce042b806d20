// Package experiments reproduces the paper's own evaluation (gMark
// Sections 6 and 7) and nothing else: one driver per table, figure
// and in-text claim, each returning structured rows plus a text
// renderer that prints the layout the paper reports. All() is the
// registry cmd/gmark-bench runs from. Performance of this
// implementation is measured by cmd/gmark-perf, not here.
package experiments

import (
	"fmt"
	"io"
	"time"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/stats"
	"gmark/internal/usecases"
)

// Options configures an experiment run. The zero value gives the
// laptop-scale defaults; Full selects the paper-scale parameters.
type Options struct {
	// Sizes overrides the default graph-size sweep (number of nodes).
	Sizes []int
	// Seed drives all generation; runs with equal options are
	// reproducible.
	Seed int64
	// QueriesPerClass is the number of queries per selectivity class in
	// the quality experiments (the paper uses 10).
	QueriesPerClass int
	// Budget bounds each single query evaluation; exceeding it records
	// a failure, mirroring the paper's timeouts.
	Budget eval.Budget
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
	// Full selects the paper-scale sweeps (up to 32K-node instances for
	// quality experiments, multi-million-node instances for Table 3).
	Full bool
	// Runs selects the engine measurement protocol: 1 (default) times a
	// single evaluation; values >= 3 apply the Section 7.1 protocol —
	// one discarded cold run, then Runs warm runs of which the fastest
	// and slowest are dropped and the rest averaged.
	Runs int
	// Parallelism is the graph-generation worker count (0 = all
	// cores). Generated instances are identical for any value at a
	// fixed seed.
	Parallelism int
}

// measureEngine runs one engine evaluation under the configured
// protocol and returns the representative duration, the count, and the
// first error (an error on any run fails the measurement).
func measureEngine(opt Options, evaluate func() (int64, error)) (time.Duration, int64, error) {
	if opt.Runs < 3 {
		start := time.Now()
		count, err := evaluate()
		return time.Since(start), count, err
	}
	// Cold run, excluded from the average (Section 7.1).
	count, err := evaluate()
	if err != nil {
		return 0, 0, err
	}
	times := make([]float64, 0, opt.Runs)
	for i := 0; i < opt.Runs; i++ {
		start := time.Now()
		if _, err := evaluate(); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return time.Duration(stats.TrimmedMean(times) * float64(time.Second)), count, nil
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.QueriesPerClass == 0 {
		if o.Full {
			o.QueriesPerClass = 10
		} else {
			o.QueriesPerClass = 5
		}
	}
	if o.Budget.MaxPairs == 0 {
		o.Budget.MaxPairs = 50_000_000
	}
	if o.Budget.Timeout == 0 {
		o.Budget.Timeout = 60 * time.Second
	}
	return o
}

// qualitySizes returns the instance-size sweep for the selectivity
// quality experiments (paper: 2K to 32K).
func (o Options) qualitySizes() []int {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	if o.Full {
		return []int{2000, 4000, 8000, 16000, 32000}
	}
	return []int{1000, 2000, 4000, 8000}
}

// engineSizes returns the instance-size sweep for the engine
// comparison experiments (paper: 2K to 16K).
func (o Options) engineSizes() []int {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	if o.Full {
		return []int{2000, 4000, 8000, 16000}
	}
	return []int{500, 1000, 2000, 4000}
}

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// buildGraphs generates one instance per size, reporting progress.
func buildGraphs(o Options, usecase string, sizes []int) (map[int]*graph.Graph, error) {
	graphs := make(map[int]*graph.Graph, len(sizes))
	for _, n := range sizes {
		cfg, err := usecases.ByName(usecase, n)
		if err != nil {
			return nil, err
		}
		g, err := graphgen.Generate(cfg, graphgen.Options{Seed: o.Seed, Parallelism: o.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("%s at %d nodes: %w", usecase, n, err)
		}
		graphs[n] = g
		o.progressf("generated %s instance: %d nodes, %d edges", usecase, g.NumNodes(), g.NumEdges())
	}
	return graphs, nil
}

// presetGenerator builds the query generator for one of the built-in
// workload kinds over a use case's schema.
func presetGenerator(usecase, kind string, nodes int, seed int64) (*querygen.Generator, error) {
	gcfg, err := usecases.ByName(usecase, nodes)
	if err != nil {
		return nil, err
	}
	wcfg, err := usecases.Workload(kind, gcfg, seed)
	if err != nil {
		return nil, err
	}
	return querygen.New(wcfg)
}

// classWorkload generates per-class query sets with the Section 6.2
// protocol: QueriesPerClass queries for each of the three selectivity
// classes.
func classWorkload(gen *querygen.Generator, perClass int) (map[query.SelectivityClass][]*query.Query, error) {
	out := make(map[query.SelectivityClass][]*query.Query, 3)
	for _, class := range classes {
		for i := 0; i < perClass; i++ {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				return nil, err
			}
			out[class] = append(out[class], q)
		}
	}
	return out, nil
}

// pathQuery is the fixed binary query (?x, ?y) <- (?x, expr, ?y) with a
// declared selectivity class, as Table 4 and Fig. 10 use.
func pathQuery(expr string, class query.SelectivityClass) *query.Query {
	return &query.Query{
		Shape: query.Chain, HasClass: true, Class: class,
		Rules: []query.Rule{{
			Head: []query.Var{0, 1},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(expr)}},
		}},
	}
}

// classes lists the three classes in table order.
var classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
