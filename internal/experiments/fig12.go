package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"gmark/internal/engines"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/stats"
)

// Fig12Cell is one bar of Fig. 12: the query execution time of one
// engine on one workload at one instance size, averaged over the
// workload's queries with the paper's outlier-discarding protocol.
type Fig12Cell struct {
	Size      int
	MeanTime  time.Duration
	Failures  int // queries that exceeded the budget
	Succeeded int
}

// Fig12Row is one (workload-kind, engine) group of bars.
type Fig12Row struct {
	Kind   string // len, dis, con
	Engine string
	Cells  []Fig12Cell
}

// Fig12Result groups rows per selectivity class: Fig. 12(a) constant,
// (b) linear, (c) quadratic.
type Fig12Result struct {
	Class query.SelectivityClass
	Rows  []Fig12Row
}

// Fig12 reproduces Fig. 12: the three non-recursive workload kinds
// (Len, Dis, Con) on the Bib use case, each split by selectivity
// class, executed on all four engines across instance sizes. Chain
// queries with the count(distinct) head, per Section 7.1.
func Fig12(opt Options) ([]Fig12Result, error) {
	opt = opt.withDefaults()
	sizes := opt.engineSizes()
	graphs, err := buildGraphs(opt, "bib", sizes)
	if err != nil {
		return nil, err
	}
	return fig12Results(opt, sizes, graphs)
}

func fig12Results(opt Options, sizes []int, graphs map[int]*graph.Graph) ([]Fig12Result, error) {
	kinds := []string{"len", "dis", "con"}
	results := make([]Fig12Result, len(classes))
	for ci, class := range classes {
		results[ci] = Fig12Result{Class: class}
	}

	for _, kind := range kinds {
		gen, err := presetGenerator("bib", kind, sizes[0], opt.Seed)
		if err != nil {
			return nil, err
		}
		byClass, err := classWorkload(gen, opt.QueriesPerClass)
		if err != nil {
			return nil, err
		}
		for ci, class := range classes {
			for _, eng := range engines.All() {
				row := Fig12Row{Kind: kind, Engine: eng.Name()}
				for _, n := range sizes {
					cell := Fig12Cell{Size: n}
					var times []float64
					for _, q := range byClass[class] {
						g, q := graphs[n], q
						elapsed, _, err := measureEngine(opt, func() (int64, error) {
							return engines.EvaluateOpt(eng, g, q, opt.Budget, eval.EvalOptions{Workers: 1})
						})
						if err != nil {
							if !errors.Is(err, eval.ErrBudget) {
								return nil, fmt.Errorf("%s/%s engine %s at %d nodes: %s: %w", kind, class, eng.Name(), n, q, err)
							}
							cell.Failures++
							continue
						}
						cell.Succeeded++
						times = append(times, elapsed.Seconds())
					}
					if len(times) > 0 {
						// Section 7.2: discard the outliers farthest
						// from the overall average.
						discard := len(times) / 5
						cell.MeanTime = time.Duration(stats.DiscardFarthest(times, discard) * float64(time.Second))
					}
					row.Cells = append(row.Cells, cell)
				}
				results[ci].Rows = append(results[ci].Rows, row)
				opt.progressf("fig12 %s/%s engine %s done", kind, class, eng.Name())
			}
		}
	}
	return results, nil
}

// RenderFig12 prints each sub-figure as a table: rows are
// workload/engine pairs, columns are instance sizes.
func RenderFig12(w io.Writer, results []Fig12Result) {
	for _, res := range results {
		fmt.Fprintf(w, "\nFig. 12 — %s queries\n", res.Class)
		if len(res.Rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s", "")
		for _, c := range res.Rows[0].Cells {
			fmt.Fprintf(w, " %12s", humanCount(c.Size))
		}
		fmt.Fprintln(w)
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%-3s/%-6s", r.Kind, r.Engine)
			for _, c := range r.Cells {
				if c.Succeeded == 0 {
					fmt.Fprintf(w, " %12s", "-")
					continue
				}
				label := fmt.Sprintf("%.2gms", float64(c.MeanTime.Microseconds())/1000)
				if c.Failures > 0 {
					label += "!"
				}
				fmt.Fprintf(w, " %12s", label)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\n(!) some queries of the workload exceeded the budget at that size.")
}
