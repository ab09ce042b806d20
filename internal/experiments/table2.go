package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/stats"
	"gmark/internal/usecases"
)

// Table2Row is one row of Table 2: alpha averaged (with standard
// deviation) across the queries of each selectivity class, for one
// (scenario, workload-kind) pair.
type Table2Row struct {
	Scenario string
	Kind     string
	Mean     [3]float64 // indexed constant, linear, quadratic
	Std      [3]float64
	Missing  [3]bool // true when every query of the class failed
	Failures int     // individual query evaluations that exceeded the budget
}

// Label renders the paper's row label, e.g. "LSN-Len".
func (r Table2Row) Label() string {
	if r.Kind == "" {
		return strings.ToUpper(r.Scenario)
	}
	return strings.ToUpper(r.Scenario) + "-" + strings.ToUpper(r.Kind[:1]) + r.Kind[1:]
}

// Table2 reproduces Table 2: for each use case and workload kind,
// generate QueriesPerClass queries per selectivity class, evaluate
// them on instances of increasing size, fit alpha by log-log
// regression, and aggregate per class.
func Table2(opt Options) ([]Table2Row, error) {
	opt = opt.withDefaults()
	sizes := opt.qualitySizes()

	type spec struct{ scenario, kind string }
	var specs []spec
	for _, sc := range []string{"lsn", "bib", "wd"} {
		for _, kind := range usecases.WorkloadKinds {
			specs = append(specs, spec{sc, kind})
		}
	}
	// The paper's final row: SP with queries following the gMark
	// encoding of the original SP2Bench query set (conjunct-shaped).
	specs = append(specs, spec{"sp", ""})

	var rows []Table2Row

	// Generate graphs once per scenario and share them across kinds.
	cache := map[string]map[int]*graph.Graph{}
	for _, s := range specs {
		if _, ok := cache[s.scenario]; ok {
			continue
		}
		gs, err := buildGraphs(opt, s.scenario, sizes)
		if err != nil {
			return nil, err
		}
		cache[s.scenario] = gs
	}

	for _, s := range specs {
		row, err := table2Row(opt, s.scenario, s.kind, sizes, cache[s.scenario])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		opt.progressf("table2 row %s done", row.Label())
	}
	return rows, nil
}

func table2Row(opt Options, scenario, kind string, sizes []int, graphs map[int]*graph.Graph) (Table2Row, error) {
	row := Table2Row{Scenario: scenario, Kind: kind}
	wkind := kind
	if wkind == "" {
		wkind = "con"
	}
	gen, err := presetGenerator(scenario, wkind, sizes[0], opt.Seed)
	if err != nil {
		return row, err
	}
	byClass, err := classWorkload(gen, opt.QueriesPerClass)
	if err != nil {
		return row, err
	}

	for ci, class := range classes {
		var alphas []float64
		for _, q := range byClass[class] {
			var okSizes []int
			var counts []int64
			failed := false
			for _, n := range sizes {
				c, err := eval.CountWith(graphs[n], q, opt.Budget, eval.EvalOptions{Workers: 1})
				if err != nil {
					if !errors.Is(err, eval.ErrBudget) {
						return row, fmt.Errorf("%s at %d nodes: %s: %w", row.Label(), n, q, err)
					}
					row.Failures++
					failed = true
					break
				}
				okSizes = append(okSizes, n)
				counts = append(counts, c)
			}
			if failed || len(okSizes) < 2 {
				continue
			}
			alphas = append(alphas, stats.AlphaFromCounts(okSizes, counts))
		}
		if len(alphas) == 0 {
			row.Missing[ci] = true
			continue
		}
		row.Mean[ci], row.Std[ci] = stats.MeanStd(alphas)
	}
	return row, nil
}

// RenderTable2 prints the rows in the paper's layout.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %18s %18s %18s\n", "", "Constant", "Linear", "Quadratic")
	for _, r := range rows {
		cells := make([]string, 3)
		for i := range cells {
			if r.Missing[i] {
				cells[i] = "-"
			} else {
				cells[i] = fmt.Sprintf("%.3f+-%.3f", r.Mean[i], r.Std[i])
			}
		}
		fmt.Fprintf(w, "%-10s %18s %18s %18s\n", r.Label(), cells[0], cells[1], cells[2])
	}
}
