package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is one artefact of the paper's evaluation: a table, a
// figure or an in-text claim, with the driver that regenerates it.
type Experiment struct {
	// ID is the name gmark-bench -exp selects it by.
	ID string
	// Paper names the artefact and what it shows.
	Paper string
	// Run executes the driver and renders its rows to w.
	Run func(opt Options, w io.Writer) error
}

// registry lists the experiments in the order "all" runs them.
var registry = []Experiment{
	{"table1", "Table 1 (Section 5.2.2): boundedness and alpha of the selectivity-class operations", driver(Table1, RenderTable1)},
	{"table2", "Table 2 (Section 6.2): measured alpha per selectivity class, use case and workload kind", driver(Table2, RenderTable2)},
	{"table3", "Table 3 (Section 6.2): graph generation time per use case and size", driver(Table3, RenderTable3)},
	{"table4", "Table 4 (Section 7): two recursive Bib queries on engines P, S, G, D", driver(Table4, RenderTable4)},
	{"fig10", "Fig. 10 (Section 6.2): SP2Bench-style vs gMark-generated queries on SP", driver(Fig10, RenderFig10)},
	{"fig11", "Fig. 11 (Section 6.2): measured vs fitted selectivities on Bib", driver(Fig11, RenderFig11)},
	{"fig12", "Fig. 12 (Section 7.2): Len/Dis/Con workloads per class on engines P, S, G, D", driver(Fig12, RenderFig12)},
	{"qgen-scal", "Section 6.2: time to generate and translate a thousand-query workload", driver(QGenScalability, RenderScalability)},
	{"coverage", "Section 6.1: shape, class and alphabet coverage of generated workloads", driver(Coverage, RenderCoverage)},
}

// driver pairs a row-producing experiment with its renderer.
func driver[T any](run func(Options) (T, error), render func(io.Writer, T)) func(Options, io.Writer) error {
	return func(opt Options, w io.Writer) error {
		rows, err := run(opt)
		if err != nil {
			return err
		}
		render(w, rows)
		return nil
	}
}

// All returns every experiment in run order.
func All() []Experiment { return registry }

// Select resolves a gmark-bench -exp value: "all" is every experiment,
// anything else must be one registered id.
func Select(id string) ([]Experiment, error) {
	if id == "all" {
		return registry, nil
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		if e.ID == id {
			return registry[i : i+1], nil
		}
		ids[i] = e.ID
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(ids, ", "))
}
