package experiments

import (
	"fmt"
	"io"
	"time"

	"gmark/internal/graphgen"
	"gmark/internal/usecases"
)

// Table3Cell is one measurement of Table 3: the time to generate one
// use-case instance of a given size.
type Table3Cell struct {
	Nodes   int
	Edges   int
	Elapsed time.Duration
	Skipped bool // too large for the default (non-Full) sweep
}

// Table3Row is one use-case row of Table 3.
type Table3Row struct {
	Scenario string
	Cells    []Table3Cell
}

// table3Sizes is the laptop-scale sweep; the paper sweeps 100K to
// 100M (Section 6.2, Table 3) and Full extends toward that range.
func table3Sizes(full bool) []int {
	if full {
		return []int{100_000, 1_000_000, 10_000_000}
	}
	return []int{10_000, 100_000, 1_000_000}
}

// wdCap bounds the WD scenario in the default sweep: its instances are
// up to two orders of magnitude denser than the others (Section 6.2).
const wdCap = 100_000

// Table3 reproduces Table 3: wall-clock graph generation time for each
// use case across instance sizes.
func Table3(opt Options) ([]Table3Row, error) {
	opt = opt.withDefaults()
	sizes := opt.Sizes
	if len(sizes) == 0 {
		sizes = table3Sizes(opt.Full)
	}
	var rows []Table3Row
	for _, sc := range []string{"bib", "lsn", "wd", "sp"} {
		row := Table3Row{Scenario: sc}
		for _, n := range sizes {
			if sc == "wd" && n > wdCap && !opt.Full {
				row.Cells = append(row.Cells, Table3Cell{Nodes: n, Skipped: true})
				continue
			}
			cfg, err := usecases.ByName(sc, n)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			g, err := graphgen.Generate(cfg, graphgen.Options{Seed: opt.Seed, Parallelism: opt.Parallelism})
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			row.Cells = append(row.Cells, Table3Cell{Nodes: n, Edges: g.NumEdges(), Elapsed: elapsed})
			opt.progressf("table3 %s n=%d: %d edges in %v", sc, n, g.NumEdges(), elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 prints the rows in the paper's layout (one column per
// size).
func RenderTable3(w io.Writer, rows []Table3Row) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-6s", "")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(w, " %14s", humanCount(c.Nodes))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s", r.Scenario)
		for _, c := range r.Cells {
			if c.Skipped {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			fmt.Fprintf(w, " %14s", c.Elapsed.Round(time.Millisecond))
		}
		fmt.Fprintln(w)
	}
}

func humanCount(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprint(n)
	}
}
