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
)

// Table4Queries returns the two fixed recursive queries of Table 4 on
// the Bib schema:
//
//	Query 1 (constant):  (?x, ?y) <- (?x, (heldIn-.heldIn)*, ?y)
//	  pairs of cities hosting a common chain of conferences; the city
//	  population is fixed, so the closure is constant.
//	Query 2 (quadratic): (?x, ?y) <- (?x, (authors-.authors)*, ?y)
//	  the co-authorship closure over papers; the hub structure of the
//	  Zipfian authors relation makes it quadratic.
func Table4Queries() [2]*query.Query {
	return [2]*query.Query{
		pathQuery("(heldIn-.heldIn)*", query.Constant),
		pathQuery("(authors-.authors)*", query.Quadratic),
	}
}

// Table4Cell is one engine/size measurement of Table 4.
type Table4Cell struct {
	Size     int
	Elapsed  time.Duration
	Count    int64
	Failed   bool   // budget exceeded (the paper's "-")
	Semantic bool   // engine G: answers differ by semantics
	Err      string // failure detail
}

// Table4Row is one engine row for one query.
type Table4Row struct {
	Query  int // 1 or 2
	Engine string
	Cells  []Table4Cell
}

// Table4 reproduces Table 4: the two recursive queries evaluated by
// all four engines on Bib instances of increasing size. Failures are
// budget violations; G's cells are annotated as semantically
// incomparable (the paper's G returned empty results).
func Table4(opt Options) ([]Table4Row, error) {
	opt = opt.withDefaults()
	sizes := opt.engineSizes()
	graphs, err := buildGraphs(opt, "bib", sizes)
	if err != nil {
		return nil, err
	}
	return table4Rows(opt, sizes, graphs)
}

func table4Rows(opt Options, sizes []int, graphs map[int]*graph.Graph) ([]Table4Row, error) {
	var rows []Table4Row
	for qi, q := range Table4Queries() {
		for _, eng := range engines.All() {
			row := Table4Row{Query: qi + 1, Engine: eng.Name()}
			for _, n := range sizes {
				cell := Table4Cell{Size: n}
				if gdb, ok := eng.(*engines.GraphDB); ok && gdb.RewritesRecursion(q) {
					cell.Semantic = true
				}
				g := graphs[n]
				elapsed, c, err := measureEngine(opt, func() (int64, error) {
					return engines.EvaluateOpt(eng, g, q, opt.Budget, eval.EvalOptions{Workers: 1})
				})
				cell.Elapsed = elapsed
				switch {
				case err == nil:
					cell.Count = c
				case errors.Is(err, eval.ErrBudget):
					cell.Failed = true
					cell.Err = err.Error()
				default:
					return nil, fmt.Errorf("query %d, engine %s at %d nodes: %w", qi+1, eng.Name(), n, err)
				}
				row.Cells = append(row.Cells, cell)
				opt.progressf("table4 q%d %s n=%d: count=%d failed=%v in %v",
					qi+1, eng.Name(), n, cell.Count, cell.Failed, cell.Elapsed)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable4 prints the rows in the paper's layout.
func RenderTable4(w io.Writer, rows []Table4Row) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s %-6s", "Query", "Syst.")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(w, " %12s", humanCount(c.Size))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "Query %-2d %-6s", r.Query, r.Engine)
		for _, c := range r.Cells {
			switch {
			case c.Failed:
				fmt.Fprintf(w, " %12s", "-")
			case c.Semantic:
				fmt.Fprintf(w, " %12s", fmt.Sprintf("(%v)*", c.Elapsed.Round(time.Millisecond)))
			default:
				fmt.Fprintf(w, " %12s", c.Elapsed.Round(time.Millisecond).String())
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(*) G evaluates a rewritten pattern (openCypher restriction): answers not comparable.")
}
