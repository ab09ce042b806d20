package experiments

import (
	"fmt"
	"io"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/regpath"
	"gmark/internal/selectivity"
	"gmark/internal/stats"
)

// Table1Row verifies one operation of Table 1 on generated data: a
// representative expression of that selectivity class is evaluated on
// two Bib instance sizes; the growth of the maximal fan-out and fan-in
// of the result relation checks the boundedness contract, and the
// fitted alpha checks the last column.
type Table1Row struct {
	Op           selectivity.Op
	Expr         string
	OutBounded   bool    // |{n | (n1,n) in Q(G)}| stays bounded
	InBounded    bool    // |{n | (n,n2) in Q(G)}| stays bounded
	MaxOutGrowth float64 // ratio of max fan-out between the two sizes
	MaxInGrowth  float64
	Alpha        float64
	ExpectAlpha  int
}

// table1Specs are expressions over Bib with known operation classes
// (derived in Example 5.1's style). The cross witness routes through
// the fixed city population: conferences sharing a city form a
// Cartesian product around the Zipfian hub cities.
var table1Specs = []struct {
	op          selectivity.Op
	expr        string
	expectAlpha int
}{
	{selectivity.OpEq, "publishedIn", 1},
	{selectivity.OpLess, "authors", 1},
	{selectivity.OpGreater, "authors-", 1},
	{selectivity.OpDiamond, "authors.authors-", 1},
	{selectivity.OpCross, "heldIn.heldIn-", 2},
}

// boundedGrowthLimit is the growth ratio under which a maximal degree
// is considered bounded when the instance grows by growthFactor.
const boundedGrowthLimit = 3.0

// Table1 runs the verification on two Bib instances (the second
// several times larger) and reports, per operation, whether the
// boundedness pattern of Table 1 holds.
func Table1(opt Options) ([]Table1Row, error) {
	opt = opt.withDefaults()
	sizes := opt.Sizes
	if len(sizes) != 2 {
		if opt.Full {
			sizes = []int{4000, 32000}
		} else {
			sizes = []int{1000, 8000}
		}
	}
	graphs, err := buildGraphs(opt, "bib", sizes)
	if err != nil {
		return nil, err
	}
	small, large := graphs[sizes[0]], graphs[sizes[1]]

	var rows []Table1Row
	for _, spec := range table1Specs {
		e := regpath.MustParse(spec.expr)
		outS, inS, cntS, err := relationDegrees(small, e, opt)
		if err != nil {
			return nil, err
		}
		outL, inL, cntL, err := relationDegrees(large, e, opt)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Op:           spec.op,
			Expr:         spec.expr,
			MaxOutGrowth: ratio(outL, outS),
			MaxInGrowth:  ratio(inL, inS),
			ExpectAlpha:  spec.expectAlpha,
			Alpha: stats.AlphaFromCounts(
				[]int{sizes[0], sizes[1]}, []int64{cntS, cntL}),
		}
		row.OutBounded = row.MaxOutGrowth < boundedGrowthLimit
		row.InBounded = row.MaxInGrowth < boundedGrowthLimit
		rows = append(rows, row)
		opt.progressf("table1 %s done", spec.op)
	}
	return rows, nil
}

// relationDegrees materializes the expression's relation and returns
// the maximal fan-out, maximal fan-in, and total pair count.
func relationDegrees(g *graph.Graph, e regpath.Expr, opt Options) (maxOut, maxIn int, count int64, err error) {
	rel, err := eval.EvalExpr(g, e, opt.Budget)
	if err != nil {
		return 0, 0, 0, err
	}
	fanIn := make(map[int32]int)
	for _, row := range rel.Rows {
		if len(row) > maxOut {
			maxOut = len(row)
		}
		count += int64(len(row))
		for _, w := range row {
			fanIn[w]++
		}
	}
	for _, c := range fanIn {
		if c > maxIn {
			maxIn = c
		}
	}
	return maxOut, maxIn, count, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}

// RenderTable1 prints the verification in the paper's Table 1 layout
// plus measured evidence.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-4s %-20s %-12s %-12s %-10s %s\n",
		"Op", "Expression", "fan-out", "fan-in", "alpha", "expected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4s %-20s %-12s %-12s %-10.2f %d\n",
			r.Op, r.Expr, boundedLabel(r.OutBounded, r.MaxOutGrowth),
			boundedLabel(r.InBounded, r.MaxInGrowth), r.Alpha, r.ExpectAlpha)
	}
}

func boundedLabel(bounded bool, growth float64) string {
	if bounded {
		return fmt.Sprintf("bnd(x%.1f)", growth)
	}
	return fmt.Sprintf("unb(x%.1f)", growth)
}
