package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/stats"
)

// SP2BenchQueries returns the three fixed queries standing in for the
// original SP2Bench query load of Fig. 10, one per selectivity class,
// expressed over our SP schema encoding (internal/usecases):
//
//	constant:  journals linked by a citation between their articles
//	linear:    inproceedings paired with the editors of their venue
//	quadratic: pairs of articles published in the same journal
func SP2BenchQueries() map[query.SelectivityClass]*query.Query {
	return map[query.SelectivityClass]*query.Query{
		query.Constant:  pathQuery("publishedIn-.cites.publishedIn", query.Constant),
		query.Linear:    pathQuery("partOf.editorOf-", query.Linear),
		query.Quadratic: pathQuery("publishedIn.publishedIn-", query.Quadratic),
	}
}

// Fig10Series is one curve of Fig. 10: evaluation times of one query
// (original SP2Bench-style, or gMark-generated with the same declared
// class) across SP instance sizes.
type Fig10Series struct {
	Class  query.SelectivityClass
	Origin string // "org" or "gmark"
	Query  string
	Sizes  []int
	Times  []time.Duration
	Counts []int64
	Alpha  float64 // fitted growth of the result counts
	Failed bool
}

// Fig10 reproduces Fig. 10: a fixed query per class ("org") and a
// gMark-generated query of the same shape, size and declared class
// ("gmark"), both evaluated by the same engine on SP instances of
// increasing size. The claim reproduced: each pair falls in the same
// selectivity class and shows the same asymptotic runtime behavior.
func Fig10(opt Options) ([]Fig10Series, error) {
	opt = opt.withDefaults()
	sizes := opt.qualitySizes()
	graphs, err := buildGraphs(opt, "sp", sizes)
	if err != nil {
		return nil, err
	}
	return fig10Series(opt, sizes, graphs)
}

func fig10Series(opt Options, sizes []int, graphs map[int]*graph.Graph) ([]Fig10Series, error) {
	gen, err := presetGenerator("sp", "con", sizes[0], opt.Seed)
	if err != nil {
		return nil, err
	}

	org := SP2BenchQueries()
	var out []Fig10Series
	for _, class := range classes {
		gq, err := gen.GenerateWithClass(class)
		if err != nil {
			return nil, err
		}
		for _, spec := range []struct {
			origin string
			q      *query.Query
		}{{"org", org[class]}, {"gmark", gq}} {
			s := Fig10Series{Class: class, Origin: spec.origin, Query: spec.q.String(), Sizes: sizes}
			for _, n := range sizes {
				start := time.Now()
				c, err := eval.CountWith(graphs[n], spec.q, opt.Budget, eval.EvalOptions{Workers: 1})
				elapsed := time.Since(start)
				if err != nil {
					if !errors.Is(err, eval.ErrBudget) {
						return nil, fmt.Errorf("%s/%s at %d nodes: %s: %w", class, spec.origin, n, s.Query, err)
					}
					s.Failed = true
					break
				}
				s.Times = append(s.Times, elapsed)
				s.Counts = append(s.Counts, c)
			}
			if !s.Failed && len(s.Counts) >= 2 {
				s.Alpha = stats.AlphaFromCounts(sizes[:len(s.Counts)], s.Counts)
			}
			out = append(out, s)
			opt.progressf("fig10 %s/%s done", class, spec.origin)
		}
	}
	return out, nil
}

// RenderFig10 prints both series per class side by side.
func RenderFig10(w io.Writer, series []Fig10Series) {
	for _, s := range series {
		fmt.Fprintf(w, "\n%s (%s)  alpha=%.2f\n  %s\n", s.Class, s.Origin, s.Alpha, s.Query)
		if s.Failed {
			fmt.Fprintln(w, "  evaluation failed (budget)")
			continue
		}
		for i, n := range s.Sizes[:len(s.Times)] {
			fmt.Fprintf(w, "  n=%-7d time=%-12v |Q|=%d\n", n, s.Times[i].Round(time.Microsecond), s.Counts[i])
		}
	}
}
