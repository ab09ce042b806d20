package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/stats"
	"gmark/internal/usecases"
)

// Fig11Series is one curve of Fig. 11: the measured selectivities |Q|
// of one query on the Bib use case across instance sizes, together
// with the fitted |E| = beta * n^alpha estimate.
type Fig11Series struct {
	Kind     string // len, dis, con, rec
	Label    string // Q1 (constant), Q2 (linear), Q3 (quadratic)
	Class    query.SelectivityClass
	Query    string // the generated query, printed
	Sizes    []int
	Measured []int64   // |Q|: actual result counts
	Fitted   []float64 // |E|: beta * n^alpha from the regression
	Alpha    float64
	Beta     float64
	Failed   bool
}

// Fig11 reproduces Fig. 11: for each Bib workload kind, one query per
// selectivity class is generated, evaluated across sizes, and the
// log-log fit is reported next to the measurements. The two curves
// closely overlapping is the paper's precision claim.
func Fig11(opt Options) ([]Fig11Series, error) {
	opt = opt.withDefaults()
	sizes := opt.qualitySizes()

	graphs, err := buildGraphs(opt, "bib", sizes)
	if err != nil {
		return nil, err
	}
	return fig11Series(opt, sizes, graphs)
}

func fig11Series(opt Options, sizes []int, graphs map[int]*graph.Graph) ([]Fig11Series, error) {
	var out []Fig11Series
	for _, kind := range usecases.WorkloadKinds {
		gen, err := presetGenerator("bib", kind, sizes[0], opt.Seed)
		if err != nil {
			return nil, err
		}
		for ci, class := range classes {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				return nil, err
			}
			s := Fig11Series{
				Kind:  kind,
				Label: fmt.Sprintf("Q%d", ci+1),
				Class: class,
				Query: q.String(),
				Sizes: sizes,
			}
			for _, n := range sizes {
				c, err := eval.CountWith(graphs[n], q, opt.Budget, eval.EvalOptions{Workers: 1})
				if err != nil {
					if !errors.Is(err, eval.ErrBudget) {
						return nil, fmt.Errorf("Bib-%s %s at %d nodes: %s: %w", kind, s.Label, n, s.Query, err)
					}
					s.Failed = true
					break
				}
				s.Measured = append(s.Measured, c)
			}
			if !s.Failed {
				s.Alpha = stats.AlphaFromCounts(sizes, s.Measured)
				// Fit beta from the regression intercept.
				xs := make([]float64, len(sizes))
				ys := make([]float64, len(sizes))
				for i := range sizes {
					xs[i] = math.Log(float64(sizes[i]))
					c := s.Measured[i]
					if c < 1 {
						c = 1
					}
					ys[i] = math.Log(float64(c))
				}
				intercept, slope := stats.LinearRegression(xs, ys)
				s.Beta = math.Exp(intercept)
				for _, n := range sizes {
					s.Fitted = append(s.Fitted, s.Beta*math.Pow(float64(n), slope))
				}
			}
			out = append(out, s)
			opt.progressf("fig11 %s %s done", kind, s.Label)
		}
	}
	return out, nil
}

// RenderFig11 prints the measured and fitted series per workload kind.
func RenderFig11(w io.Writer, series []Fig11Series) {
	cur := ""
	for _, s := range series {
		if s.Kind != cur {
			cur = s.Kind
			fmt.Fprintf(w, "\nBib-%s\n", s.Kind)
		}
		fmt.Fprintf(w, "  %s (%s)  alpha=%.3f beta=%.3g\n", s.Label, s.Class, s.Alpha, s.Beta)
		if s.Failed {
			fmt.Fprintf(w, "    evaluation failed (budget)\n")
			continue
		}
		for i, n := range s.Sizes {
			fmt.Fprintf(w, "    n=%-7d |Q|=%-10d |E|=%.1f\n", n, s.Measured[i], s.Fitted[i])
		}
	}
}
