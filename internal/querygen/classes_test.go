package querygen_test

import (
	"testing"

	"gmark/internal/dist"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/schema"
	"gmark/internal/stats"
	"gmark/internal/usecases"
)

// TestEstimatorAgreesAcrossUseCases: for every use case, the estimator
// applied to the generator's own non-recursive output must return the
// declared class — generation and estimation share one algebra. The
// window {0, 3} admits zero-length paths: a class step must still draw
// a path of at least one edge, or an eps conjunct drops the walk's type.
func TestEstimatorAgreesAcrossUseCases(t *testing.T) {
	for _, name := range usecases.Names {
		gcfg, err := usecases.ByName(name, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, length := range []query.Interval{{Min: 1, Max: 3}, {Min: 0, Max: 3}} {
			wcfg, err := usecases.Workload("con", gcfg, 21)
			if err != nil {
				t.Fatal(err)
			}
			wcfg.Size.Length = length
			gen, err := querygen.New(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			est := gen.Estimator()
			for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
				for i := 0; i < 10; i++ {
					q, err := gen.GenerateWithClass(class)
					if err != nil {
						t.Fatal(err)
					}
					if !q.HasClass || q.HasRecursion() {
						continue
					}
					got, ok, err := est.EstimateClass(q)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Errorf("%s %v: estimator rejects its own query:\n%s", name, length, q)
						continue
					}
					if got != class {
						t.Errorf("%s %v: declared %v, estimator says %v:\n%s", name, length, class, got, q)
					}
				}
			}
		}
	}
}

// TestMeasuredAlphaOrdering is the end-to-end quality property on a
// single scenario: across generated instances, the measured alpha of
// quadratic queries exceeds linear, which exceeds constant.
func TestMeasuredAlphaOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sizes := []int{500, 1000, 2000, 4000}
	graphs := make(map[int]*graph.Graph, len(sizes))
	for _, n := range sizes {
		cfg, err := usecases.ByName("wd", n)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		graphs[n] = g
	}
	gcfg, _ := usecases.ByName("wd", sizes[0])
	wcfg, err := usecases.Workload("con", gcfg, 22)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	alphaOf := func(class query.SelectivityClass) float64 {
		var alphas []float64
		for i := 0; i < 3; i++ {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				t.Fatal(err)
			}
			var counts []int64
			ok := true
			for _, n := range sizes {
				c, err := eval.CountWith(graphs[n], q, eval.Budget{MaxPairs: 30_000_000}, eval.EvalOptions{Workers: 1})
				if err != nil {
					ok = false
					break
				}
				counts = append(counts, c)
			}
			if ok {
				alphas = append(alphas, stats.AlphaFromCounts(sizes, counts))
			}
		}
		if len(alphas) == 0 {
			t.Fatal("all queries failed")
		}
		return stats.Mean(alphas)
	}
	constant := alphaOf(query.Constant)
	linear := alphaOf(query.Linear)
	quadratic := alphaOf(query.Quadratic)
	if !(constant < linear && linear < quadratic) {
		t.Errorf("alpha ordering violated: constant=%.2f linear=%.2f quadratic=%.2f",
			constant, linear, quadratic)
	}
	if constant > 0.5 {
		t.Errorf("constant alpha = %.2f, want near 0", constant)
	}
	if quadratic < 1.4 {
		t.Errorf("quadratic alpha = %.2f, want near 2", quadratic)
	}
}

// TestQuadraticOnFixedSchemaFallsBack: when every type has a fixed
// count, every path's selectivity is constant, so no class walk reaches
// Quadratic. Each rule then falls back to an unconstrained chain
// projected on its endpoints, and the query says so: relaxed, with no
// class.
func TestQuadraticOnFixedSchemaFallsBack(t *testing.T) {
	gcfg := &schema.GraphConfig{
		Nodes: 100,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "a", Occurrence: schema.Fixed(40)},
				{Name: "b", Occurrence: schema.Fixed(60)},
			},
			Predicates: []schema.Predicate{
				{Name: "p", Occurrence: schema.Proportion(0.5)},
				{Name: "q", Occurrence: schema.Proportion(0.5)},
			},
			Constraints: []schema.EdgeConstraint{
				{Source: "a", Target: "b", Predicate: "p", In: dist.NewUniform(1, 3), Out: dist.NewUniform(1, 3)},
				{Source: "b", Target: "a", Predicate: "q", In: dist.NewUniform(1, 2), Out: dist.NewUniform(1, 2)},
			},
		},
	}
	cfg := querygen.Config{
		Graph:   gcfg,
		Count:   1,
		Arity:   query.Interval{Min: 2, Max: 2},
		Classes: []query.SelectivityClass{query.Quadratic},
		Size: query.Size{
			Rules:     query.Interval{Min: 2, Max: 2},
			Conjuncts: query.Interval{Min: 1, Max: 3},
			Disjuncts: query.Interval{Min: 1, Max: 1},
			Length:    query.Interval{Min: 1, Max: 3},
		},
		Seed: 9,
	}
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q, err := gen.GenerateWithClass(query.Quadratic)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Relaxed || q.HasClass {
			t.Fatalf("query %d: Relaxed=%v HasClass=%v, want a relaxed query with no class\n%s", i, q.Relaxed, q.HasClass, q)
		}
		if len(q.Rules) != 2 {
			t.Fatalf("query %d: %d rules, want 2", i, len(q.Rules))
		}
		for _, r := range q.Rules {
			body := r.Body
			if len(r.Head) != 2 || r.Head[0] != body[0].Src || r.Head[1] != body[len(body)-1].Dst {
				t.Fatalf("query %d: head %v is not the chain's endpoints\n%s", i, r.Head, q)
			}
		}
	}
}
