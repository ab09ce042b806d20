package selectivity

import (
	"testing"

	"gmark/internal/dist"
	"gmark/internal/eval"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/schema"
	"gmark/internal/stats"
)

func naryChain(head []query.Var, exprs ...string) *query.Query {
	var body []query.Conjunct
	for i, e := range exprs {
		body = append(body, query.Conjunct{
			Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e),
		})
	}
	return &query.Query{Rules: []query.Rule{{Head: head, Body: body}}}
}

func TestNaryMatchesBinaryOnEndpoints(t *testing.T) {
	est := newEst(t)
	queries := []*query.Query{
		naryChain([]query.Var{0, 1}, "a"),
		naryChain([]query.Var{0, 1}, "a-.a"),
		naryChain([]query.Var{0, 2}, "a", "b"),
		naryChain([]query.Var{0, 2}, "b", "b"),
	}
	for qi, q := range queries {
		binA, binOK, err := est.EstimateAlpha(q)
		if err != nil {
			t.Fatal(err)
		}
		nA, nOK, err := est.EstimateAlphaNary(q)
		if err != nil {
			t.Fatal(err)
		}
		if binOK != nOK {
			t.Errorf("query %d: applicability differs: binary %v, nary %v", qi, binOK, nOK)
			continue
		}
		if binOK && binA != nA {
			t.Errorf("query %d: binary alpha %d, nary alpha %d", qi, binA, nA)
		}
	}
}

func TestNaryBooleanAndUnary(t *testing.T) {
	est := newEst(t)
	boolean := naryChain(nil, "a")
	if a, ok, err := est.EstimateAlphaNary(boolean); err != nil || !ok || a != 0 {
		t.Errorf("boolean: a=%d ok=%v err=%v", a, ok, err)
	}
	// Unary on a growing type: linear.
	unary := naryChain([]query.Var{1}, "a")
	if a, ok, err := est.EstimateAlphaNary(unary); err != nil || !ok || a != 1 {
		t.Errorf("unary growing: a=%d ok=%v err=%v", a, ok, err)
	}
	// Unary confined to the fixed type T3 (b.b from T1 passes through
	// T2 and can end at T3, which still admits growing T2 end types,
	// so expect 1; a chain that can only end at T3 needs b from T2).
	confined := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.Expr{
			Paths: []regpath.Path{{regpath.Symbol{Pred: "b"}, regpath.Symbol{Pred: "b"}}},
		}}},
	}}}
	if a, ok, err := est.EstimateAlphaNary(confined); err != nil || !ok || a != 1 {
		t.Errorf("b.b unary: a=%d ok=%v err=%v (T2 is still reachable)", a, ok, err)
	}
}

func TestNaryTernary(t *testing.T) {
	est := newEst(t)
	// (x0, x1, x2) over a.b: two linear-functional segments sharing a
	// growing variable: 1 + 1 - 1 = 1.
	q := naryChain([]query.Var{0, 1, 2}, "a", "b")
	a, ok, err := est.EstimateAlphaNary(q)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if a != 1 {
		t.Errorf("ternary a.b alpha = %d, want 1", a)
	}
	// A quadratic segment composed with a functional one: 2 + 1 - 1 = 2.
	q2 := naryChain([]query.Var{0, 1, 2}, "a-.a", "b")
	a2, ok, err := est.EstimateAlphaNary(q2)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if a2 != 2 {
		t.Errorf("ternary (a-.a),b alpha = %d, want 2", a2)
	}
}

func TestNaryNotApplicable(t *testing.T) {
	est := newEst(t)
	// Star-shaped body.
	starQ := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 0, Dst: 2, Expr: regpath.MustParse("b")},
		},
	}}}
	if _, ok, _ := est.EstimateAlphaNary(starQ); ok {
		t.Error("star bodies are out of scope")
	}
	// Unsatisfiable chain.
	dead := naryChain([]query.Var{0, 2}, "b", "a")
	if _, ok, err := est.EstimateAlphaNary(dead); err != nil || ok {
		t.Errorf("unsatisfiable chain: ok=%v err=%v", ok, err)
	}
}

// TestNaryEmpiricalTernary checks the extension against measured
// growth: a ternary projection on Bib instances of increasing size.
func TestNaryEmpiricalTernary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A Bib-like schema built inline (the usecases package depends on
	// querygen, which depends on this package).
	mkSchema := func(n int) *schema.GraphConfig {
		return &schema.GraphConfig{
			Nodes: n,
			Schema: schema.Schema{
				Types: []schema.NodeType{
					{Name: "researcher", Occurrence: schema.Proportion(0.5)},
					{Name: "paper", Occurrence: schema.Proportion(0.4)},
					{Name: "conference", Occurrence: schema.Proportion(0.1)},
				},
				Predicates: []schema.Predicate{
					{Name: "authors", Occurrence: schema.Proportion(0.6)},
					{Name: "publishedIn", Occurrence: schema.Proportion(0.4)},
				},
				Constraints: []schema.EdgeConstraint{
					{Source: "researcher", Target: "paper", Predicate: "authors",
						In: dist.NewGaussian(3, 1), Out: dist.NewZipfian(2.5)},
					{Source: "paper", Target: "conference", Predicate: "publishedIn",
						In: dist.NewGaussian(4, 1), Out: dist.NewUniform(1, 1)},
				},
			},
		}
	}
	est, err := NewEstimator(&mkSchema(1000).Schema)
	if err != nil {
		t.Fatal(err)
	}
	// (researcher, paper, conference) triples: authors then
	// publishedIn, both ~linear segments sharing the growing paper
	// variable: estimate 1.
	q := naryChain([]query.Var{0, 1, 2}, "authors", "publishedIn")
	estAlpha, ok, err := est.EstimateAlphaNary(q)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if estAlpha != 1 {
		t.Fatalf("estimate = %d, want 1", estAlpha)
	}
	sizes := []int{1000, 2000, 4000, 8000}
	var counts []int64
	for _, n := range sizes {
		g, err := graphgen.Generate(mkSchema(n), graphgen.Options{Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		c, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, c)
	}
	measured := stats.AlphaFromCounts(sizes, counts)
	if measured < 0.8 || measured > 1.3 {
		t.Errorf("measured ternary alpha = %.2f, estimate 1 (counts %v)", measured, counts)
	}
}
