package workload_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/usecases"
	"gmark/internal/workload"
)

func mkQuery(shape query.Shape, class query.SelectivityClass, hasClass bool, exprs ...string) *query.Query {
	var body []query.Conjunct
	for i, e := range exprs {
		body = append(body, query.Conjunct{
			Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e),
		})
	}
	return &query.Query{
		Shape: shape, Class: class, HasClass: hasClass,
		Rules: []query.Rule{{
			Head: []query.Var{0, query.Var(len(exprs))},
			Body: body,
		}},
	}
}

func TestAnalyzeBasics(t *testing.T) {
	qs := []*query.Query{
		mkQuery(query.Chain, query.Linear, true, "a"),
		mkQuery(query.Chain, query.Linear, true, "a"), // duplicate
		mkQuery(query.Star, query.Quadratic, true, "(a+b)", "c"),
		mkQuery(query.Chain, 0, false, "(a)*"),
	}
	p := workload.Analyze(qs)
	if p.Count != 4 || p.Distinct != 3 {
		t.Errorf("count=%d distinct=%d", p.Count, p.Distinct)
	}
	if p.ByShape[query.Chain] != 3 || p.ByShape[query.Star] != 1 {
		t.Errorf("shapes = %v", p.ByShape)
	}
	if p.ByClass[query.Linear] != 2 || p.ByClass[query.Quadratic] != 1 || p.Unclassed != 1 {
		t.Errorf("classes = %v unclassed=%d", p.ByClass, p.Unclassed)
	}
	if p.Recursive != 1 {
		t.Errorf("recursive = %d", p.Recursive)
	}
	if p.ArityHist[2] != 4 {
		t.Errorf("arity hist = %v", p.ArityHist)
	}
	if p.ConjunctHist[1] != 3 || p.ConjunctHist[2] != 1 {
		t.Errorf("conjunct hist = %v", p.ConjunctHist)
	}
	if p.DisjunctHist[2] != 1 {
		t.Errorf("disjunct hist = %v", p.DisjunctHist)
	}
	if p.PredicateUses["a"] != 4 || p.PredicateUses["c"] != 1 {
		t.Errorf("predicate uses = %v", p.PredicateUses)
	}
}

func TestCoverageRatio(t *testing.T) {
	qs := []*query.Query{mkQuery(query.Chain, 0, false, "a.b")}
	p := workload.Analyze(qs)
	if got := p.CoverageRatio([]string{"a", "b", "c", "d"}); got != 0.5 {
		t.Errorf("coverage = %g", got)
	}
	if got := p.CoverageRatio(nil); got != 0 {
		t.Errorf("empty alphabet coverage = %g", got)
	}
}

func TestEntropies(t *testing.T) {
	uniform := []*query.Query{
		mkQuery(query.Chain, 0, false, "a"),
		mkQuery(query.Star, 0, false, "a"),
		mkQuery(query.Cycle, 0, false, "a"),
		mkQuery(query.StarChain, 0, false, "a"),
	}
	p := workload.Analyze(uniform)
	if math.Abs(p.ShapeEntropy()-2) > 1e-9 {
		t.Errorf("uniform 4-shape entropy = %g, want 2", p.ShapeEntropy())
	}
	single := []*query.Query{mkQuery(query.Chain, 0, false, "a")}
	if e := workload.Analyze(single).ShapeEntropy(); e != 0 {
		t.Errorf("single-shape entropy = %g", e)
	}
	classes := []*query.Query{
		mkQuery(query.Chain, query.Constant, true, "a"),
		mkQuery(query.Chain, query.Linear, true, "a.a"),
		mkQuery(query.Chain, query.Quadratic, true, "a.a.a"),
	}
	if e := workload.Analyze(classes).ClassEntropy(); math.Abs(e-math.Log2(3)) > 1e-9 {
		t.Errorf("3-class entropy = %g", e)
	}
}

// TestDiversityOfGeneratedWorkloads is the coverage claim of
// Section 6: a mixed-shape class-controlled workload on Bib covers
// most of the schema's alphabet and spreads across shapes and classes.
func TestDiversityOfGeneratedWorkloads(t *testing.T) {
	gcfg, err := usecases.ByName("bib", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := usecases.Workload("con", gcfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.Count = 60
	wcfg.Shapes = []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	wcfg.Classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Analyze(qs)

	alphabet := make([]string, 0, len(gcfg.Schema.Predicates))
	for _, pr := range gcfg.Schema.Predicates {
		alphabet = append(alphabet, pr.Name)
	}
	if cov := p.CoverageRatio(alphabet); cov < 0.75 {
		t.Errorf("predicate coverage = %.2f, want >= 0.75", cov)
	}
	if p.ShapeEntropy() < 1.0 {
		t.Errorf("shape entropy = %.2f, want >= 1.0 (got shapes %v)", p.ShapeEntropy(), p.ByShape)
	}
	if p.Distinct < p.Count/2 {
		t.Errorf("only %d/%d distinct queries", p.Distinct, p.Count)
	}
}

func TestRender(t *testing.T) {
	qs := []*query.Query{
		mkQuery(query.Chain, query.Linear, true, "a"),
		mkQuery(query.Star, 0, false, "(b)*"),
	}
	var buf bytes.Buffer
	workload.Analyze(qs).Render(&buf)
	out := buf.String()
	for _, want := range []string{"queries: 2", "chain=1", "star=1", "recursive: 1", "predicates used: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
