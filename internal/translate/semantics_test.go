package translate_test

import (
	"math/rand"
	"strings"
	"testing"

	"gmark/internal/datalog"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// execDatalog translates q to Datalog, parses the rendering back, and
// executes it against g with the mini Datalog engine.
func execDatalog(t *testing.T, g *graph.Graph, q *query.Query) int64 {
	t.Helper()
	src, err := translate.To(translate.Datalog, q, translate.Options{})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse of our own rendering failed: %v\n%s", err, src)
	}
	n, err := datalog.CountAns(g, prog)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, src)
	}
	return n
}

func randomGraphT(t *testing.T, r *rand.Rand, n, preds, edges int) *graph.Graph {
	t.Helper()
	names := make([]string, preds)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g, err := graph.New([]string{"t"}, []int{n}, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(int32(r.Intn(n)), int32(r.Intn(preds)), int32(r.Intn(n)))
	}
	g.Freeze()
	return g
}

// TestDatalogTranslationExecutes is the semantic round trip: the
// Datalog rendering of hand-picked queries computes the same counts as
// the reference evaluator.
func TestDatalogTranslationExecutes(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	g := randomGraphT(t, r, 25, 2, 80)

	mkChain := func(head []query.Var, exprs ...string) *query.Query {
		var body []query.Conjunct
		for i, e := range exprs {
			body = append(body, query.Conjunct{
				Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e),
			})
		}
		return &query.Query{Rules: []query.Rule{{Head: head, Body: body}}}
	}

	queries := []*query.Query{
		mkChain([]query.Var{0, 1}, "a"),
		mkChain([]query.Var{0, 1}, "a-"),
		mkChain([]query.Var{0, 1}, "a.b"),
		mkChain([]query.Var{0, 1}, "(a+b)"),
		mkChain([]query.Var{0, 2}, "a", "b-"),
		mkChain([]query.Var{0, 1}, "(a)*"),
		mkChain([]query.Var{0, 1}, "(a.b)*"),
		mkChain([]query.Var{0, 2}, "(a+b)*", "a"),
		mkChain([]query.Var{0}, "a.a"),
		mkChain(nil, "b"),
		// Union of rules.
		{Rules: []query.Rule{
			{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
			{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("b")}}},
		}},
		// Star shape with ternary head.
		{Rules: []query.Rule{{
			Head: []query.Var{0, 1, 2},
			Body: []query.Conjunct{
				{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
				{Src: 0, Dst: 2, Expr: regpath.MustParse("b")},
			},
		}}},
	}
	for qi, q := range queries {
		want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := execDatalog(t, g, q)
		if got != want {
			t.Errorf("query %d: datalog says %d, reference says %d\n%s", qi, got, want, q)
		}
	}
}

// TestDatalogTranslationOnGeneratedWorkload runs the semantic round
// trip on generator output over a real use-case instance.
func TestDatalogTranslationOnGeneratedWorkload(t *testing.T) {
	gcfg, err := usecases.ByName("bib", 300)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphgen.Generate(gcfg, graphgen.Options{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := usecases.Workload("rec", gcfg, 52)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.Count = 8
	wcfg.Classes = []query.SelectivityClass{query.Constant, query.Linear}
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := execDatalog(t, g, q)
		if got != want {
			t.Errorf("generated query %d: datalog %d vs reference %d\n%s", qi, got, want, q)
		}
	}
}

// TestSelfLoopEquatesEndpoints pins the semantics of the one-conjunct
// cycle (?x0) <- (?x0, a, ?x0): the SQL must equate the conjunct's two
// columns (a duplicate map key used to drop the predicate, turning the
// query into "sources of a"), and the Datalog rendering must count
// what the reference evaluator counts.
func TestSelfLoopEquatesEndpoints(t *testing.T) {
	loop := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0},
		Body: []query.Conjunct{{Src: 0, Dst: 0, Expr: regpath.MustParse("a")}},
	}}}
	sql, err := translate.To(translate.PostgreSQL, loop, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SELECT DISTINCT c0_t.src AS x0\nFROM c0 AS c0_t\nWHERE c0_t.src = c0_t.trg;") {
		t.Errorf("self-loop SQL does not equate src and trg:\n%s", sql)
	}

	g := randomGraphT(t, rand.New(rand.NewSource(53)), 12, 1, 60)
	want, err := eval.CountWith(g, loop, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 || want == 12 {
		t.Fatalf("graph has %d self-loops of 12 nodes: the test cannot tell the loop from its projection", want)
	}
	if got := execDatalog(t, g, loop); got != want {
		t.Errorf("datalog says %d, reference says %d", got, want)
	}
}
