package gmark_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gmark"
	"gmark/internal/translate"
)

// smallConfig is a compact schema exercising all constraint styles.
func smallConfig(n int) *gmark.GraphConfig {
	return &gmark.GraphConfig{
		Nodes: n,
		Schema: gmark.Schema{
			Types: []gmark.NodeType{
				{Name: "user", Occurrence: gmark.Proportion(0.5)},
				{Name: "item", Occurrence: gmark.Proportion(0.5)},
				{Name: "tag", Occurrence: gmark.Fixed(30)},
			},
			Predicates: []gmark.Predicate{
				{Name: "follows", Occurrence: gmark.Proportion(0.5)},
				{Name: "owns", Occurrence: gmark.Proportion(0.4)},
				{Name: "tagged", Occurrence: gmark.Proportion(0.1)},
			},
			Constraints: []gmark.EdgeConstraint{
				{Source: "user", Target: "user", Predicate: "follows",
					In: gmark.NewZipfian(1.9), Out: gmark.NewZipfian(1.9)},
				{Source: "user", Target: "item", Predicate: "owns",
					In: gmark.NewUniform(1, 2), Out: gmark.NewGaussian(2, 1)},
				{Source: "item", Target: "tag", Predicate: "tagged",
					In: gmark.Unspecified(), Out: gmark.NewUniform(1, 1)},
			},
		},
	}
}

func TestEndToEndPipeline(t *testing.T) {
	cfg := smallConfig(2000)
	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}

	wl := gmark.WorkloadConfig{
		Graph: cfg,
		Count: 9,
		Arity: gmark.Interval{Min: 2, Max: 2},
		Size: gmark.QuerySize{
			Rules:     gmark.Interval{Min: 1, Max: 1},
			Conjuncts: gmark.Interval{Min: 1, Max: 2},
			Disjuncts: gmark.Interval{Min: 1, Max: 2},
			Length:    gmark.Interval{Min: 1, Max: 3},
		},
		Classes: []gmark.SelectivityClass{gmark.Constant, gmark.Linear, gmark.Quadratic},
		Seed:    2,
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(gmark.WorkloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 9 {
		t.Fatalf("generated %d queries", len(qs))
	}
	for _, q := range qs {
		if _, err := gmark.Count(g, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1}); err != nil {
			t.Errorf("count: %v for %s", err, q)
		}
		for _, s := range []gmark.Syntax{gmark.SPARQL, gmark.OpenCypher, gmark.PostgreSQL, gmark.Datalog} {
			out, err := gmark.Translate(s, q)
			if err != nil || out == "" {
				t.Errorf("translate %s: %v", s, err)
			}
		}
	}
}

func TestSelectivityClassesHoldOnInstances(t *testing.T) {
	// The headline claim: generated classes match measured growth.
	sizes := []int{500, 1000, 2000}
	cfg := smallConfig(sizes[0])
	graphs := map[int]*gmark.Graph{}
	for _, n := range sizes {
		c := smallConfig(n)
		g, err := gmark.GenerateGraph(c, gmark.GenOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		graphs[n] = g
	}
	wl := gmark.WorkloadConfig{
		Graph: cfg,
		Count: 1,
		Arity: gmark.Interval{Min: 2, Max: 2},
		Size: gmark.QuerySize{
			Rules:     gmark.Interval{Min: 1, Max: 1},
			Conjuncts: gmark.Interval{Min: 1, Max: 2},
			Disjuncts: gmark.Interval{Min: 1, Max: 1},
			Length:    gmark.Interval{Min: 1, Max: 3},
		},
		Seed: 4,
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		t.Fatal(err)
	}
	// Constant queries should not grow much; quadratic should clearly
	// outgrow linear.
	counts := map[gmark.SelectivityClass][]int64{}
	for _, class := range []gmark.SelectivityClass{gmark.Constant, gmark.Quadratic} {
		q, err := gen.GenerateWithClass(class)
		if err != nil {
			t.Fatal(err)
		}
		if !q.HasClass {
			t.Skip("generator fell back on this schema")
		}
		for _, n := range sizes {
			c, err := gmark.Count(graphs[n], q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			counts[class] = append(counts[class], c)
		}
	}
	constGrowth := ratio64(counts[gmark.Constant][2], counts[gmark.Constant][0])
	quadGrowth := ratio64(counts[gmark.Quadratic][2], counts[gmark.Quadratic][0])
	if quadGrowth <= constGrowth {
		t.Errorf("quadratic growth %.2f should exceed constant growth %.2f (counts %v)",
			quadGrowth, constGrowth, counts)
	}
}

func ratio64(a, b int64) float64 {
	if b == 0 {
		b = 1
	}
	if a == 0 {
		a = 1
	}
	return float64(a) / float64(b)
}

func TestUseCasesViaFacade(t *testing.T) {
	for _, name := range []string{"bib", "lsn", "sp", "wd"} {
		cfg, err := gmark.UseCase(name, 500)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 5}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEnginesViaFacade(t *testing.T) {
	cfg := smallConfig(600)
	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := gmark.ParsePathExpr("owns.tagged")
	if err != nil {
		t.Fatal(err)
	}
	q := &gmark.Query{Rules: []gmark.Rule{{
		Head: []gmark.Var{0, 1},
		Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
	}}}
	want, err := gmark.Count(g, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(gmark.Engines()); n != 4 {
		t.Fatalf("engines = %d", n)
	}
	for _, r := range gmark.CompareEngines(g, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Engine, r.Err)
		}
		if r.Count != want {
			t.Errorf("%s = %d, want %d", r.Engine, r.Count, want)
		}
	}
}

func TestBudgetViaFacade(t *testing.T) {
	cfg := smallConfig(2000)
	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := gmark.ParsePathExpr("(follows)*")
	if err != nil {
		t.Fatal(err)
	}
	q := &gmark.Query{Rules: []gmark.Rule{{
		Head: []gmark.Var{0, 1},
		Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
	}}}
	_, err = gmark.Count(g, q, gmark.Budget{Timeout: time.Nanosecond}, gmark.EvalOptions{Workers: 1})
	if !errors.Is(err, gmark.ErrBudget) {
		t.Errorf("expected ErrBudget, got %v", err)
	}
}

func TestEstimatorViaFacade(t *testing.T) {
	cfg := smallConfig(1000)
	est, err := gmark.NewEstimator(&cfg.Schema)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := gmark.ParsePathExpr("(follows)*")
	if err != nil {
		t.Fatal(err)
	}
	q := &gmark.Query{Rules: []gmark.Rule{{
		Head: []gmark.Var{0, 1},
		Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
	}}}
	alpha, ok, err := est.EstimateAlpha(q)
	if err != nil || !ok {
		t.Fatalf("estimate: %v %v", ok, err)
	}
	// follows is Zipfian both ways: diamond, so its closure is
	// quadratic.
	if alpha != 2 {
		t.Errorf("alpha((follows)*) = %d, want 2", alpha)
	}
}

func TestTranslationsMentionPredicates(t *testing.T) {
	cfg := smallConfig(400)
	wl, err := gmark.Workload("con", cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.GenerateWithClass(gmark.Linear)
	if err != nil {
		t.Fatal(err)
	}
	preds := q.Predicates()
	if len(preds) == 0 {
		t.Fatal("query uses no predicates")
	}
	for _, s := range []gmark.Syntax{gmark.SPARQL, gmark.OpenCypher, gmark.PostgreSQL, gmark.Datalog} {
		out, err := gmark.Translate(s, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range preds {
			if !strings.Contains(out, p) {
				t.Errorf("%s translation omits predicate %q:\n%s", s, p, out)
			}
		}
	}
}

// TestTranslateCountMatchesTranslator: the facade's count rendering is
// the translator's count(distinct) text, one query per syntax, and it
// differs from the plain rendering of the same query.
func TestTranslateCountMatchesTranslator(t *testing.T) {
	wl, err := gmark.Workload("con", smallConfig(400), 5)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gmark.NewWorkloadGenerator(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []gmark.Syntax{gmark.SPARQL, gmark.OpenCypher, gmark.PostgreSQL, gmark.Datalog} {
		q, err := gen.GenerateWithClass(gmark.Linear)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gmark.TranslateCount(s, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := translate.To(s, q, translate.Options{Count: true})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := gmark.Translate(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got == plain {
			t.Errorf("%s: TranslateCount gives\n%s\nthe translator's count text is\n%s\nand the plain text\n%s", s, got, want, plain)
		}
	}
}

func TestSpillEvaluationViaFacade(t *testing.T) {
	cfg := smallConfig(1500)
	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := gmark.WriteGraphCSRSpill(dir, g, 200, gmark.GraphSpillCompressVarint); err != nil {
		t.Fatal(err)
	}
	src, err := gmark.OpenGraphSpill(dir, gmark.GraphSpillSourceOptions{CacheBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := gmark.ParsePathExpr("owns.tagged")
	if err != nil {
		t.Fatal(err)
	}
	q := &gmark.Query{Rules: []gmark.Rule{{
		Head: []gmark.Var{0, 1},
		Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
	}}}
	want, err := gmark.Count(g, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := gmark.Count(src, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("spill count = %d, in-memory = %d", got, want)
	}
	if st := src.CacheStats(); st.Loads == 0 {
		t.Error("no shards loaded through the facade")
	}
}

func TestCompareEnginesOverSpillViaFacade(t *testing.T) {
	cfg := smallConfig(1200)
	g, err := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := gmark.WriteGraphCSRSpill(dir, g, 150, gmark.GraphSpillCompressVarint); err != nil {
		t.Fatal(err)
	}
	src, err := gmark.OpenGraphSpill(dir, gmark.GraphSpillSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := gmark.ParsePathExpr("owns.tagged")
	if err != nil {
		t.Fatal(err)
	}
	q := &gmark.Query{Rules: []gmark.Rule{{
		Head: []gmark.Var{0, 1},
		Body: []gmark.Conjunct{{Src: 0, Dst: 1, Expr: expr}},
	}}}
	want, err := gmark.Count(g, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := gmark.CompareEngines(src, q, gmark.Budget{}, gmark.EvalOptions{Workers: 1})
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Engine] = true
		if r.Err != nil {
			t.Fatalf("engine %s over spill: %v", r.Engine, r.Err)
		}
		if r.Count != want {
			t.Errorf("engine %s over spill = %d, want %d", r.Engine, r.Count, want)
		}
	}
	for _, name := range []string{"P", "G", "S", "D"} {
		if !seen[name] {
			t.Errorf("missing engine %s in comparison", name)
		}
		if _, err := gmark.EngineByName(name); err != nil {
			t.Errorf("EngineByName(%s): %v", name, err)
		}
	}
}
