package querygen_test

import (
	"testing"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/usecases"
)

func bibConfig(t *testing.T, seed int64) querygen.Config {
	t.Helper()
	gcfg, err := usecases.ByName("bib", 1000)
	if err != nil {
		t.Fatal(err)
	}
	return querygen.Config{
		Graph: gcfg,
		Count: 10,
		Arity: query.Interval{Min: 2, Max: 2},
		Size: query.Size{
			Rules:     query.Interval{Min: 1, Max: 1},
			Conjuncts: query.Interval{Min: 1, Max: 3},
			Disjuncts: query.Interval{Min: 1, Max: 2},
			Length:    query.Interval{Min: 1, Max: 3},
		},
		Seed: seed,
	}
}

// firstQuery returns query 0 of the generator's workload.
func firstQuery(t *testing.T, gen *querygen.Generator) *query.Query {
	t.Helper()
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return qs[0]
}

func TestConfigValidate(t *testing.T) {
	cfg := bibConfig(t, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Graph = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil graph should fail")
	}
	bad = cfg
	bad.Count = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative count should fail")
	}
	bad = cfg
	bad.RecursionProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("probability out of range should fail")
	}
	bad = cfg
	bad.Size.Length = query.Interval{Min: 0, Max: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero max length should fail")
	}
	bad = cfg
	bad.Classes = []query.SelectivityClass{query.Linear, query.Quadratic + 1}
	if err := bad.Validate(); err == nil {
		t.Error("unknown selectivity class should fail")
	}
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.GenerateWithClass(query.Quadratic + 1); err == nil {
		t.Error("GenerateWithClass of an unknown class should fail")
	}
}

func TestGenerateCountAndValidity(t *testing.T) {
	cfg := bibConfig(t, 2)
	cfg.Shapes = []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != cfg.Count {
		t.Fatalf("generated %d queries, want %d", len(qs), cfg.Count)
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("query %d invalid: %v\n%s", i, err, q)
		}
	}
}

func TestGeneratedSizesWithinBounds(t *testing.T) {
	cfg := bibConfig(t, 3)
	cfg.Count = 30
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		m := q.Measure()
		if m.Rules.Max > cfg.Size.Rules.Max {
			t.Errorf("too many rules: %v", m.Rules)
		}
		if m.Conjuncts.Max > cfg.Size.Conjuncts.Max {
			t.Errorf("too many conjuncts: %v", m.Conjuncts)
		}
		if m.Disjuncts.Max > cfg.Size.Disjuncts.Max {
			t.Errorf("too many disjuncts: %v", m.Disjuncts)
		}
		// Path lengths may exceed the window only on relaxed queries.
		if !q.Relaxed && (m.Length.Max > cfg.Size.Length.Max || m.Length.Min < cfg.Size.Length.Min) {
			t.Errorf("length %v outside %v without relaxation", m.Length, cfg.Size.Length)
		}
	}
}

func TestGenerateWithClassEstimates(t *testing.T) {
	cfg := bibConfig(t, 4)
	gen, err := querygen.New(cfg)
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
			if q.Arity() != 2 {
				t.Fatalf("class query arity = %d", q.Arity())
			}
			if !q.HasClass {
				// The generator fell back; acceptable but rare on bib.
				continue
			}
			if q.Class != class {
				t.Errorf("declared class %v, want %v", q.Class, class)
			}
			got, ok, err := est.EstimateClass(q)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("estimator does not apply to its own query:\n%s", q)
				continue
			}
			if !q.HasRecursion() && got != class {
				t.Errorf("estimated class %v, want %v for\n%s", got, class, q)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, shapes := range [][]query.Shape{
		{query.Chain},
		{query.Star, query.Cycle, query.StarChain},
	} {
		cfg := bibConfig(t, 5)
		cfg.Shapes = shapes
		gen1, err := querygen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs1, err := gen1.GenerateWith(querygen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gen2, _ := querygen.New(cfg)
		qs2, err := gen2.GenerateWith(querygen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs1 {
			if qs1[i].String() != qs2[i].String() {
				t.Fatalf("query %d differs between identical runs:\n%s\nvs\n%s",
					i, qs1[i], qs2[i])
			}
		}
	}
}

func TestShapeChain(t *testing.T) {
	cfg := bibConfig(t, 6)
	cfg.Shapes = []query.Shape{query.Chain}
	cfg.Size.Conjuncts = query.Interval{Min: 3, Max: 3}
	gen, _ := querygen.New(cfg)
	q := firstQuery(t, gen)
	r := q.Rules[0]
	if len(r.Body) != 3 {
		t.Fatalf("conjuncts = %d", len(r.Body))
	}
	for i, c := range r.Body {
		if c.Src != query.Var(i) || c.Dst != query.Var(i+1) {
			t.Errorf("conjunct %d = (%v,%v), want chain", i, c.Src, c.Dst)
		}
	}
}

func TestShapeStar(t *testing.T) {
	cfg := bibConfig(t, 7)
	cfg.Shapes = []query.Shape{query.Star}
	cfg.Size.Conjuncts = query.Interval{Min: 3, Max: 3}
	gen, _ := querygen.New(cfg)
	q := firstQuery(t, gen)
	for _, c := range q.Rules[0].Body {
		if c.Src != 0 {
			t.Errorf("star conjunct source = %v, want ?x0", c.Src)
		}
	}
	if q.Shape != query.Star {
		t.Errorf("shape metadata = %v", q.Shape)
	}
}

func TestShapeCycle(t *testing.T) {
	cfg := bibConfig(t, 8)
	cfg.Shapes = []query.Shape{query.Cycle}
	cfg.Size.Conjuncts = query.Interval{Min: 4, Max: 4}
	gen, _ := querygen.New(cfg)
	q := firstQuery(t, gen)
	// In a cycle, the in/out degree structure closes: x0 appears as
	// source twice, and the chain endpoint appears as destination
	// twice.
	srcCount := map[query.Var]int{}
	dstCount := map[query.Var]int{}
	for _, c := range q.Rules[0].Body {
		srcCount[c.Src]++
		dstCount[c.Dst]++
	}
	if srcCount[0] != 2 {
		t.Errorf("cycle start should anchor two chains: %v", srcCount)
	}
	foundJoin := false
	for _, n := range dstCount {
		if n == 2 {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Errorf("cycle should close on a shared endpoint: %v", dstCount)
	}
}

func TestShapeStarChain(t *testing.T) {
	cfg := bibConfig(t, 9)
	cfg.Shapes = []query.Shape{query.StarChain}
	cfg.Size.Conjuncts = query.Interval{Min: 4, Max: 4}
	gen, _ := querygen.New(cfg)
	q := firstQuery(t, gen)
	if len(q.Rules[0].Body) != 4 {
		t.Fatalf("conjuncts = %d", len(q.Rules[0].Body))
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecursionProbability(t *testing.T) {
	cfg := bibConfig(t, 10)
	cfg.Count = 40
	cfg.RecursionProb = 1.0
	cfg.Size.Conjuncts = query.Interval{Min: 1, Max: 1}
	gen, _ := querygen.New(cfg)
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recursive := 0
	for _, q := range qs {
		if q.HasRecursion() {
			recursive++
		}
	}
	if recursive < cfg.Count*3/4 {
		t.Errorf("with p_r=1, only %d/%d queries are recursive", recursive, cfg.Count)
	}

	cfg.RecursionProb = 0
	cfg.Seed = 11
	gen2, _ := querygen.New(cfg)
	qs, err = gen2.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.HasRecursion() {
			t.Fatal("with p_r=0 no query should be recursive")
		}
	}
}

func TestArityZeroAndHigher(t *testing.T) {
	cfg := bibConfig(t, 12)
	cfg.Arity = query.Interval{Min: 0, Max: 0}
	cfg.Classes = nil
	gen, _ := querygen.New(cfg)
	q := firstQuery(t, gen)
	if q.Arity() != 0 {
		t.Errorf("arity = %d, want 0", q.Arity())
	}

	cfg.Arity = query.Interval{Min: 3, Max: 3}
	cfg.Size.Conjuncts = query.Interval{Min: 3, Max: 3}
	cfg.Seed = 13
	gen2, _ := querygen.New(cfg)
	q2 := firstQuery(t, gen2)
	if q2.Arity() != 3 {
		t.Errorf("arity = %d, want 3", q2.Arity())
	}
}

func TestClassConfigGeneratesMix(t *testing.T) {
	cfg := bibConfig(t, 14)
	cfg.Classes = []query.SelectivityClass{query.Constant, query.Quadratic}
	cfg.Count = 20
	gen, _ := querygen.New(cfg)
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[query.SelectivityClass]int{}
	for _, q := range qs {
		if q.HasClass {
			seen[q.Class]++
		}
	}
	if seen[query.Constant] == 0 || seen[query.Quadratic] == 0 {
		t.Errorf("class mix = %v", seen)
	}
	if seen[query.Linear] != 0 {
		t.Errorf("linear queries should not appear: %v", seen)
	}
}

func TestAllUseCasesGenerateAllClasses(t *testing.T) {
	for _, name := range usecases.Names {
		gcfg, err := usecases.ByName(name, 1000)
		if err != nil {
			t.Fatal(err)
		}
		wcfg, err := usecases.Workload("con", gcfg, 15)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := querygen.New(wcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
			q, err := gen.GenerateWithClass(class)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, class, err)
			}
			if !q.HasClass {
				t.Errorf("%s/%v: generator had to drop the class", name, class)
			}
		}
	}
}

func TestEmptySchemaFails(t *testing.T) {
	cfg := bibConfig(t, 16)
	cfg.Graph.Schema.Constraints = nil
	if _, err := querygen.New(cfg); err == nil {
		t.Error("schema without edges should fail")
	}
}

// TestMultiRulePlainQueriesShareArity: every rule of a query gets one
// head size. With two rules and arity 3, a one-conjunct chain (two
// variables) next to a longer rule used to keep arity 3 for the
// longer one and fail the whole workload in Query.Validate.
func TestMultiRulePlainQueriesShareArity(t *testing.T) {
	gcfg, err := usecases.ByName("bib", 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := usecases.Workload("con", gcfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Size.Rules = query.Interval{Min: 2, Max: 2}
	cfg.Arity = query.Interval{Min: 3, Max: 3}
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain} {
		cfg.Shapes = []query.Shape{shape}
		gen, err := querygen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := gen.GenerateWith(querygen.Options{})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		for i, q := range qs {
			if len(q.Rules) != 2 || q.Arity() > 3 {
				t.Errorf("%s query %d: %d rules, arity %d\n%s", shape, i, len(q.Rules), q.Arity(), q)
			}
		}
	}
}
