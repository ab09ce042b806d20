package engines

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/translate"
)

func randomGraph(r *rand.Rand, n, preds, edges int) *graph.Graph {
	names := make([]string, preds)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g, _ := graph.New([]string{"t"}, []int{n}, names)
	for i := 0; i < edges; i++ {
		g.AddEdge(int32(r.Intn(n)), int32(r.Intn(preds)), int32(r.Intn(n)))
	}
	g.Freeze()
	return g
}

func chainQuery(star bool, exprs ...string) *query.Query {
	var body []query.Conjunct
	for i, e := range exprs {
		pe := regpath.MustParse(e)
		body = append(body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: pe})
	}
	if star {
		body[0].Expr.Star = true
	}
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, query.Var(len(exprs))},
		Body: body,
	}}}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("expected 4 engines, got %d", len(all))
	}
	names := map[string]bool{}
	for _, e := range all {
		names[e.Name()] = true
		if e.Describe() == "" {
			t.Errorf("engine %s has no description", e.Name())
		}
	}
	for _, n := range []string{"P", "G", "S", "D"} {
		if !names[n] {
			t.Errorf("missing engine %s", n)
		}
		e, err := ByName(n)
		if err != nil || e.Name() != n {
			t.Errorf("ByName(%s) = %v, %v", n, e, err)
		}
	}
	if _, err := ByName("X"); err == nil {
		t.Error("unknown engine should fail")
	}
}

// TestEnginesMatchReferenceNonRecursive cross-checks all four engines
// against the reference evaluator on random graphs and non-recursive
// chain queries (G included: without stars its traversal semantics
// coincide with set semantics after RETURN DISTINCT).
func TestEnginesMatchReferenceNonRecursive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	queries := []*query.Query{
		chainQuery(false, "a"),
		chainQuery(false, "a-"),
		chainQuery(false, "a.b"),
		chainQuery(false, "(a+b)"),
		chainQuery(false, "(a.b+b-)"),
		chainQuery(false, "a", "b"),
		chainQuery(false, "(a+b)", "b-", "a"),
	}
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(r, 15+r.Intn(25), 2, 60+r.Intn(80))
		for qi, q := range queries {
			want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range All() {
				got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatalf("engine %s query %d: %v", eng.Name(), qi, err)
				}
				if got != want {
					t.Fatalf("trial %d engine %s query %d: got %d, want %d\n%s",
						trial, eng.Name(), qi, got, want, q)
				}
			}
		}
	}
}

// TestEnginesMatchReferenceRecursive checks that P, S and D agree with
// the reference on starred queries; G is excluded because it rewrites
// the pattern (Section 7.1).
func TestEnginesMatchReferenceRecursive(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	queries := []*query.Query{
		chainQuery(false, "(a)*"),
		chainQuery(false, "(a.b)*"),
		chainQuery(false, "(a+b-)*"),
		chainQuery(false, "(a)*", "b"),
		chainQuery(false, "b", "(a)*"),
	}
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 12+r.Intn(15), 2, 40+r.Intn(40))
		for qi, q := range queries {
			want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range All() {
				if eng.Name() == "G" {
					continue
				}
				got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatalf("engine %s query %d: %v", eng.Name(), qi, err)
				}
				if got != want {
					t.Fatalf("trial %d engine %s query %d: got %d, want %d\n%s",
						trial, eng.Name(), qi, got, want, q)
				}
			}
		}
	}
}

// TestEnginesWalkBoundConjunctBackwards: in ?0 -a-> ?1, ?2 -e-> ?1 the
// first conjunct binds ?1, so every engine evaluates e from its target
// — S and G walk a multi-symbol path reversed (reversePath), S reads a
// starred e's closure by column (closureImage backwards). Every count
// must equal the reference. G runs a starred e under the openCypher
// restriction, as (a)*, so its count is compared with the reference's
// on that rewritten query: ?1 is an a-target, hence in (a)*'s domain,
// and Cypher's zero-length match at ?1 adds nothing.
func TestEnginesWalkBoundConjunctBackwards(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	sharedTarget := func(e string) *query.Query {
		return &query.Query{Rules: []query.Rule{{
			Head: []query.Var{0, 2},
			Body: []query.Conjunct{
				{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
				{Src: 2, Dst: 1, Expr: regpath.MustParse(e)},
			},
		}}}
	}
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 12+r.Intn(15), 2, 40+r.Intn(40))
		for _, c := range []struct{ expr, cypher string }{
			{"a.b-", "a.b-"},
			{"(a.b)*", "(a)*"},
		} {
			for _, eng := range All() {
				expr := c.expr
				if eng.Name() == "G" {
					expr = c.cypher
				}
				want, err := eval.CountWith(g, sharedTarget(expr), eval.Budget{}, eval.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvaluateOpt(eng, g, sharedTarget(c.expr), eval.Budget{}, eval.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatalf("engine %s %s: %v", eng.Name(), c.expr, err)
				}
				if got != want {
					t.Fatalf("trial %d engine %s %s: got %d, want %d", trial, eng.Name(), c.expr, got, want)
				}
			}
		}
	}
}

func TestGraphDBRewritesRecursion(t *testing.T) {
	gdb := NewGraphDB()
	if gdb.RewritesRecursion(chainQuery(false, "a")) {
		t.Error("non-recursive query is not rewritten")
	}
	if gdb.RewritesRecursion(chainQuery(false, "(a)*")) {
		t.Error("single forward label star is Cypher-expressible")
	}
	if !gdb.RewritesRecursion(chainQuery(false, "(a-)*")) {
		t.Error("inverse under star is rewritten")
	}
	if !gdb.RewritesRecursion(chainQuery(false, "(a.b)*")) {
		t.Error("concatenation under star is rewritten")
	}
	if !gdb.RewritesRecursion(chainQuery(false, "(a+b)*")) {
		t.Error("multi-disjunct star is rewritten")
	}
}

func TestGraphDBSingleLabelStarMatches(t *testing.T) {
	// For a plain (a)* the Cypher *0.. traversal and set semantics
	// agree except for the zero-length domain: Cypher's *0.. matches
	// every node. Check G >= reference and that the surplus is exactly
	// the non-participating identity count.
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 20, 1, 30)
	q := chainQuery(false, "(a)*")
	want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateOpt(NewGraphDB(), g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got < want {
		t.Errorf("G star count %d < reference %d", got, want)
	}
}

func TestEnginesStarShapeQuery(t *testing.T) {
	// Non-chain shape through the generic binding machinery.
	r := rand.New(rand.NewSource(10))
	g := randomGraph(r, 18, 2, 60)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 0, Dst: 2, Expr: regpath.MustParse("b")},
		},
	}}}
	want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range All() {
		got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if got != want {
			t.Errorf("%s star-shape = %d, want %d", eng.Name(), got, want)
		}
	}
}

func TestEnginesSelfLoopConjunct(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 15, 2, 60)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0},
		Body: []query.Conjunct{{Src: 0, Dst: 0, Expr: regpath.MustParse("a.a")}},
	}}}
	want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range All() {
		got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if got != want {
			t.Errorf("%s self-loop = %d, want %d", eng.Name(), got, want)
		}
	}
}

func TestEnginesBooleanAndUnary(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g := randomGraph(r, 15, 2, 50)
	boolean := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	unary := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a.b")}},
	}}}
	for _, q := range []*query.Query{boolean, unary} {
		want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range All() {
			got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			if got != want {
				t.Errorf("%s arity-%d = %d, want %d", eng.Name(), q.Arity(), got, want)
			}
		}
	}
}

func TestEnginesUnionRules(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randomGraph(r, 15, 2, 50)
	q := &query.Query{Rules: []query.Rule{
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("b")}}},
	}}
	want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range All() {
		got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if got != want {
			t.Errorf("%s union = %d, want %d", eng.Name(), got, want)
		}
	}
}

func TestEnginesEpsilonDisjunct(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomGraph(r, 15, 2, 40)
	queries := []*query.Query{
		chainQuery(false, "(eps+a)"),
		chainQuery(false, "eps", "a"),
		chainQuery(false, "(eps+a.b)"),
	}
	for qi, q := range queries {
		want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range All() {
			got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s query %d: %v", eng.Name(), qi, err)
			}
			if got != want {
				t.Errorf("%s query %d: got %d, want %d", eng.Name(), qi, got, want)
			}
		}
	}
}

func TestPostgresBudgetOnClosure(t *testing.T) {
	// A dense cycle: the closure materializes n^2 pairs, exceeding a
	// small budget — the Table 4 cliff.
	n := 200
	g, _ := graph.New([]string{"t"}, []int{n}, []string{"a"})
	for i := 0; i < n; i++ {
		g.AddEdge(int32(i), 0, int32((i+1)%n))
	}
	g.Freeze()
	q := chainQuery(false, "(a)*")
	_, err := EvaluateOpt(NewPostgres(), g, q, eval.Budget{MaxPairs: 1000}, eval.EvalOptions{Workers: 1})
	if !errors.Is(err, eval.ErrBudget) {
		t.Errorf("expected budget failure, got %v", err)
	}
	// With a sufficient budget it completes and agrees.
	got, err := EvaluateOpt(NewPostgres(), g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(n*n) {
		t.Errorf("closure count = %d, want %d", got, n*n)
	}
}

func TestTripleStoreBudgetTimeout(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	g := randomGraph(r, 400, 1, 1600)
	q := chainQuery(false, "(a)*")
	_, err := EvaluateOpt(NewTripleStore(), g, q, eval.Budget{Timeout: time.Nanosecond, MaxPairs: 1 << 50}, eval.EvalOptions{Workers: 1})
	if !errors.Is(err, eval.ErrBudget) {
		t.Errorf("expected timeout, got %v", err)
	}
}

func TestUnknownPredicateAllEngines(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	g := randomGraph(r, 10, 1, 10)
	q := chainQuery(false, "zzz")
	for _, eng := range All() {
		if _, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1}); err == nil {
			t.Errorf("%s should reject unknown predicates", eng.Name())
		}
	}
}

// TestEnginesRandomizedAgreement is the broad property test: random
// graphs, random non-recursive chain queries, all engines equal the
// reference count.
func TestEnginesRandomizedAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	preds := 3
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(r, 10+r.Intn(20), preds, 40+r.Intn(60))
		numConjuncts := 1 + r.Intn(3)
		var body []query.Conjunct
		for i := 0; i < numConjuncts; i++ {
			var e regpath.Expr
			for j := 0; j <= r.Intn(2); j++ {
				var p regpath.Path
				for k := 0; k <= r.Intn(2); k++ {
					p = append(p, regpath.Symbol{
						Pred:    string(rune('a' + r.Intn(preds))),
						Inverse: r.Intn(2) == 0,
					})
				}
				e.Paths = append(e.Paths, p)
			}
			body = append(body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: e})
		}
		q := &query.Query{Rules: []query.Rule{{
			Head: []query.Var{0, query.Var(numConjuncts)},
			Body: body,
		}}}
		want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range All() {
			got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v on\n%s", eng.Name(), err, q)
			}
			if got != want {
				t.Fatalf("trial %d: %s = %d, want %d on\n%s", trial, eng.Name(), got, want, q)
			}
		}
	}
}

// TestStarLabelMatchesCypher pins the openCypher restriction of Section
// 7.1 on both sides that apply it: the one label the Cypher text keeps
// under a star (-[:X*0..]->) must be the label engine G traverses. Both
// scan every disjunct in order for the first non-inverse symbol and,
// when every symbol is inverse, take the first symbol's predicate
// forward.
func TestStarLabelMatchesCypher(t *testing.T) {
	g, err := graph.New([]string{"t"}, []int{4}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	for _, c := range []struct{ expr, label string }{
		{"(a-.b)*", "b"},  // the first non-inverse symbol is not the first symbol
		{"(a-+b)*", "b"},  // nor in the first disjunct
		{"(a-)*", "a"},    // every symbol inverse: the first, taken forward
		{"(b-.a-)*", "b"}, // likewise across a concatenation
	} {
		q := chainQuery(false, c.expr)
		text, err := translate.AppendTo(nil, translate.OpenCypher, q, translate.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		want := "-[:" + c.label + "*0..]->"
		if !strings.Contains(string(text), want) {
			t.Errorf("%s: Cypher text %q lacks %s", c.expr, text, want)
		}
		cq, err := compile(g, q)
		if err != nil {
			t.Fatal(err)
		}
		pred, ok := restrictedStarLabel(&cq.rules[0].body[0])
		if !ok || g.PredName(pred) != c.label {
			t.Errorf("%s: engine G traverses %q (ok %v), want %q", c.expr, g.PredName(pred), ok, c.label)
		}
	}
}
