package eval

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/regpath"
)

// diamondGraph builds one type, predicates a and b:
//
//	a: 0->1, 0->2, 1->3, 2->3
//	b: 3->4
func diamondGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.New([]string{"t"}, []int{5}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 2)
	g.AddEdge(1, 0, 3)
	g.AddEdge(2, 0, 3)
	g.AddEdge(3, 1, 4)
	g.Freeze()
	return g
}

// cycleGraph builds a directed a-cycle over n nodes.
func cycleGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.New([]string{"t"}, []int{n}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(int32(i), 0, int32((i+1)%n))
	}
	g.Freeze()
	return g
}

func binChain(exprs ...string) *query.Query {
	var body []query.Conjunct
	for i, e := range exprs {
		body = append(body, query.Conjunct{
			Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e),
		})
	}
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, query.Var(len(exprs))},
		Body: body,
	}}}
}

func TestCountSingleSymbol(t *testing.T) {
	g := diamondGraph(t)
	if got, _ := CountWith(g, binChain("a"), Budget{}, EvalOptions{Workers: 1}); got != 4 {
		t.Errorf("|a| = %d, want 4", got)
	}
	if got, _ := CountWith(g, binChain("b"), Budget{}, EvalOptions{Workers: 1}); got != 1 {
		t.Errorf("|b| = %d, want 1", got)
	}
}

func TestCountInverse(t *testing.T) {
	g := diamondGraph(t)
	if got, _ := CountWith(g, binChain("a-"), Budget{}, EvalOptions{Workers: 1}); got != 4 {
		t.Errorf("|a-| = %d, want 4", got)
	}
}

func TestCountConcatDedup(t *testing.T) {
	g := diamondGraph(t)
	// a.a: 0->3 via two paths, but distinct semantics count one pair;
	// no other a.a pairs exist.
	if got, _ := CountWith(g, binChain("a.a"), Budget{}, EvalOptions{Workers: 1}); got != 1 {
		t.Errorf("|a.a| = %d, want 1", got)
	}
}

func TestCountDisjunction(t *testing.T) {
	g := diamondGraph(t)
	// a+b: 4 a-pairs plus 1 b-pair, disjoint.
	if got, _ := CountWith(g, binChain("(a+b)"), Budget{}, EvalOptions{Workers: 1}); got != 5 {
		t.Errorf("|a+b| = %d, want 5", got)
	}
}

func TestCountChainJoin(t *testing.T) {
	g := diamondGraph(t)
	// (x,a,y),(y,b,z): only x in {1,2}, y=3, z=4: pairs (1,4),(2,4).
	if got, _ := CountWith(g, binChain("a", "b"), Budget{}, EvalOptions{Workers: 1}); got != 2 {
		t.Errorf("chain a,b = %d, want 2", got)
	}
}

func TestCountStarOnCycle(t *testing.T) {
	g := cycleGraph(t, 5)
	// Every node reaches every node on a cycle: 25 pairs.
	if got, _ := CountWith(g, binChain("(a)*"), Budget{}, EvalOptions{Workers: 1}); got != 25 {
		t.Errorf("|(a)*| on 5-cycle = %d, want 25", got)
	}
}

func TestCountStarZeroLengthDomain(t *testing.T) {
	g := diamondGraph(t)
	// (b)*: b has one edge 3->4. The active domain is {3,4}:
	// pairs (3,3),(4,4),(3,4) = 3. Nodes 0,1,2 do not participate.
	if got, _ := CountWith(g, binChain("(b)*"), Budget{}, EvalOptions{Workers: 1}); got != 3 {
		t.Errorf("|(b)*| = %d, want 3", got)
	}
}

func TestCountStarWithConcatDisjunct(t *testing.T) {
	g := diamondGraph(t)
	// (a.a)*: step pairs: (0,3). The zero-length domain is symbol-
	// based: nodes with an outgoing first-symbol (a) edge {0,1,2} or
	// an incoming last-symbol (a) edge {1,2,3}. Pairs: 4 identities
	// plus (0,3) = 5; node 4 does not participate.
	if got, _ := CountWith(g, binChain("(a.a)*"), Budget{}, EvalOptions{Workers: 1}); got != 5 {
		t.Errorf("|(a.a)*| = %d, want 5", got)
	}
}

func TestCountEpsilonConjunct(t *testing.T) {
	g := diamondGraph(t)
	// An eps disjunct makes the expression reflexive-or-step:
	// (eps+b) from every node: 5 identity pairs + (3,4).
	if got, _ := CountWith(g, binChain("(eps+b)"), Budget{}, EvalOptions{Workers: 1}); got != 6 {
		t.Errorf("|eps+b| = %d, want 6", got)
	}
}

func TestCountBooleanQuery(t *testing.T) {
	g := diamondGraph(t)
	q := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("b")}},
	}}}
	if got, _ := CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); got != 1 {
		t.Errorf("boolean true = %d", got)
	}
	// No b- from source side... use a label with no matches by
	// concatenating b.b (no such path).
	q2 := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("b.b")}},
	}}}
	if got, _ := CountWith(g, q2, Budget{}, EvalOptions{Workers: 1}); got != 0 {
		t.Errorf("boolean false = %d", got)
	}
}

func TestCountUnaryProjections(t *testing.T) {
	g := diamondGraph(t)
	// Sources of a.a: {0}; targets: {3}.
	qs := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a.a")}},
	}}}
	if got, _ := CountWith(g, qs, Budget{}, EvalOptions{Workers: 1}); got != 1 {
		t.Errorf("distinct sources = %d, want 1", got)
	}
	qt := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	if got, _ := CountWith(g, qt, Budget{}, EvalOptions{Workers: 1}); got != 3 {
		t.Errorf("distinct targets = %d, want 3 (1,2,3)", got)
	}
}

func TestCountReversedHead(t *testing.T) {
	g := diamondGraph(t)
	q := binChain("a", "b")
	rev := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{2, 0},
		Body: q.Rules[0].Body,
	}}}
	want, _ := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	got, err := CountWith(g, rev, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reversed head count = %d, want %d", got, want)
	}
}

func TestCountUnionOfRules(t *testing.T) {
	g := diamondGraph(t)
	// Rule 1: a-pairs; rule 2: b-pairs; union distinct = 5.
	q := &query.Query{Rules: []query.Rule{
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("b")}}},
	}}
	if got, _ := CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); got != 5 {
		t.Errorf("union = %d, want 5", got)
	}
	// Overlapping rules do not double count.
	q2 := &query.Query{Rules: []query.Rule{
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("(a+b)")}}},
	}}
	if got, _ := CountWith(g, q2, Budget{}, EvalOptions{Workers: 1}); got != 5 {
		t.Errorf("overlapping union = %d, want 5", got)
	}
}

func TestCountStarShapeJoinFallback(t *testing.T) {
	g := diamondGraph(t)
	// Star-shaped: (x0,a,x1),(x0,a,x2): sources with >=1 a-edge
	// produce all (x1,x2) combinations; head (x1,x2).
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 0, Dst: 2, Expr: regpath.MustParse("a")},
		},
	}}}
	// From 0: {1,2}x{1,2}=4 pairs; from 1: (3,3); from 2: (3,3).
	if got, _ := CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); got != 5 {
		t.Errorf("star count = %d, want 5", got)
	}
}

func TestCountCycleShape(t *testing.T) {
	g := diamondGraph(t)
	// (x0,a,x1),(x1,a,x2),(x0,a.a,x2): the diamond closes.
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 1, Dst: 2, Expr: regpath.MustParse("a")},
			{Src: 0, Dst: 2, Expr: regpath.MustParse("a.a")},
		},
	}}}
	if got, _ := CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); got != 1 {
		t.Errorf("cycle count = %d, want 1 (0,3)", got)
	}
}

func TestCountSelfLoopConjunct(t *testing.T) {
	g := cycleGraph(t, 3)
	// (x0, (a.a.a), x0): every node returns to itself in 3 steps.
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0},
		Body: []query.Conjunct{{Src: 0, Dst: 0, Expr: regpath.MustParse("a.a.a")}},
	}}}
	if got, _ := CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); got != 3 {
		t.Errorf("self-loop count = %d, want 3", got)
	}
}

// Tuples evaluates the query with the join evaluator and returns the
// distinct head tuples, sorted lexicographically: the reference the
// semantics tests compare against.
func Tuples(g Source, q *query.Query, b Budget) ([][]int32, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	defer AcquireSourceReader(g)()
	set, err := joinTuples(g, q, newMeter(b))
	if err == nil {
		err = SourceErr(g)
	}
	if err != nil {
		return nil, err
	}
	out := make([][]int32, 0, len(set))
	for _, t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}

func TestTuplesSorted(t *testing.T) {
	g := diamondGraph(t)
	tuples, err := Tuples(g, binChain("a"), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 4 {
		t.Fatalf("tuples = %v", tuples)
	}
	for i := 1; i < len(tuples); i++ {
		a, b := tuples[i-1], tuples[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Errorf("tuples not sorted: %v", tuples)
		}
	}
}

func TestBudgetTimeout(t *testing.T) {
	g := cycleGraph(t, 2000)
	q := binChain("(a)*")
	_, err := CountWith(g, q, Budget{Timeout: time.Nanosecond}, EvalOptions{Workers: 1})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("expected budget error, got %v", err)
	}
}

// TestJoinHonorsTimeout: the join path's backtracking polls the deadline
// in every branch, not only once per outer source. The head (x1) has at
// most 200 distinct tuples, so charges almost never happen, while the
// dense graph gives each outer source 200^3 bindings to walk.
func TestJoinHonorsTimeout(t *testing.T) {
	const n = 200
	var edges [][3]int32
	for v := int32(0); v < n; v++ {
		for w := int32(0); w < n; w++ {
			edges = append(edges, [3]int32{v, 0, w})
		}
	}
	g := handGraph(t, n, 1, edges...)
	a := regpath.MustParse("a")
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: a}, {Src: 1, Dst: 2, Expr: a}, {Src: 2, Dst: 3, Expr: a}, {Src: 3, Dst: 4, Expr: a}},
	}}}
	done := make(chan error, 1)
	go func() {
		_, err := CountWith(g, q, Budget{Timeout: 20 * time.Millisecond}, EvalOptions{Workers: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBudget) {
			t.Errorf("Count with a 20 ms timeout: %v, want ErrBudget", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Count with a 20 ms timeout is still running after 5 s")
	}
}

func TestBudgetMaxPairs(t *testing.T) {
	g := cycleGraph(t, 200)
	q := binChain("(a)*") // 40000 pairs
	_, err := CountWith(g, q, Budget{MaxPairs: 100}, EvalOptions{Workers: 1})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("expected budget error, got %v", err)
	}
}

func TestUnknownPredicate(t *testing.T) {
	g := diamondGraph(t)
	if _, err := CountWith(g, binChain("zzz"), Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Error("unknown predicate should fail")
	}
}

func TestInvalidQuery(t *testing.T) {
	g := diamondGraph(t)
	if _, err := CountWith(g, &query.Query{}, Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Error("invalid query should fail")
	}
}

func TestEvalExprRelation(t *testing.T) {
	g := diamondGraph(t)
	rel, err := EvalExpr(g, regpath.MustParse("a"), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, row := range rel.Rows {
		pairs += len(row)
	}
	if pairs != 4 {
		t.Errorf("pairs = %d", pairs)
	}
	if row := rel.Rows[0]; len(row) != 2 || row[0] != 1 || row[1] != 2 {
		t.Errorf("row 0 = %v", row)
	}
}

// randomGraph builds a random multigraph for the property test.
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

// randomChainQuery builds a random binary endpoint chain.
func randomChainQuery(r *rand.Rand, preds int) *query.Query {
	numConjuncts := 1 + r.Intn(3)
	var body []query.Conjunct
	for i := 0; i < numConjuncts; i++ {
		numPaths := 1 + r.Intn(2)
		var e regpath.Expr
		for j := 0; j < numPaths; j++ {
			plen := 1 + r.Intn(2)
			var p regpath.Path
			for k := 0; k < plen; k++ {
				p = append(p, regpath.Symbol{
					Pred:    string(rune('a' + r.Intn(preds))),
					Inverse: r.Intn(2) == 0,
				})
			}
			e.Paths = append(e.Paths, p)
		}
		e.Star = r.Intn(4) == 0
		body = append(body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: e})
	}
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, query.Var(numConjuncts)},
		Body: body,
	}}}
}

// TestStreamingMatchesJoin cross-checks the two evaluation strategies
// on random graphs and random chain queries: the streaming window
// algorithm and the materializing join evaluator must agree exactly.
func TestStreamingMatchesJoin(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(r, 12+r.Intn(20), 2, 40+r.Intn(60))
		q := randomChainQuery(r, 2)
		streaming, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := newMeter(Budget{})
		set, err := joinTuples(g, q, tr)
		if err != nil {
			t.Fatal(err)
		}
		if streaming != int64(len(set)) {
			t.Fatalf("trial %d: streaming=%d join=%d for query\n%s",
				trial, streaming, len(set), q)
		}
	}
}

// TestMixedProjectionUnionRegression pins the streaming-union
// miscount: a union whose rules project different chain endpoints —
// rule 1 head (start), rule 2 head (end), both arity 1 — must count
// one shared node set. On pred a with edges 0->1 and 2->3 the answer
// is |{0,2} union {1,3}| = 4; the pre-fix evaluator dispatched on
// rule 1's projection alone and returned 2.
func TestMixedProjectionUnionRegression(t *testing.T) {
	g, err := graph.New([]string{"t"}, []int{4}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 1)
	g.AddEdge(2, 0, 3)
	g.Freeze()
	body := []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}
	q := &query.Query{Rules: []query.Rule{
		{Head: []query.Var{0}, Body: body}, // sources {0,2}
		{Head: []query.Var{1}, Body: body}, // targets {1,3}
	}}
	got, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("mixed-projection union = %d, want 4", got)
	}
	// The join evaluator is the ground truth.
	set, err := joinTuples(g, q, newMeter(Budget{}))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(set)) != got {
		t.Fatalf("streaming %d != join %d", got, len(set))
	}
}

// randomUnaryChainUnion builds a union of 1-3 chain rules, each
// projecting a randomly chosen endpoint — the query family the
// mixed-projection bug hid in.
func randomUnaryChainUnion(r *rand.Rand, preds int) *query.Query {
	numRules := 1 + r.Intn(3)
	var rules []query.Rule
	for ri := 0; ri < numRules; ri++ {
		numConjuncts := 1 + r.Intn(2)
		var body []query.Conjunct
		for i := 0; i < numConjuncts; i++ {
			var e regpath.Expr
			numPaths := 1 + r.Intn(2)
			for j := 0; j < numPaths; j++ {
				plen := 1 + r.Intn(2)
				var p regpath.Path
				for k := 0; k < plen; k++ {
					p = append(p, regpath.Symbol{
						Pred:    string(rune('a' + r.Intn(preds))),
						Inverse: r.Intn(2) == 0,
					})
				}
				e.Paths = append(e.Paths, p)
			}
			e.Star = r.Intn(4) == 0
			body = append(body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: e})
		}
		head := query.Var(0) // chain start
		if r.Intn(2) == 0 {
			head = query.Var(numConjuncts) // chain end
		}
		rules = append(rules, query.Rule{Head: []query.Var{head}, Body: body})
	}
	return &query.Query{Rules: rules}
}

// TestStreamingMixedUnaryMatchesJoin cross-checks the streaming
// evaluator against the join evaluator on random chain unions whose
// rules project mixed endpoints (the differential companion to the
// pinned regression above).
func TestStreamingMixedUnaryMatchesJoin(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		g := randomGraph(r, 10+r.Intn(20), 2, 30+r.Intn(50))
		q := randomUnaryChainUnion(r, 2)
		if _, ok := planStreaming(g, q); !ok {
			t.Fatalf("trial %d: chain union did not plan as streaming:\n%s", trial, q)
		}
		streaming, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		set, err := joinTuples(g, q, newMeter(Budget{}))
		if err != nil {
			t.Fatal(err)
		}
		if streaming != int64(len(set)) {
			t.Fatalf("trial %d: streaming=%d join=%d for query\n%s",
				trial, streaming, len(set), q)
		}
	}
}

// TestStreamingBudgetCharged: the streaming unary paths must charge
// the budget for result-set growth, so a tiny MaxPairs trips exactly
// as it does on the join path.
func TestStreamingBudgetCharged(t *testing.T) {
	g := cycleGraph(t, 50)
	for _, tc := range []struct {
		name string
		head query.Var
	}{{"source", 0}, {"target", 1}} {
		q := &query.Query{Rules: []query.Rule{{
			Head: []query.Var{tc.head},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
		}}}
		if plans, ok := planStreaming(g, q); !ok || len(plans) != 1 {
			t.Fatalf("%s: not a streaming plan", tc.name)
		}
		if _, err := CountWith(g, q, Budget{MaxPairs: 3}, EvalOptions{Workers: 1}); !errors.Is(err, ErrBudget) {
			t.Errorf("%s projection: tiny MaxPairs not enforced: %v", tc.name, err)
		}
		n, err := CountWith(g, q, Budget{MaxPairs: 1000}, EvalOptions{Workers: 1})
		if err != nil || n != 50 {
			t.Errorf("%s projection: count = %d, %v", tc.name, n, err)
		}
	}
	// Boolean queries charge their single witness tuple.
	qb := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	if n, err := CountWith(g, qb, Budget{MaxPairs: 1}, EvalOptions{Workers: 1}); err != nil || n != 1 {
		t.Errorf("boolean under budget: %d, %v", n, err)
	}
}
