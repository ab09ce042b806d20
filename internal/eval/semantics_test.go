package eval

import (
	"testing"

	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/regpath"
)

// pathGraph builds a single path 0 -a-> 1 -a-> 2 ... over n+1 nodes.
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.New([]string{"t"}, []int{n + 1}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(int32(i), 0, int32(i+1))
	}
	g.Freeze()
	return g
}

func TestStarOnPath(t *testing.T) {
	// On a 4-edge path, (a)* yields all ordered pairs i <= j over the
	// five path nodes: 15.
	g := pathGraph(t, 4)
	got, err := CountWith(g, binChain("(a)*"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("|(a)*| on path = %d, want 15", got)
	}
}

func TestStarDomainExcludesIsolated(t *testing.T) {
	// Nodes beyond the path (no a-edges) must not contribute identity
	// pairs.
	g, err := graph.New([]string{"t"}, []int{10}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 1) // only nodes 0,1 participate
	g.Freeze()
	got, err := CountWith(g, binChain("(a)*"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// (0,0),(1,1),(0,1).
	if got != 3 {
		t.Errorf("|(a)*| = %d, want 3", got)
	}
}

func TestMixedRuleOrientationUnion(t *testing.T) {
	// Rule 1 streams forward, rule 2 is written reversed; their
	// results overlap and the union must deduplicate.
	g := pathGraph(t, 3)
	q := &query.Query{Rules: []query.Rule{
		{
			Head: []query.Var{0, 1},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
		},
		{
			// (y, x) <- (x, a-, y) denotes the same pairs.
			Head: []query.Var{1, 0},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a-")}},
		},
	}}
	got, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("overlapping mixed-orientation union = %d, want 3", got)
	}
}

func TestEpsilonStarIsEpsilon(t *testing.T) {
	// (eps)* is equivalent to eps: the identity over all nodes, same
	// as a plain eps conjunct (the symbol-based star domain does not
	// restrict an expression whose only disjunct is the empty word).
	g := pathGraph(t, 2) // 3 nodes
	star, err := CountWith(g, binChain("(eps)*"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CountWith(g, binChain("eps"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if star != plain || star != 3 {
		t.Errorf("|(eps)*| = %d, |eps| = %d, want both 3", star, plain)
	}
}

func TestLongPathExpression(t *testing.T) {
	// a.a.a.a on the path graph: exactly one pair (0,4).
	g := pathGraph(t, 4)
	got, err := CountWith(g, binChain("a.a.a.a"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("|a^4| = %d, want 1", got)
	}
	// a^5 overshoots: empty.
	got, err = CountWith(g, binChain("a.a.a.a.a"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("|a^5| = %d, want 0", got)
	}
}

func TestDisjunctionOfInverseDirections(t *testing.T) {
	// (a+a-) on the path: all adjacent pairs both ways: 2n pairs.
	g := pathGraph(t, 3)
	got, err := CountWith(g, binChain("(a+a-)"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("|a+a-| = %d, want 6", got)
	}
}

func TestStarOfBidirectional(t *testing.T) {
	// (a+a-)* on a path: every node reaches every node: 16 pairs on 4
	// path nodes.
	g := pathGraph(t, 3)
	got, err := CountWith(g, binChain("(a+a-)*"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Errorf("|(a+a-)*| = %d, want 16", got)
	}
}

func TestChainThroughStar(t *testing.T) {
	// (x,(a)*,y),(y,b,z) with one b-edge from the path's end.
	g, err := graph.New([]string{"t"}, []int{6}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(2, 1, 5) // b-edge
	g.Freeze()
	got, err := CountWith(g, binChain("(a)*", "b"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sources reaching 2 via (a)*: {0,1,2}: pairs (0,5),(1,5),(2,5).
	if got != 3 {
		t.Errorf("chain through star = %d, want 3", got)
	}
}

func TestHigherArityProjection(t *testing.T) {
	// Ternary head on a 2-conjunct chain via the join evaluator.
	g := pathGraph(t, 2)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 1, Dst: 2, Expr: regpath.MustParse("a")},
		},
	}}}
	tuples, err := Tuples(g, q, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0][0] != 0 || tuples[0][1] != 1 || tuples[0][2] != 2 {
		t.Errorf("ternary tuples = %v", tuples)
	}
	count, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("ternary count = %d", count)
	}
}

func TestDuplicateEdgesDoNotDuplicateResults(t *testing.T) {
	// The generator can emit duplicate edges; set semantics must
	// collapse them.
	g, err := graph.New([]string{"t"}, []int{3}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 1)
	g.Freeze()
	got, err := CountWith(g, binChain("a"), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("duplicate edges counted %d times", got)
	}
}
