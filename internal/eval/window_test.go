package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gmark/internal/graph"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
)

// cutGraph is an in-memory graph that claims the given storage ranges,
// so a test chooses where the scan's ranges start and end — mid-word
// included, as a spill's shard width does.
type cutGraph struct {
	*graph.Graph
	ranges []NodeRange
}

func (c cutGraph) NodeRanges() []NodeRange { return c.ranges }

// cutAt covers [0, n) with ranges that break at the given ids.
func cutAt(n int, cuts ...int) []NodeRange {
	var out []NodeRange
	lo := 0
	for _, c := range append(slices.Sorted(slices.Values(cuts)), n) {
		if c = min(c, n); c > lo {
			out = append(out, NodeRange{Lo: int32(lo), Hi: int32(c)})
			lo = c
		}
	}
	return out
}

// handGraph builds an n-node graph over predicates a, b, ... from
// (src, pred, dst) triples.
func handGraph(t testing.TB, n, preds int, edges ...[3]int32) *graph.Graph {
	t.Helper()
	names := make([]string, preds)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g, err := graph.New([]string{"t"}, []int{n}, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1], e[2])
	}
	g.Freeze()
	return g
}

// chainRule is the rule head <- x0 -exprs[0]-> x1 ... -> xk, with the
// head given as positions into the chain's endpoints: 's' and 'e'.
func chainRule(head string, exprs ...string) query.Rule {
	var r query.Rule
	for i, e := range exprs {
		r.Body = append(r.Body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e)})
	}
	for _, h := range head {
		if h == 's' {
			r.Head = append(r.Head, 0)
		} else {
			r.Head = append(r.Head, query.Var(len(exprs)))
		}
	}
	return r
}

func union(rules ...query.Rule) *query.Query { return &query.Query{Rules: rules} }

// countAllWays requires the sequential count, the parallel counts and
// the naive oracle to agree, and returns the count.
func countAllWays(t *testing.T, label string, g Source, q *query.Query) int64 {
	t.Helper()
	want := naiveCount(t, g, q)
	for _, workers := range []int{1, 2, 8} {
		got, err := CountWith(g, q, Budget{}, EvalOptions{Workers: workers})
		if err != nil || got != want {
			t.Errorf("%s workers=%d: count %d (%v), naive oracle %d\n%s", label, workers, got, err, want, q)
		}
	}
	return want
}

// TestWindowBoundaries runs every head shape, single rules and unions,
// over random graphs whose size sits on, just under and just over the
// window width, with ranges that start and end mid-word.
func TestWindowBoundaries(t *testing.T) {
	exprs := []string{"a", "a-", "a.b", "a.a.a-", "(a+b-)", "(a.b+eps)", "(a)*", "(a.b-)*", "(a+b)*", "(a.a.a)*", "(a+eps)*"}
	r := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 63, 64, 65, 130} {
		g := randomGraph(r, n, 2, 2*n)
		for _, ranges := range [][]NodeRange{cutAt(n), cutAt(n, 5, 70), cutAt(n, 63, 64, 65, 129), cutAt(n, 1, 2, 3, 100)} {
			src := cutGraph{g, ranges}
			for i, e := range exprs {
				e2 := exprs[(i+3)%len(exprs)]
				for _, q := range []*query.Query{
					union(chainRule("", e)),
					union(chainRule("s", e)),
					union(chainRule("e", e)),
					union(chainRule("se", e)),
					union(chainRule("es", e)),
					union(chainRule("se", e, e2)),
					union(chainRule("es", e, e2, "b")),
					union(chainRule("s", e), chainRule("e", e2)),
					union(chainRule("e", e, e2), chainRule("s", e2)),
					union(chainRule("se", e), chainRule("se", e2)),
					union(chainRule("se", e), chainRule("es", e2), chainRule("se", "b", e)),
				} {
					countAllWays(t, fmt.Sprintf("n=%d ranges=%v", n, ranges), src, q)
				}
			}
		}
	}
}

// TestWindowProjections pins the projection rules on graphs small
// enough to count by hand.
func TestWindowProjections(t *testing.T) {
	// a: 0->2, b: 0->2, b: 1->2, all in one window. The union of
	// (x,y) <- a and (x,y) <- b reaches 2 from 0 through both rules
	// (one tuple) and from 1 (another).
	g := handGraph(t, 3, 2, [3]int32{0, 0, 2}, [3]int32{0, 1, 2}, [3]int32{1, 1, 2})
	q := union(chainRule("se", "a"), chainRule("se", "b"))
	if got := countAllWays(t, "overlap", g, q); got != 2 {
		t.Errorf("overlapping pair union = %d, want 2", got)
	}
	// Reversed heads transpose the pairs, they do not merge them.
	q = union(chainRule("se", "a"), chainRule("es", "b"))
	if got := countAllWays(t, "reversed", g, q); got != 3 {
		t.Errorf("(s,e) <- a union (e,s) <- b = %d, want 3: (0,2), (2,0), (2,1)", got)
	}
	// Mixed unary heads share one node set: sources of a {0}, targets of
	// b {2}.
	q = union(chainRule("s", "a"), chainRule("e", "b"))
	if got := countAllWays(t, "mixed unary", g, q); got != 2 {
		t.Errorf("mixed unary union = %d, want 2", got)
	}

	// A source whose only reachable target is itself: self-loops on every
	// third node of 130.
	var loops [][3]int32
	for v := int32(0); v < 130; v += 3 {
		loops = append(loops, [3]int32{v, 0, v})
	}
	self := cutGraph{handGraph(t, 130, 1, loops...), cutAt(130, 7, 100)}
	for _, e := range []string{"a", "a.a", "(a)*", "(a.a-)*"} {
		if got := countAllWays(t, "self-loops "+e, self, union(chainRule("se", e))); got != int64(len(loops)) {
			t.Errorf("self-loops %s = %d, want %d", e, got, len(loops))
		}
	}

	// A star whose source lies outside its epsilon mask: b leads 0 to 5,
	// which no a-edge touches, so b.(a)* is empty there; 1 -b-> 2 -a-> 3
	// contributes (1,2) and (1,3).
	g = handGraph(t, 70, 2, [3]int32{0, 1, 5}, [3]int32{1, 1, 2}, [3]int32{2, 0, 3})
	if got := countAllWays(t, "eps mask", g, union(chainRule("se", "b", "(a)*"))); got != 2 {
		t.Errorf("b.(a)* = %d, want 2", got)
	}

	// A Boolean witness in the last window only.
	last := cutGraph{handGraph(t, 130, 1, [3]int32{129, 0, 0}), cutAt(130, 64, 128)}
	if got := countAllWays(t, "last window", last, union(chainRule("", "a"))); got != 1 {
		t.Errorf("Boolean witness in the last window = %d, want 1", got)
	}
	if got := countAllWays(t, "no witness", last, union(chainRule("", "a.a.a"))); got != 0 {
		t.Errorf("Boolean query without a witness = %d, want 0", got)
	}
}

// TestBudgetIsAFunctionOfTheResult: a sequential evaluation charges
// exactly its count, whatever the window schedule, so MaxPairs = count
// passes and count-1 does not.
func TestBudgetIsAFunctionOfTheResult(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, 200, 2, 500)
	for _, ranges := range [][]NodeRange{cutAt(200), cutAt(200, 3, 77, 150)} {
		src := cutGraph{g, ranges}
		for _, q := range []*query.Query{
			union(chainRule("se", "a.b")),
			union(chainRule("se", "(a+b-)*")),
			union(chainRule("se", "a"), chainRule("es", "b.a")),
			union(chainRule("s", "a.b")),
			union(chainRule("e", "a", "(b)*")),
			union(chainRule("s", "a"), chainRule("e", "b")),
		} {
			count, err := Count(src, q, Budget{})
			if err != nil || count < 2 {
				t.Fatalf("count %d (%v) of\n%s", count, err, q)
			}
			if got, err := Count(src, q, Budget{MaxPairs: count}); err != nil || got != count {
				t.Errorf("MaxPairs = count = %d: %d, %v\n%s", count, got, err, q)
			}
			if _, err := Count(src, q, Budget{MaxPairs: count - 1}); !errors.Is(err, ErrBudget) {
				t.Errorf("MaxPairs = count-1 = %d: %v, want ErrBudget\n%s", count-1, err, q)
			}
		}
	}
}

// TestEvalCompiledRowsMatchOracle: the join path's materialized
// relations are the kernel's final masks transposed; forward and
// reversed they must be the naive oracle's sorted rows.
func TestEvalCompiledRowsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for _, n := range []int{1, 64, 65, 130} {
		g := randomGraph(r, n, 2, 2*n)
		for _, expr := range []string{"a", "a.b-", "(a+b.b)", "(a+eps)", "(a)*", "(a.b+b-)*"} {
			e := regpath.MustParse(expr)
			ce, err := compileExpr(g, e)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveRows(g, e)
			transposed := map[int32][]int32{}
			for v := int32(0); v < int32(n); v++ { // ascending, so rows stay sorted
				for _, w := range want[v] {
					transposed[w] = append(transposed[w], v)
				}
			}
			for _, dir := range []struct {
				name string
				ce   compiledExpr
				want map[int32][]int32
			}{{"forward", ce, want}, {"reversed", ce.reverse(), transposed}} {
				rel, err := evalCompiled(g, dir.ce, newTracker(Budget{}))
				if err != nil {
					t.Fatal(err)
				}
				if len(rel.Rows) != len(dir.want) {
					t.Errorf("n=%d %s %s: %d rows, oracle %d", n, expr, dir.name, len(rel.Rows), len(dir.want))
				}
				for v, row := range dir.want {
					if !slices.Equal(rel.Rows[v], row) {
						t.Errorf("n=%d %s %s: row %d = %v, oracle %v", n, expr, dir.name, v, rel.Rows[v], row)
					}
				}
			}
		}
	}
}

// TestChargeDeadlineOnBoundaryCrossing: charge consults the deadline
// when the running total crosses a multiple of 1024, not only when it
// lands on one — with an expired deadline, charges of n tuples must
// fail within ceil(1024/n) calls.
func TestChargeDeadlineOnBoundaryCrossing(t *testing.T) {
	for _, n := range []int64{1, 3, 1000, 4097} {
		tr := &tracker{deadline: time.Now().Add(-time.Second)}
		limit := (1024 + n - 1) / n
		var err error
		for calls := int64(0); calls < limit && err == nil; calls++ {
			err = tr.charge(n)
		}
		if !errors.Is(err, ErrBudget) {
			t.Errorf("charge(%d): expired deadline not noticed within %d calls: %v", n, limit, err)
		}
	}
}

// TestCountAllocationsDoNotGrowWithSources pins the scratch recycling:
// a warm sequential count allocates a small constant — compiled plans,
// filters, the tracker — independent of how many sources and windows
// the scan walks.
func TestCountAllocationsDoNotGrowWithSources(t *testing.T) {
	cfg, small := testutil.Graph(t, "bib", 200, evalFixtureSeed)
	_, large := testutil.Graph(t, "bib", 2000, evalFixtureSeed)
	preds := testutil.Predicates(cfg)
	for _, expr := range []string{preds[0] + "-." + preds[0], "(" + preds[0] + "-." + preds[0] + ")*"} {
		q := pairQuery(expr)
		allocs := func(g *graph.Graph) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The pool may lose its scratch to a collection (and, under the
		// race detector, to sync.Pool's random drops); a rebuilt scratch
		// is at most four allocations a frontier plus three, however
		// large the graph.
		const slack = 4*numSlots + 3
		at200, at2000 := allocs(small), allocs(large)
		if at2000 > at200+slack || at2000 > 40+slack {
			t.Errorf("%s: %.0f allocations per count at 2000 nodes, %.0f at 200: must not grow with the sources", expr, at2000, at200)
		}
	}
}

// kernelCase decodes fuzzer bytes into a small graph, a union of one or
// two chain rules with endpoint heads, and a cut of the node space.
func kernelCase(t testing.TB, data []byte) (cutGraph, *query.Query) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, preds := 1+next()%200, 1+next()%3
	ranges := cutAt(n, next()%n, next()%n)
	arity := next() % 3
	heads := [][]string{{""}, {"s", "e"}, {"se", "es"}}[arity]
	q := &query.Query{}
	for rules := 1 + next()%2; rules > 0; rules-- {
		head := heads[next()%len(heads)]
		var exprs []string
		for conjuncts := 1 + next()%3; conjuncts > 0; conjuncts-- {
			var e regpath.Expr
			shape := next()
			e.Star = shape&1 == 1
			for paths := 1 + shape>>1%2; paths > 0; paths-- {
				var p regpath.Path
				for length := next() % 4; length > 0; length-- {
					s := next()
					p = append(p, regpath.Symbol{Pred: string(rune('a' + s>>1%preds)), Inverse: s&1 == 1})
				}
				e.Paths = append(e.Paths, p)
			}
			exprs = append(exprs, e.String())
		}
		q.Rules = append(q.Rules, chainRule(head, exprs...))
	}
	var edges [][3]int32
	for len(data) >= 3 && len(edges) < 600 {
		edges = append(edges, [3]int32{int32(next() % n), int32(next() % preds), int32(next() % n)})
	}
	return cutGraph{handGraph(t, n, preds, edges...), ranges}, q
}

// FuzzWindowKernel: on any small graph, chain query, head shape and
// range cut the fuzzer can spell, the kernel counts what the naive
// oracle counts, sequentially and in parallel.
func FuzzWindowKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 1, 5, 70, 2, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 2, 63, 0, 0})
	f.Add([]byte{129, 2, 63, 65, 2, 1, 1, 2, 3, 2, 0, 3, 1, 0, 2, 1, 0, 1, 2, 0, 1, 0, 1, 1, 2, 1, 3, 2, 0, 128, 1, 0})
	f.Add([]byte{199, 1, 100, 7, 1, 1, 0, 1, 3, 1, 0, 1, 1, 1, 5, 0, 6, 6, 0, 7, 7, 0, 5, 198, 0, 198})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q := kernelCase(t, data)
		want := naiveCount(t, g, q)
		for _, workers := range []int{1, 3} {
			got, err := CountWith(g, q, Budget{}, EvalOptions{Workers: workers})
			if err != nil || got != want {
				t.Fatalf("n=%d ranges=%v workers=%d: count %d (%v), naive oracle %d\n%s",
					g.NumNodes(), g.ranges, workers, got, err, want, q)
			}
		}
	})
}
