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
	countsMatch(t, label, g, q, want)
	return want
}

// countsMatch requires the sequential and the parallel counts to be
// want.
func countsMatch(t *testing.T, label string, g Source, q *query.Query, want int64) {
	t.Helper()
	for _, workers := range []int{1, 2, 8} {
		got, err := CountWith(g, q, Budget{}, EvalOptions{Workers: workers})
		if err != nil || got != want {
			t.Errorf("%s workers=%d: count %d (%v), naive oracle %d\n%s", label, workers, got, err, want, q)
		}
	}
}

// TestWindowBoundaries runs every head shape, single rules and unions,
// over random graphs whose size sits on, just under and just over a
// word and every window width, with ranges that start and end mid-word
// — in the first word of a window and in the middle of a wider one —
// and that narrow the window through its range clause.
func TestWindowBoundaries(t *testing.T) {
	exprs := []string{"a", "a-", "a.b", "a.a.a-", "(a+b-)", "(a.b+eps)", "(a)*", "(a.b-)*", "(a+b)*", "(a.a.a)*", "(a+eps)*"}
	r := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 63, 64, 65, 127, 129, 130, 255, 257, 511, 512, 513, 1025} {
		// At most 600 edges: past 300 nodes the graph thins out, which
		// keeps the naive oracle's per-source walks short.
		g := randomGraph(r, n, 2, min(2*n, 600))
		cuts := [][]NodeRange{
			cutAt(n), cutAt(n, 5, 70), cutAt(n, 63, 64, 65, 129), cutAt(n, 1, 2, 3, 100),
			cutAt(n, 100, 300, 700), cutAt(n, 200, 400, 600, 800, 1000), cutAt(n, 130, 260, 390, 520, 650, 780, 910),
		}
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
				want := naiveCount(t, g, q)
				for _, ranges := range cuts {
					countsMatch(t, fmt.Sprintf("n=%d ranges=%v", n, ranges), cutGraph{g, ranges}, q, want)
				}
			}
		}
	}
}

// TestWindowWidthRule pins the width rule at its thresholds: the
// frontier cap (8·words·n bytes within 2 MiB) and the range clause
// (64·words sources within the widest range rounded up to 64).
func TestWindowWidthRule(t *testing.T) {
	for _, c := range []struct{ n, widest, want int }{
		// The cap, ranges as wide as the graph.
		{32_768, 32_768, 8}, {32_769, 32_769, 4},
		{65_536, 65_536, 4}, {65_537, 65_537, 2},
		{131_072, 131_072, 2}, {131_073, 131_073, 1},
		{100_000, 100_000, 2}, {1 << 20, 1 << 20, 1}, {1 << 20, 200, 1},
		// The range clause, under the cap.
		{4000, 4000, 8}, {800, 200, 4}, {4000, 1, 1}, {4000, 64, 1},
		{4000, 65, 2}, {4000, 128, 2}, {4000, 129, 2}, {4000, 192, 2},
		{4000, 193, 4}, {4000, 256, 4}, {4000, 448, 4}, {4000, 449, 8},
		{4000, 512, 8}, {4000, 513, 8}, {1, 1, 1}, {130, 130, 2},
	} {
		if got := windowWords(c.n, c.widest); got != c.want {
			t.Errorf("windowWords(n=%d, widest=%d) = %d, want %d", c.n, c.widest, got, c.want)
		}
	}
	// A RangedSource's widest storage range decides, not its node count;
	// a graph without ranges is one range.
	g := handGraph(t, 1000, 1)
	for _, c := range []struct {
		src  Source
		want int
	}{
		{g, 8},
		{cutGraph{g, cutAt(1000, 250, 500, 750)}, 4},
		{cutGraph{g, cutAt(1000, 100, 200, 300, 400, 500, 600, 700, 800, 900)}, 2},
		{cutGraph{g, cutAt(1000, 10, 20)}, 8},
		{cutGraph{g, nil}, 8},
	} {
		if got := windowWordsFor(c.src); got != c.want {
			t.Errorf("windowWordsFor(%T, ranges %v) = %d, want %d", c.src, storageRanges(c.src), got, c.want)
		}
	}
}

// TestScratchBoundAboveCap: where the cap leaves one word per node, a
// worker's scratch with every frontier allocated is no larger than
// 57 B per node, plus its three one-window buffers.
func TestScratchBoundAboveCap(t *testing.T) {
	const n = 131_136 // the first multiple of 64 past the cap's last two-word graph
	words := windowWords(n, n)
	if words != 1 {
		t.Fatalf("windowWords(%d) = %d, want 1", n, words)
	}
	st := acquireScratch(n, words)
	defer st.release()
	bytes := 8 * (len(st.in) + len(st.start) + len(st.reached) + len(st.nodeUnion.Words()))
	for i := range numSlots {
		f := st.slot(i)
		bytes += 8 * (cap(f.mask) + len(f.active.Words()))
	}
	if limit := 57*n + 3*8*words; bytes > limit {
		t.Errorf("scratch at n=%d: %d B, more than 57 B x n + 3 words = %d B", n, bytes, limit)
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
			count, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1})
			if err != nil || count < 2 {
				t.Fatalf("count %d (%v) of\n%s", count, err, q)
			}
			if got, err := CountWith(src, q, Budget{MaxPairs: count}, EvalOptions{Workers: 1}); err != nil || got != count {
				t.Errorf("MaxPairs = count = %d: %d, %v\n%s", count, got, err, q)
			}
			if _, err := CountWith(src, q, Budget{MaxPairs: count - 1}, EvalOptions{Workers: 1}); !errors.Is(err, ErrBudget) {
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
	for _, n := range []int{1, 63, 64, 65, 127, 129, 130, 255, 257, 511, 512, 513, 1025} {
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
				rel, err := evalCompiled(g, dir.ce, newMeter(Budget{}))
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
		tr := &Meter{deadline: time.Now().Add(-time.Second)}
		limit := (1024 + n - 1) / n
		var err error
		for calls := int64(0); calls < limit && err == nil; calls++ {
			err = tr.Charge(n)
		}
		if !errors.Is(err, ErrBudget) {
			t.Errorf("charge(%d): expired deadline not noticed within %d calls: %v", n, limit, err)
		}
	}
}

// TestCountAllocationsDoNotGrowWithSources pins the scratch recycling:
// a warm sequential count allocates a small constant — compiled plans,
// filters, the meter — independent of how many sources and windows
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

// kernelCase decodes fuzzer bytes into a graph, a union of one or
// two chain rules with endpoint heads, and a cut of the node space.
//
// A first byte below 200 spells n = 1..200 and every node id in one
// byte. A first byte of 200 or more takes a second and spells n =
// 201..1100 — past two windows of 512 sources — and node ids above 256
// nodes take two bytes, little-endian.
func kernelCase(t testing.TB, data []byte) (cutGraph, *query.Query) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()
	if n > 200 {
		n = 201 + ((n-201)<<8|next())%900
	}
	node := func() int {
		if n <= 256 {
			return next() % n
		}
		return (next() | next()<<8) % n
	}
	preds := 1 + next()%3
	ranges := cutAt(n, node(), node())
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
	for len(data) >= 3 && len(edges) < 1200 {
		edges = append(edges, [3]int32{int32(node()), int32(next() % preds), int32(node())})
	}
	return cutGraph{handGraph(t, n, preds, edges...), ranges}, q
}

// FuzzWindowKernel: on any graph of up to 1 100 nodes, chain query,
// head shape and range cut the fuzzer can spell, the kernel counts what
// the naive oracle counts, sequentially and in parallel.
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
