package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tiny builds a 2-type, 2-predicate graph:
//
//	a-edges: 0->2, 0->3, 1->2
//	b-edges: 2->0, 3->3
func tiny(t *testing.T) *Graph {
	t.Helper()
	g, err := New([]string{"u", "v"}, []int{2, 3}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 2)
	g.AddEdge(0, 0, 3)
	g.AddEdge(1, 0, 2)
	g.AddEdge(2, 1, 0)
	g.AddEdge(3, 1, 3)
	g.Freeze()
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"a"}, []int{1, 2}, nil); err == nil {
		t.Error("mismatched counts should fail")
	}
	if _, err := New([]string{"a"}, []int{-1}, nil); err == nil {
		t.Error("negative count should fail")
	}
	// Node ids are int32: the counts must sum to at most MaxInt32.
	if _, err := New([]string{"a", "b"}, []int{math.MaxInt32, math.MaxInt32}, nil); err == nil {
		t.Error("counts summing past MaxInt32 should fail")
	}
	if strconv.IntSize == 64 { // a 32-bit int cannot hold such a count
		past := int64(1)<<32 + 5
		if _, err := New([]string{"a"}, []int{int(past)}, nil); err == nil {
			t.Error("a count past MaxInt32 should fail, not wrap")
		}
	}
	if g, err := New([]string{"a", "b"}, []int{math.MaxInt32 - 1, 1}, nil); err != nil || g.NumNodes() != math.MaxInt32 {
		t.Errorf("MaxInt32 nodes in all: %v", err)
	}
}

func TestCounts(t *testing.T) {
	g := tiny(t)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.NumTypes() != 2 || g.NumPredicates() != 2 {
		t.Errorf("types/preds = %d/%d", g.NumTypes(), g.NumPredicates())
	}
	if g.TypeCount(0) != 2 || g.TypeCount(1) != 3 {
		t.Errorf("type counts = %d/%d", g.TypeCount(0), g.TypeCount(1))
	}
	if g.PredEdgeCount(0) != 3 || g.PredEdgeCount(1) != 2 {
		t.Errorf("pred counts = %d/%d", g.PredEdgeCount(0), g.PredEdgeCount(1))
	}
}

func TestTypeLayout(t *testing.T) {
	g := tiny(t)
	lo, hi := g.TypeRange(1)
	if lo != 2 || hi != 5 {
		t.Errorf("TypeRange(1) = [%d,%d)", lo, hi)
	}
	for v, want := range map[NodeID]int{0: 0, 1: 0, 2: 1, 4: 1} {
		if got := g.TypeOf(v); got != want {
			t.Errorf("TypeOf(%d) = %d, want %d", v, got, want)
		}
	}
	if g.TypeName(0) != "u" || g.PredName(1) != "b" {
		t.Error("name lookups broken")
	}
	if g.TypeIndex("v") != 1 || g.TypeIndex("zzz") != -1 {
		t.Error("TypeIndex broken")
	}
	if g.PredIndex("b") != 1 || g.PredIndex("zzz") != -1 {
		t.Error("PredIndex broken")
	}
}

func TestAdjacency(t *testing.T) {
	g := tiny(t)
	if got := g.Out(0, 0); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Out(0,a) = %v", got)
	}
	if got := g.In(2, 0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("In(2,a) = %v", got)
	}
	if got := g.Out(0, 1); len(got) != 0 {
		t.Errorf("Out(0,b) = %v", got)
	}
	if got := g.Neighbors(2, 0, true); len(got) != 2 {
		t.Errorf("Neighbors(2,a,inv) = %v", got)
	}
	if g.OutDegree(0, 0) != 2 || g.InDegree(3, 0) != 1 {
		t.Error("degree lookups broken")
	}
}

func TestHasEdge(t *testing.T) {
	g := tiny(t)
	if !g.HasEdge(0, 0, 3) {
		t.Error("edge (0,a,3) should exist")
	}
	if g.HasEdge(0, 0, 4) {
		t.Error("edge (0,a,4) should not exist")
	}
	if g.HasEdge(0, 1, 3) {
		t.Error("edge (0,b,3) should not exist")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := tiny(t)
	var got []Edge
	g.Edges(func(e Edge) { got = append(got, e) })
	if len(got) != 5 {
		t.Fatalf("Edges visited %d edges", len(got))
	}
	// Grouped by predicate, then by source.
	want := []Edge{{0, 0, 2}, {0, 0, 3}, {1, 0, 2}, {2, 1, 0}, {3, 1, 3}}
	for i, e := range want {
		if got[i] != e {
			t.Errorf("edge %d = %+v, want %+v", i, got[i], e)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := tiny(t)
	s := g.OutDegreeStats(0, 0) // type u, predicate a
	if s.Count != 2 || s.EdgeSum != 3 || s.Max != 2 || s.NonZero != 2 {
		t.Errorf("out stats = %+v", s)
	}
	if s.Mean != 1.5 {
		t.Errorf("mean = %g", s.Mean)
	}
	in := g.InDegreeStats(1, 0) // type v, predicate a
	if in.Count != 3 || in.EdgeSum != 3 || in.Max != 2 {
		t.Errorf("in stats = %+v", in)
	}
}

func TestFreezeGuards(t *testing.T) {
	g, _ := New([]string{"t"}, []int{2}, []string{"p"})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Out before Freeze should panic")
			}
		}()
		g.Out(0, 0)
	}()
	g.Freeze()
	g.Freeze() // idempotent
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddEdge after Freeze should panic")
			}
		}()
		g.AddEdge(0, 0, 1)
	}()
}

// TestAddEdgeBatchRefusesBadBatches: a batch whose columns differ in
// length, whose predicate lies outside the graph or that names a node id
// outside [0, NumNodes) is refused with an error naming it, and nothing
// of it is appended, so Freeze still builds the graph.
func TestAddEdgeBatchRefusesBadBatches(t *testing.T) {
	g, err := New([]string{"u", "v"}, []int{2, 3}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pred       PredID
		srcs, dsts []NodeID
		mentioning string
	}{
		{0, []NodeID{0, 1}, []NodeID{2}, "2 sources, 1 targets"},
		{2, []NodeID{0}, []NodeID{2}, "predicate 2"},
		{-1, []NodeID{0}, []NodeID{2}, "predicate -1"},
		{0, []NodeID{0, -5}, []NodeID{2, 3}, "node id -5"},
		{1, []NodeID{0, 1}, []NodeID{2, 1 << 30}, fmt.Sprintf("node id %d", 1<<30)},
		{1, []NodeID{5}, []NodeID{0}, "node id 5"},
	}
	for _, c := range cases {
		err := g.AddEdgeBatch(c.pred, c.srcs, c.dsts)
		if err == nil || !strings.Contains(err.Error(), c.mentioning) {
			t.Errorf("AddEdgeBatch(%d, %v, %v) = %v, want an error naming %s", c.pred, c.srcs, c.dsts, err, c.mentioning)
		}
	}
	if err := g.AddEdgeBatch(1, []NodeID{4}, []NodeID{0}); err != nil {
		t.Fatalf("a batch inside the graph was refused: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d after refused batches and one edge, want 1", g.NumEdges())
	}
	g.Freeze()
	if got := g.Out(4, 1); !slices.Equal(got, []NodeID{0}) {
		t.Errorf("Out(4, b) = %v, want [0]", got)
	}
}

func TestWriteNTriples(t *testing.T) {
	g := tiny(t)
	var buf bytes.Buffer
	if err := g.WriteNTriples(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 triples, got %d", len(lines))
	}
	if !strings.Contains(lines[0], "<http://gmark.example.org/node/u/0>") ||
		!strings.Contains(lines[0], "pred/a") {
		t.Errorf("first triple = %q", lines[0])
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, " .") {
			t.Errorf("triple not terminated: %q", l)
		}
	}
}

// edgeListText renders g in the edge-list format ReadEdgeList parses,
// as graphgen.WriterSink writes it: the layout header, then one line
// per edge, here in Edges order.
func edgeListText(g *Graph) []byte {
	b := fmt.Appendf(nil, "# gmark graph nodes=%d\n# types", g.NumNodes())
	for t := 0; t < g.NumTypes(); t++ {
		b = fmt.Appendf(b, " %s:%d", g.TypeName(t), g.TypeCount(t))
	}
	b = append(b, "\n# predicates"...)
	for p := 0; p < g.NumPredicates(); p++ {
		b = fmt.Appendf(b, " %s", g.PredName(PredID(p)))
	}
	b = append(b, '\n')
	lines := NewEdgeLines(g.predNames)
	g.Edges(func(e Edge) { b = lines[e.Pred].Append(b, e.Src, e.Dst) })
	return b
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := tiny(t)
	g2, err := ReadEdgeList(bytes.NewReader(edgeListText(g)))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges())
	}
	var e1, e2 []Edge
	g.Edges(func(e Edge) { e1 = append(e1, e) })
	g2.Edges(func(e Edge) { e2 = append(e2, e) })
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	for tIdx := 0; tIdx < g.NumTypes(); tIdx++ {
		if g.TypeName(tIdx) != g2.TypeName(tIdx) || g.TypeCount(tIdx) != g2.TypeCount(tIdx) {
			t.Errorf("type %d mismatch", tIdx)
		}
	}
	// A first line that also carries the edge count, as older files
	// do, is a comment like any other.
	old := bytes.Replace(edgeListText(g), []byte("\n"), fmt.Appendf(nil, " edges=%d\n", g.NumEdges()), 1)
	if g3, err := ReadEdgeList(bytes.NewReader(old)); err != nil || g3.NumEdges() != g.NumEdges() {
		t.Fatalf("header with edges=: err = %v", err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                                     // empty
		"0 a 1\n",                              // edge before header
		"# types u:x\n",                        // bad count
		"# types u\n",                          // missing colon
		"# types u:2\n# predicates a\n0 a\n",   // short edge line
		"# types u:2\n# predicates a\n0 q 1\n", // unknown predicate
		"# types u:2\n# predicates a\n0 a 9\n", // node out of range
		"# types u:2\n# predicates a\nx a 1\n", // bad source
		"# types u:2\n# predicates a\n0 a x\n", // bad target
		"# types a:2147483647 b:2147483647\n# predicates p\n", // node ids overflow int32
		"# types a:4294967301\n# predicates p\n",              // count wraps to 5 as int32
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadEdgeListEmptyGraph(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# types u:3\n# predicates a\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Errorf("empty graph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

// sortingCSR is the comparison-sort CSR build the counting build
// replaced, kept as its oracle: a counting scatter of the neighbours
// by owner in input order, then a sort of every list.
func sortingCSR(n int, from, to []int32) csr {
	off := make([]int32, n+1)
	for _, v := range from {
		off[v+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]int32, len(from))
	cursor := make([]int32, n)
	for i, v := range from {
		adj[off[v]+cursor[v]] = to[i]
		cursor[v]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	return csr{off: off, adj: adj}
}

// TestCountingBuildMatchesSortingBuild pins the sequential CSR build
// to the sorting oracle on 300 random multigraphs — duplicates,
// self-loops, neighbour ids spanning both less and more than n + E
// values, so both sides of the build's span rule run — and on the
// empty edge list and a one-node graph.
func TestCountingBuildMatchesSortingBuild(t *testing.T) {
	check := func(name string, n int, from, to []int32) {
		t.Helper()
		got, want := buildCSRSequential(n, 0, []Part{{Keys: from, Vals: to}}), sortingCSR(n, from, to)
		if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) {
			t.Fatalf("%s: got off=%v adj=%v, want off=%v adj=%v", name, got.off, got.adj, want.off, want.adj)
		}
	}
	check("empty", 4, nil, nil)
	check("empty graph", 0, nil, nil)
	check("one node", 1, []int32{0, 0, 0}, []int32{0, 0, 0})
	rng := rand.New(rand.NewSource(17))
	counting, sorting := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		// Neighbours are usually ids of the same n nodes (self-loops
		// common), sometimes a window of a much wider id space, as in
		// a spill unit whose owners are one node range.
		base, width := 0, n
		if trial%2 == 1 {
			base, width = rng.Intn(1000), 1+rng.Intn(2000)
		}
		m := rng.Intn(200)
		from, to := make([]int32, m), make([]int32, m)
		for i := range from {
			from[i] = int32(rng.Intn(n))
			to[i] = int32(base + rng.Intn(width))
			if i > 0 && rng.Intn(8) == 0 {
				from[i], to[i] = from[i-1], to[i-1]
			}
		}
		if m > 0 {
			if span := int(slices.Max(to)-slices.Min(to)) + 1; span <= n+m {
				counting++
			} else {
				sorting++
			}
		}
		check(fmt.Sprintf("trial %d (n=%d, m=%d)", trial, n, m), n, from, to)
	}
	if counting < 50 || sorting < 50 {
		t.Fatalf("span rule sides under-covered: %d counting builds, %d sorting builds", counting, sorting)
	}
}

// TestFreezeFewPredicatesParallel freezes a single-predicate graph,
// whose two (predicate, direction) builds leave most workers idle, at
// GOMAXPROCS 1, 2 and 8: every freeze must give the same sorted lists.
func TestFreezeFewPredicatesParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 100
	build := func() *Graph {
		g, err := New([]string{"u"}, []int{n}, []string{"p"})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			g.AddEdge(int32(rng.Intn(n)), 0, int32(rng.Intn(n)))
		}
		g.Freeze()
		return g
	}
	runtime.GOMAXPROCS(1)
	want := build()
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		g := build()
		for v := int32(0); v < n; v++ {
			if !slices.Equal(g.Out(v, 0), want.Out(v, 0)) || !slices.Equal(g.In(v, 0), want.In(v, 0)) {
				t.Fatalf("GOMAXPROCS %d: node %d's lists differ across freezes", procs, v)
			}
			if !slices.IsSorted(g.Out(v, 0)) || !slices.IsSorted(g.In(v, 0)) {
				t.Fatalf("GOMAXPROCS %d: node %d's lists are not sorted", procs, v)
			}
		}
	}
}

// TestBuildAdjacency covers the exported helper the CSR spill sink
// writes its on-disk shards with.
func TestBuildAdjacency(t *testing.T) {
	from := []int32{2, 0, 2, 1}
	to := []int32{3, 1, 0, 2}
	off, adj := BuildAdjacency(4, from, to, 4)
	wantOff := []int32{0, 1, 2, 4, 4}
	wantAdj := []int32{1, 2, 0, 3}
	if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
		t.Fatalf("got off=%v adj=%v, want off=%v adj=%v", off, adj, wantOff, wantAdj)
	}
}

// FuzzBuildAdjacencyParts: any split of an edge list into parts
// (empty parts included), over the node range [lo, lo+n), builds what
// BuildAdjacency builds from the concatenation with lo subtracted from
// every key, and what the sorting oracle builds, and leaves the parts
// as they were. Each three input bytes are one edge — key, neighbour,
// and whether a part ends (bit 0) or an empty part follows (bit 1)
// after it. wide spreads the neighbours past n + E values, so the
// build takes its sorting path; narrow inputs mostly take the counting
// path.
func FuzzBuildAdjacencyParts(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 1, 1, 2, 2, 0, 0}, uint8(3), uint16(0), false)
	f.Add([]byte{0, 1, 1, 2, 3, 0, 1, 1, 3, 1, 0, 0, 0, 2, 1}, uint8(4), uint16(70), false)
	f.Add([]byte{0, 9, 1, 1, 200, 0, 1, 3, 2, 0, 255, 1}, uint8(2), uint16(5), true)
	f.Add([]byte{}, uint8(6), uint16(9), false)
	f.Fuzz(func(t *testing.T, data []byte, nodes uint8, lo uint16, wide bool) {
		n, base := 1+int(nodes%64), int32(lo)
		var parts []Part
		var keys, vals []int32 // the concatenation, keys rebased to 0
		var cur Part
		for i := 0; i+2 < len(data); i += 3 {
			k, v := int32(data[i])%int32(n), int32(data[i+1])
			if wide {
				v *= 1 << 16
			}
			keys, vals = append(keys, k), append(vals, v)
			cur.Keys, cur.Vals = append(cur.Keys, base+k), append(cur.Vals, v)
			if data[i+2]&1 == 1 {
				parts, cur = append(parts, cur), Part{}
			}
			if data[i+2]&2 == 2 {
				parts = append(parts, Part{})
			}
		}
		parts = append(parts, cur)
		var before []Part
		for _, p := range parts {
			before = append(before, Part{slices.Clone(p.Keys), slices.Clone(p.Vals)})
		}

		off, adj := BuildAdjacencyParts(n, base, parts)
		wantOff, wantAdj := BuildAdjacency(n, keys, vals, 1)
		if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
			t.Fatalf("%d parts at lo %d: off=%v adj=%v, BuildAdjacency off=%v adj=%v", len(parts), lo, off, adj, wantOff, wantAdj)
		}
		if oracle := sortingCSR(n, keys, vals); !slices.Equal(off, oracle.off) || !slices.Equal(adj, oracle.adj) {
			t.Fatalf("%d parts at lo %d: off=%v adj=%v, sorting oracle off=%v adj=%v", len(parts), lo, off, adj, oracle.off, oracle.adj)
		}
		for i, p := range parts {
			if !slices.Equal(p.Keys, before[i].Keys) || !slices.Equal(p.Vals, before[i].Vals) {
				t.Fatalf("part %d modified by the build", i)
			}
		}
	})
}

// TestBuildAdjacencyPairMatchesBuildAdjacency is the property test of
// the sort-free builder: on random multigraphs — duplicates,
// self-loops, ids not starting at 0 — and on the empty and one-node
// edge lists, both directions' lists equal BuildAdjacency's, and each
// offset array covers exactly its side's [min, max].
func TestBuildAdjacencyPairMatchesBuildAdjacency(t *testing.T) {
	check := func(name string, srcs, dsts []int32) {
		t.Helper()
		p := BuildAdjacencyPair(srcs, dsts)
		n := 0
		for i := range srcs {
			n = max(n, int(srcs[i])+1, int(dsts[i])+1)
		}
		for _, d := range []struct {
			tag      string
			from, to []int32
			lo       int32
			off, adj []int32
		}{
			{"fwd", srcs, dsts, p.FwdLo, p.FwdOff, p.FwdAdj},
			{"bwd", dsts, srcs, p.BwdLo, p.BwdOff, p.BwdAdj},
		} {
			if len(d.from) == 0 {
				if d.lo != 0 || !slices.Equal(d.off, []int32{0}) || len(d.adj) != 0 {
					t.Fatalf("%s %s: empty input gave lo=%d off=%v adj=%v", name, d.tag, d.lo, d.off, d.adj)
				}
				continue
			}
			lo, hi := slices.Min(d.from), slices.Max(d.from)
			if d.lo != lo || len(d.off) != int(hi-lo)+2 || d.off[0] != 0 || int(d.off[len(d.off)-1]) != len(d.from) {
				t.Fatalf("%s %s: lo=%d, %d offsets from %d to %d over ids [%d, %d] and %d edges",
					name, d.tag, d.lo, len(d.off), d.off[0], d.off[len(d.off)-1], lo, hi, len(d.from))
			}
			wantOff, wantAdj := BuildAdjacency(n, d.from, d.to, 1)
			for v := 0; v < n; v++ {
				want := wantAdj[wantOff[v]:wantOff[v+1]]
				var got []int32
				if k := v - int(lo); k >= 0 && k < len(d.off)-1 {
					got = d.adj[d.off[k]:d.off[k+1]]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s: node %d lists %v, BuildAdjacency %v", name, d.tag, v, got, want)
				}
			}
		}
	}
	check("empty", nil, nil)
	check("one node", []int32{5}, []int32{5})
	check("one node, repeated", []int32{3, 3, 3}, []int32{3, 3, 3})
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		// Sides over their own intervals, usually not starting at 0,
		// and narrow enough for duplicates and self-loops to be common.
		sBase, dBase := rng.Intn(50), rng.Intn(50)
		sSpan, dSpan := 1+rng.Intn(20), 1+rng.Intn(20)
		if trial%3 == 0 {
			dBase, dSpan = sBase, sSpan // one node type: self-loops
		}
		m := rng.Intn(200)
		srcs, dsts := make([]int32, m), make([]int32, m)
		for i := range srcs {
			srcs[i] = int32(sBase + rng.Intn(sSpan))
			dsts[i] = int32(dBase + rng.Intn(dSpan))
		}
		check(fmt.Sprintf("trial %d", trial), srcs, dsts)
	}
}
