package selectivity

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

func newSG(t *testing.T) *SchemaGraph {
	t.Helper()
	return NewSchemaGraph(newEst(t))
}

// nodeIndex returns the index of an enumerated G_S node.
func nodeIndex(t *testing.T, sg *SchemaGraph, n SelNode) int {
	t.Helper()
	i, ok := sg.index[n]
	if !ok {
		t.Fatalf("G_S has no node %+v", n)
	}
	return i
}

func TestSchemaGraphNodeEnumeration(t *testing.T) {
	sg := newSG(t)
	// T1, T2 grow: 1 + 5 = 6 nodes each; T3 fixed: 2 nodes.
	if got := len(sg.Nodes); got != 14 {
		t.Errorf("|G_S| = %d, want 14", got)
	}
	// Every enumerated triple must be clamp-stable.
	for _, n := range sg.Nodes {
		if n.Triple.Clamp() != n.Triple {
			t.Errorf("node %v not clamp-stable", n)
		}
	}
}

func TestIdentityNodes(t *testing.T) {
	sg := newSG(t)
	for tIdx := 0; tIdx < 3; tIdx++ {
		n := sg.Nodes[sg.IdentityNode(tIdx)]
		if n.Type != tIdx {
			t.Errorf("identity node of type %d has type %d", tIdx, n.Type)
		}
		if n.Triple.O != OpEq {
			t.Errorf("identity triple = %v", n.Triple)
		}
	}
}

// TestExample52Edge reproduces the edge discussed in Example 5.2:
// from (T1,(N,=,N)) an a-labeled edge reaches (T1,(N,<,N)) because
// (N,=,N) . (N,<,N) = (N,<,N).
func TestExample52Edge(t *testing.T) {
	sg := newSG(t)
	from := nodeIndex(t, sg, SelNode{Type: 0, Triple: Triple{Many, OpEq, Many}})
	to := nodeIndex(t, sg, SelNode{Type: 0, Triple: Triple{Many, OpLess, Many}})
	found := false
	for _, e := range sg.Out[from] {
		if e.To == to && e.Sym.Pred == "a" && !e.Sym.Inverse {
			found = true
		}
	}
	if !found {
		t.Errorf("missing edge (T1,(N,=,N)) -a-> (T1,(N,<,N))")
	}
}

// bruteForceGsel is G_sel for the window [lmin, lmax] by a layered
// breadth-first search over G_S's edges, independent of the path
// counts: i -> j iff j is reachable from i in exactly l edges for some
// l in the window.
func bruteForceGsel(sg *SchemaGraph, lmin, lmax int) [][]int {
	n := len(sg.Nodes)
	adj := make([][]int, n)
	for s := 0; s < n; s++ {
		reach := make([]bool, n)
		reach[s] = true
		marked := make([]bool, n)
		for l := 0; l <= lmax; l++ {
			next := make([]bool, n)
			for v, r := range reach {
				if !r {
					continue
				}
				if l >= lmin {
					marked[v] = true
				}
				for _, e := range sg.Out[v] {
					next[e.To] = true
				}
			}
			reach = next
		}
		for v, m := range marked {
			if m {
				adj[s] = append(adj[s], v)
			}
		}
	}
	return adj
}

// TestDistanceMatrix: the paper's distance matrix D is not built, as
// the path counts hold it. For every pair, the shortest length with a
// nonzero count must be the breadth-first distance over G_S.
func TestDistanceMatrix(t *testing.T) {
	sg := newSG(t)
	n := len(sg.Nodes)
	pc := sg.PathCounts(n) // a shortest path has fewer than n edges
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			for _, e := range sg.Out[v] {
				if dist[e.To] < 0 {
					dist[e.To] = dist[v] + 1
					queue = append(queue, e.To)
				}
			}
		}
		for j := 0; j < n; j++ {
			shortest := -1
			for l := 0; l <= n; l++ {
				if pc.ToNode[j][l][s] > 0 {
					shortest = l
					break
				}
			}
			if shortest != dist[j] {
				t.Errorf("%d -> %d: shortest counted length %d, breadth-first distance %d", s, j, shortest, dist[j])
			}
		}
	}
}

func TestSelectivityGraphWindow(t *testing.T) {
	sg := newSG(t)
	pc := sg.PathCounts(5)
	for lmin := 0; lmin <= 5; lmin++ {
		for lmax := max(lmin, 1); lmax <= 5; lmax++ {
			if got, want := pc.Selectivity(lmin, lmax).Adj, bruteForceGsel(sg, lmin, lmax); !reflect.DeepEqual(got, want) {
				t.Errorf("G_sel [%d,%d] from the counts = %v, breadth-first = %v", lmin, lmax, got, want)
			}
		}
	}
}

func TestSelectivityGraphZeroLength(t *testing.T) {
	sg := newSG(t)
	gsel := sg.PathCounts(1).Selectivity(0, 1)
	// With lmin=0 every node has a self-loop.
	for v := range gsel.Adj {
		found := false
		for _, w := range gsel.Adj[v] {
			if w == v {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d missing zero-length self-loop", v)
		}
	}
}

func TestWalkToClassEndsInClass(t *testing.T) {
	sg := newSG(t)
	gsel := sg.PathCounts(3).Selectivity(1, 3)
	rng := rand.New(rand.NewSource(5))
	for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
		cw := gsel.ClassWalks(class, 3)
		for steps := 1; steps <= 3; steps++ {
			walk, ok := cw.Walk(rng, steps)
			if !ok {
				continue // not all (steps, class) pairs are satisfiable
			}
			if len(walk) != steps+1 {
				t.Fatalf("walk length %d, want %d", len(walk), steps+1)
			}
			if got := sg.ClassOf(walk[len(walk)-1]); got != class {
				t.Errorf("walk ends in class %v, want %v", got, class)
			}
			// The start is an identity node.
			start := sg.Nodes[walk[0]]
			if start.Triple.O != OpEq || start.Triple.Left != start.Triple.Right {
				t.Errorf("walk starts at non-identity node %v", start)
			}
			// Consecutive nodes are G_sel neighbors.
			for i := 0; i+1 < len(walk); i++ {
				if !slices.Contains(gsel.Adj[walk[i]], walk[i+1]) {
					t.Errorf("walk step %d->%d not a G_sel edge", walk[i], walk[i+1])
				}
			}
		}
	}
}

func TestWalkToClassQuadraticReachable(t *testing.T) {
	sg := newSG(t)
	gsel := sg.PathCounts(2).Selectivity(1, 2)
	rng := rand.New(rand.NewSource(6))
	// a-.a gives x within 2 steps of length <= 2 each.
	if _, ok := gsel.ClassWalks(query.Quadratic, 1).Walk(rng, 1); !ok {
		t.Error("quadratic should be reachable in one 2-length step (a-.a)")
	}
}

func TestWalkZeroSteps(t *testing.T) {
	sg := newSG(t)
	gsel := sg.PathCounts(2).Selectivity(1, 2)
	rng := rand.New(rand.NewSource(7))
	// Zero steps: only the identity nodes themselves; T3 is fixed so a
	// constant walk of zero steps exists (its identity is (1,=,1)).
	walk, ok := gsel.ClassWalks(query.Constant, 0).Walk(rng, 0)
	if !ok {
		t.Fatal("zero-step constant walk should exist via T3")
	}
	if len(walk) != 1 || sg.Nodes[walk[0]].Type != 2 {
		t.Errorf("walk = %v", walk)
	}
	// Quadratic in zero steps is impossible: identities are never x.
	if _, ok := gsel.ClassWalks(query.Quadratic, 0).Walk(rng, 0); ok {
		t.Error("zero-step quadratic walk should not exist")
	}
}

func TestCountPathsAndSample(t *testing.T) {
	sg := newSG(t)
	rng := rand.New(rand.NewSource(8))
	from := sg.IdentityNode(0) // T1
	pc := sg.PathCounts(3)
	cnt := pc.ToType[1] // paths ending at T2
	// There must be at least one path of length 1 (the b edge).
	if cnt[1][from] == 0 {
		t.Fatal("no length-1 path T1 -> T2")
	}
	for l := 1; l <= 3; l++ {
		if cnt[l][from] == 0 {
			continue
		}
		p, end, ok := pc.SampleToType(rng, from, 1, l, l)
		if !ok {
			t.Fatalf("SampleToType failed at length %d despite count %g", l, cnt[l][from])
		}
		if len(p) != l {
			t.Fatalf("sampled path length %d, want %d", len(p), l)
		}
		if sg.Nodes[end].Type != 1 {
			t.Fatalf("sampled path ends at type %d", sg.Nodes[end].Type)
		}
	}
}

func TestSamplePathBetween(t *testing.T) {
	sg := newSG(t)
	rng := rand.New(rand.NewSource(9))
	from := nodeIndex(t, sg, SelNode{Type: 0, Triple: Identity(Many)})
	to := nodeIndex(t, sg, SelNode{Type: 0, Triple: Triple{Many, OpCross, Many}})
	pc := sg.PathCounts(2)
	p, ok := pc.SampleToNode(rng, from, to, 1, 2)
	if !ok {
		t.Fatal("a-.a reaches (T1,(N,x,N)) in 2 steps")
	}
	if len(p) < 1 || len(p) > 2 {
		t.Fatalf("path length %d", len(p))
	}
	// Impossible request: the target is two symbols away.
	if _, ok := pc.SampleToNode(rng, from, to, 1, 1); ok {
		t.Error("x is not reachable from identity in one symbol")
	}
}

func TestSamplePathRespectsWindow(t *testing.T) {
	sg := newSG(t)
	rng := rand.New(rand.NewSource(10))
	from := sg.IdentityNode(0)
	pc := sg.PathCounts(4) // wider than the window sampled in
	for i := 0; i < 50; i++ {
		p, _, ok := pc.SampleToAny(rng, from, 2, 3)
		if !ok {
			t.Fatal("sampling failed")
		}
		if len(p) < 2 || len(p) > 3 {
			t.Fatalf("length %d outside [2,3]", len(p))
		}
	}
}

func TestAlphaOfSchemaGraphNodes(t *testing.T) {
	sg := newSG(t)
	for i, n := range sg.Nodes {
		want := n.Triple.Alpha()
		if got := sg.Alpha(i); got != want {
			t.Errorf("Alpha(%v) = %d, want %d", n, got, want)
		}
		class := sg.ClassOf(i)
		switch want {
		case 0:
			if class != query.Constant {
				t.Errorf("class of %v = %v", n, class)
			}
		case 2:
			if class != query.Quadratic {
				t.Errorf("class of %v = %v", n, class)
			}
		default:
			if class != query.Linear {
				t.Errorf("class of %v = %v", n, class)
			}
		}
	}
}

// TestPathCountsConcurrentSampling shares one PathCounts between
// goroutines that each bring their own RNG — the query pipeline's
// usage — and checks every goroutine draws what a lone caller with the
// same seed draws. The race step runs it under the detector.
func TestPathCountsConcurrentSampling(t *testing.T) {
	sg := newSG(t)
	pc := sg.PathCounts(4)
	draw := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for i := 0; i < 200; i++ {
			from := sg.IdentityNode(i % 3)
			var p regpath.Path
			switch i % 3 {
			case 0:
				p, _, _ = pc.SampleToAny(rng, from, 1, 3)
			case 1:
				p, _, _ = pc.SampleToType(rng, from, (i/3)%3, 0, 4)
			default:
				p, _ = pc.SampleToNode(rng, from, i%len(sg.Nodes), 1, 4)
			}
			out = append(out, p.String())
		}
		return out
	}
	want := draw(77)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := draw(77); !reflect.DeepEqual(got, want) {
				t.Error("a concurrent sampler drew a different sequence than a lone one")
			}
		}()
	}
	wg.Wait()
}
