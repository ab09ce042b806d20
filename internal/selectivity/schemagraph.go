package selectivity

import (
	"math/rand"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

// SelNode is one node of the schema graph G_S: a node type paired with
// the selectivity triple accumulated along a path ending at that type
// (paper, Section 5.2.3(a)).
type SelNode struct {
	Type   int // index into the schema's type list
	Triple Triple
}

// SelEdge is one labeled edge of G_S.
type SelEdge struct {
	Sym regpath.Symbol
	To  int // index into SchemaGraph.Nodes
}

// SchemaGraph is the schema graph G_S of Section 5.2.3(a). Everything
// query generation reads from it comes from one quantity, the number
// of label paths of each length between its nodes (PathCounts): the
// selectivity graph G_sel of a length window, the class walks over
// G_sel and the path draws. The paper's distance matrix D is not
// built; the counts already say which lengths connect two nodes.
//
// Concurrency contract: a SchemaGraph is immutable after
// NewSchemaGraph returns, and so are the PathCounts, SelectivityGraph
// and ClassWalks built from it. Their samplers only read; their
// randomness comes exclusively from the *rand.Rand the caller passes
// in. Concurrent use is therefore safe as long as each goroutine
// brings its own RNG — which is exactly how the query-generation
// pipeline's emission workers operate.
type SchemaGraph struct {
	Nodes []SelNode
	// Out[i] lists the labeled edges leaving node i.
	Out [][]SelEdge
	// succ[i][k] is Out[i][k].To: the successor lists the walk counts
	// and the weighted pick read.
	succ [][]int

	index map[SelNode]int
	// identity[t] is the node (t, Identity(kind(t))).
	identity []int
}

// NewSchemaGraph builds G_S for a schema.
func NewSchemaGraph(est *Estimator) *SchemaGraph {
	sg := &SchemaGraph{index: make(map[SelNode]int)}
	nTypes := est.NumTypes()

	// Enumerate the permitted (type, triple) pairs: for a growing type
	// the left kind may be 1 (only with <) or N (any operation); for a
	// fixed type only (1,=,1) and (N,>,1) are permitted.
	for t := 0; t < nTypes; t++ {
		k := est.Kind(t)
		var triples []Triple
		if k == Many {
			triples = append(triples, Triple{Left: One, O: OpLess, Right: Many})
			for op := Op(0); op < numOps; op++ {
				triples = append(triples, Triple{Left: Many, O: op, Right: Many})
			}
		} else {
			triples = append(triples,
				Triple{Left: One, O: OpEq, Right: One},
				Triple{Left: Many, O: OpGreater, Right: One},
			)
		}
		for _, tr := range triples {
			n := SelNode{Type: t, Triple: tr}
			sg.index[n] = len(sg.Nodes)
			sg.Nodes = append(sg.Nodes, n)
		}
	}

	// Edges: extending a path ending at (T, tr) with symbol a: T -> T'
	// moves to (T', tr . sel_{T,T'}(a)).
	sg.Out = make([][]SelEdge, len(sg.Nodes))
	sg.succ = make([][]int, len(sg.Nodes))
	for i, n := range sg.Nodes {
		for _, te := range est.TypeEdges(n.Type) {
			next := SelNode{Type: te.To, Triple: ConcatTriples(n.Triple, te.Base)}
			j, ok := sg.index[next]
			if !ok {
				// Clamping keeps triples inside the permitted set, so
				// every composition result is an enumerated node.
				continue
			}
			sg.Out[i] = append(sg.Out[i], SelEdge{Sym: te.Sym, To: j})
			sg.succ[i] = append(sg.succ[i], j)
		}
	}

	sg.identity = make([]int, nTypes)
	for t := 0; t < nTypes; t++ {
		sg.identity[t] = sg.index[SelNode{Type: t, Triple: Identity(est.Kind(t))}]
	}
	return sg
}

// IdentityNode returns the G_S node (T, (Type(T), =, Type(T))) for
// type t: the start of every selectivity walk.
func (sg *SchemaGraph) IdentityNode(t int) int { return sg.identity[t] }

// Alpha returns the selectivity value of the accumulated triple at
// node i.
func (sg *SchemaGraph) Alpha(i int) int { return sg.Nodes[i].Triple.Alpha() }

// ClassOf maps a node's alpha to the workload selectivity class.
func (sg *SchemaGraph) ClassOf(i int) query.SelectivityClass {
	switch sg.Alpha(i) {
	case 0:
		return query.Constant
	case 2:
		return query.Quadratic
	default:
		return query.Linear
	}
}

// countWalks returns nbw with nbw[l][v] the number of walks of l edges
// along adj from v that end at a target, for every l <= maxLen: the
// nb_path function of Section 5.2.4 over G_S's successor lists, the
// walk count over G_sel's. It is float-valued so long walks cannot
// overflow. Row l depends only on row l-1, so a table to a longer
// length starts with the table to every shorter one.
func countWalks(adj [][]int, isTarget func(int) bool, maxLen int) [][]float64 {
	n := len(adj)
	flat := make([]float64, (maxLen+1)*n)
	nbw := make([][]float64, maxLen+1)
	for l := range nbw {
		nbw[l] = flat[l*n : (l+1)*n : (l+1)*n]
	}
	for v := 0; v < n; v++ {
		if isTarget(v) {
			nbw[0][v] = 1
		}
	}
	for l := 1; l <= maxLen; l++ {
		for v := 0; v < n; v++ {
			var s float64
			for _, w := range adj[v] {
				s += nbw[l-1][w]
			}
			nbw[l][v] = s
		}
	}
	return nbw
}

// weightedPick draws the index k of one of cands with probability
// proportional to weight[cands[k]] (a walk count: never negative),
// skipping those of weight zero; false, without drawing, when every
// weight is zero. It consumes one Float64.
//
// Every walk and path draw takes its steps through it: when the
// current node's count in row l is nonzero, the pick over its
// successors weighted by row l-1 sums to that same count, so a step of
// a walk that exists always finds a successor.
func weightedPick(rng *rand.Rand, cands []int, weight []float64) (int, bool) {
	var total float64
	for _, c := range cands {
		total += weight[c]
	}
	if total == 0 {
		return -1, false
	}
	u := rng.Float64() * total
	pick, acc := -1, 0.0
	for k, c := range cands {
		w := weight[c]
		if w == 0 {
			continue
		}
		pick = k
		acc += w
		if u < acc {
			break
		}
	}
	return pick, true
}

// PathCounts holds the nb_path tables towards every target set the
// query generator samples a path to — one G_S node, all nodes of one
// type, or any node — up to one maximum path length. A table to length
// L starts with the table to every shorter length, so one set built
// for the widest window serves all narrower ones, and the tables to
// single nodes give every window's G_sel (Selectivity). It is
// immutable after construction and safe for concurrent use under the
// SchemaGraph contract. Memory: (|G_S| + types + 1) tables of
// (maxLen+1) x |G_S| float64.
type PathCounts struct {
	sg *SchemaGraph
	// ToNode[v] counts the paths ending at node v, ToType[t] those
	// ending at any node of type t, ToAny those ending anywhere; each
	// is indexed [length][from].
	ToNode [][][]float64
	ToType [][][]float64
	ToAny  [][]float64
}

// PathCounts builds the tables for paths of up to maxLen edges.
func (sg *SchemaGraph) PathCounts(maxLen int) *PathCounts {
	pc := &PathCounts{
		sg:     sg,
		ToNode: make([][][]float64, len(sg.Nodes)),
		ToType: make([][][]float64, len(sg.identity)),
		ToAny:  countWalks(sg.succ, func(int) bool { return true }, maxLen),
	}
	for v := range pc.ToNode {
		pc.ToNode[v] = countWalks(sg.succ, func(u int) bool { return u == v }, maxLen)
	}
	for t := range pc.ToType {
		pc.ToType[t] = countWalks(sg.succ, func(u int) bool { return sg.Nodes[u].Type == t }, maxLen)
	}
	return pc
}

// sample draws a label path from `from` to a target of the count table
// cnt with length in [lmin, lmax], uniformly among all such paths: the
// length proportionally to the number of paths of each length
// (cnt[0][from] is 1 exactly when `from` is itself a target), then one
// weighted edge per step. It returns the path and its end node; false
// when none exists. cnt must reach lmax.
func (pc *PathCounts) sample(rng *rand.Rand, from int, cnt [][]float64, lmin, lmax int) (regpath.Path, int, bool) {
	var total float64
	for l := lmin; l <= lmax; l++ {
		total += cnt[l][from]
	}
	if total == 0 {
		return nil, -1, false
	}
	u := rng.Float64() * total
	length := lmin
	acc := 0.0
	for l := lmin; l <= lmax; l++ {
		c := cnt[l][from]
		if c == 0 {
			continue
		}
		length = l
		acc += c
		if u < acc {
			break
		}
	}
	path := make(regpath.Path, 0, length)
	cur := from
	for l := length; l > 0; l-- {
		k, _ := weightedPick(rng, pc.sg.succ[cur], cnt[l-1])
		path = append(path, pc.sg.Out[cur][k].Sym)
		cur = pc.sg.succ[cur][k]
	}
	return path, cur, true
}

// SampleToNode draws a label path from `from` to the G_S node target
// with length in [lmin, lmax]; false when none exists.
func (pc *PathCounts) SampleToNode(rng *rand.Rand, from, target, lmin, lmax int) (regpath.Path, bool) {
	p, _, ok := pc.sample(rng, from, pc.ToNode[target], lmin, lmax)
	return p, ok
}

// SampleToType draws a label path from `from` to any node of type t
// with length in [lmin, lmax], returning the path and its end node;
// false when none exists.
func (pc *PathCounts) SampleToType(rng *rand.Rand, from, t, lmin, lmax int) (regpath.Path, int, bool) {
	return pc.sample(rng, from, pc.ToType[t], lmin, lmax)
}

// SampleToAny draws a label path from `from` to any node with length
// in [lmin, lmax], returning the path and its end node; false when
// none exists.
func (pc *PathCounts) SampleToAny(rng *rand.Rand, from, lmin, lmax int) (regpath.Path, int, bool) {
	return pc.sample(rng, from, pc.ToAny, lmin, lmax)
}

// SelectivityGraph is G_sel for a path-length window: an unlabeled
// graph over the G_S nodes with an edge i -> j whenever G_S has a path
// from i to j whose length lies in the window (Section 5.2.3(c)).
type SelectivityGraph struct {
	sg *SchemaGraph
	// Adj[i] lists the successors of node i in ascending order.
	Adj [][]int
}

// Selectivity builds G_sel for the window [lmin, lmax], reading the
// ToNode tables: i -> j iff ToNode[j][l][i] > 0 for some l in the
// window. lmax must not exceed the tables' maximum length.
func (pc *PathCounts) Selectivity(lmin, lmax int) *SelectivityGraph {
	adj := make([][]int, len(pc.sg.Nodes))
	for i := range adj {
		for j, cnt := range pc.ToNode {
			for l := lmin; l <= lmax; l++ {
				if cnt[l][i] > 0 {
					adj[i] = append(adj[i], j)
					break
				}
			}
		}
	}
	return &SelectivityGraph{sg: pc.sg, Adj: adj}
}

// ClassWalks is the walk-count table of one selectivity class over
// G_sel, built once up to a maximum walk length. It is immutable after
// construction and safe for concurrent use under the SchemaGraph
// contract. Memory: (maxSteps+1) x |G_S| float64.
type ClassWalks struct {
	gsel *SelectivityGraph
	nbw  [][]float64
}

// ClassWalks builds the table for walks of up to maxSteps edges ending
// in class.
func (gsel *SelectivityGraph) ClassWalks(class query.SelectivityClass, maxSteps int) *ClassWalks {
	sg := gsel.sg
	return &ClassWalks{gsel: gsel, nbw: countWalks(gsel.Adj, func(v int) bool { return sg.ClassOf(v) == class }, maxSteps)}
}

// Walk draws, uniformly at random among all candidates, a walk of
// exactly steps edges in G_sel that starts at an identity node and
// ends at a node of the table's class (Section 5.2.4): a start
// weighted by its count, then one successor per step weighted by its
// count in the row below. It returns the node sequence (steps+1 nodes),
// or false, without drawing, when no such walk exists. steps must not
// exceed the table's maximum.
func (cw *ClassWalks) Walk(rng *rand.Rand, steps int) ([]int, bool) {
	starts := cw.gsel.sg.identity
	k, ok := weightedPick(rng, starts, cw.nbw[steps])
	if !ok {
		return nil, false
	}
	cur := starts[k]
	walk := make([]int, 1, steps+1)
	walk[0] = cur
	for l := steps; l > 0; l-- {
		succ := cw.gsel.Adj[cur]
		k, _ = weightedPick(rng, succ, cw.nbw[l-1])
		cur = succ[k]
		walk = append(walk, cur)
	}
	return walk, true
}
