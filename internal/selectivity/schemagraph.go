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

// SchemaGraph bundles the three data structures of Section 5.2.3: the
// schema graph G_S, the all-pairs distance matrix D over its nodes,
// and, per workload length interval, the selectivity graph G_sel.
//
// Concurrency contract: a SchemaGraph is immutable after
// NewSchemaGraph returns. All sampling methods (SamplePathTo,
// CountPathsTo, Selectivity, and the PathCounts samplers) only read
// the graph; their randomness comes exclusively from the
// *rand.Rand the caller passes in. Concurrent use is therefore safe as
// long as each goroutine brings its own RNG — which is exactly how the
// query-generation pipeline's emission workers operate. The same
// holds for SelectivityGraph and its Walk methods.
type SchemaGraph struct {
	est   *Estimator
	Nodes []SelNode
	// Out[i] lists the labeled edges leaving node i.
	Out [][]SelEdge
	// Dist[i][j] is the shortest-path length from i to j in G_S, or -1.
	Dist [][]int

	index map[SelNode]int
	// identity[t] is the node (t, Identity(kind(t))).
	identity []int
}

// NewSchemaGraph builds G_S and the distance matrix for a schema.
func NewSchemaGraph(est *Estimator) *SchemaGraph {
	sg := &SchemaGraph{est: est, index: make(map[SelNode]int)}
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
		}
	}

	sg.identity = make([]int, nTypes)
	for t := 0; t < nTypes; t++ {
		sg.identity[t] = sg.index[SelNode{Type: t, Triple: Identity(est.Kind(t))}]
	}

	sg.Dist = allPairsBFS(sg.Out, len(sg.Nodes))
	return sg
}

// allPairsBFS computes the distance matrix D (Section 5.2.3(b)).
func allPairsBFS(out [][]SelEdge, n int) [][]int {
	d := make([][]int, n)
	for s := 0; s < n; s++ {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range out[v] {
				if row[e.To] < 0 {
					row[e.To] = row[v] + 1
					queue = append(queue, e.To)
				}
			}
		}
		d[s] = row
	}
	return d
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

// SelectivityGraph is G_sel for a given path-length interval: an
// unlabeled graph over the G_S nodes with an edge i -> j whenever G_S
// has a path from i to j of length within [lmin, lmax]
// (Section 5.2.3(c)).
type SelectivityGraph struct {
	sg         *SchemaGraph
	LMin, LMax int
	// Adj[i] lists successors of node i.
	Adj [][]int
}

// Selectivity builds G_sel for the interval [lmin, lmax].
func (sg *SchemaGraph) Selectivity(lmin, lmax int) *SelectivityGraph {
	n := len(sg.Nodes)
	gsel := &SelectivityGraph{sg: sg, LMin: lmin, LMax: lmax, Adj: make([][]int, n)}
	for s := 0; s < n; s++ {
		// reach[v] true if v reachable at the current length.
		reach := make([]bool, n)
		reach[s] = true
		marked := make([]bool, n)
		for l := 0; l <= lmax; l++ {
			if l >= lmin {
				for v := 0; v < n; v++ {
					if reach[v] {
						marked[v] = true
					}
				}
			}
			if l == lmax {
				break
			}
			next := make([]bool, n)
			for v := 0; v < n; v++ {
				if !reach[v] {
					continue
				}
				for _, e := range sg.Out[v] {
					next[e.To] = true
				}
			}
			reach = next
		}
		for v := 0; v < n; v++ {
			if marked[v] {
				gsel.Adj[s] = append(gsel.Adj[s], v)
			}
		}
	}
	return gsel
}

// WalkToClass draws, uniformly at random among all candidates, a walk
// of exactly steps edges in G_sel that starts at an identity node and
// ends at a node of the requested selectivity class (Section 5.2.4).
// It returns the node sequence (steps+1 nodes) or false when no such
// walk exists. It builds the walk-count table for this one call;
// ClassWalks builds it once for many.
func (gsel *SelectivityGraph) WalkToClass(rng *rand.Rand, steps int, class query.SelectivityClass) ([]int, bool) {
	return gsel.Walk(rng, steps, gsel.sg.identity, gsel.inClass(class))
}

// inClass is the target predicate of a class walk.
func (gsel *SelectivityGraph) inClass(class query.SelectivityClass) func(int) bool {
	return func(v int) bool { return gsel.sg.ClassOf(v) == class }
}

// Walk draws, uniformly at random among all candidates, a walk of
// exactly steps edges in G_sel starting at one of the given start
// nodes and ending at a node satisfying isTarget. The draw is weighted
// by the walk-count saturation algorithm of Section 5.2.4.
func (gsel *SelectivityGraph) Walk(rng *rand.Rand, steps int, startCandidates []int, isTarget func(int) bool) ([]int, bool) {
	return gsel.drawWalk(rng, gsel.walkCounts(isTarget, steps), steps, startCandidates)
}

// walkCounts returns nbw with nbw[i][v] the number of walks of i edges
// from v ending in a target, for i <= steps. Row i depends only on the
// rows below it, so a table to a longer length contains every shorter
// one.
func (gsel *SelectivityGraph) walkCounts(isTarget func(int) bool, steps int) [][]float64 {
	n := len(gsel.sg.Nodes)
	flat := make([]float64, (steps+1)*n)
	nbw := make([][]float64, steps+1)
	for i := range nbw {
		nbw[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for v := 0; v < n; v++ {
		if isTarget(v) {
			nbw[0][v] = 1
		}
	}
	for i := 1; i <= steps; i++ {
		for v := 0; v < n; v++ {
			var s float64
			for _, w := range gsel.Adj[v] {
				s += nbw[i-1][w]
			}
			nbw[i][v] = s
		}
	}
	return nbw
}

// drawWalk draws a walk of exactly steps edges from a walk-count table
// reaching at least steps: a start among starts, then one successor per
// step, each weighted by its count. It reads the table only.
func (gsel *SelectivityGraph) drawWalk(rng *rand.Rand, nbw [][]float64, steps int, starts []int) ([]int, bool) {
	cur, ok := weightedPick(rng, starts, nbw[steps])
	if !ok {
		return nil, false
	}
	walk := make([]int, 1, steps+1)
	walk[0] = cur
	for i := steps; i > 0; i-- {
		if cur, ok = weightedPick(rng, gsel.Adj[cur], nbw[i-1]); !ok {
			return nil, false
		}
		walk = append(walk, cur)
	}
	return walk, true
}

// weightedPick draws one of cands with probability proportional to
// weight[c] (a walk count: never negative), skipping those of weight
// zero; false, without drawing, when every weight is zero. It consumes
// one Float64.
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
	for _, c := range cands {
		w := weight[c]
		if w == 0 {
			continue
		}
		pick = c
		acc += w
		if u < acc {
			break
		}
	}
	return pick, true
}

// ClassWalks is WalkToClass's walk-count table for one selectivity
// class, built once up to a maximum walk length. It is immutable after
// construction and safe for concurrent use under the SchemaGraph
// contract. Memory: (maxSteps+1) x |G_S| float64.
type ClassWalks struct {
	gsel  *SelectivityGraph
	class query.SelectivityClass
	nbw   [][]float64
}

// ClassWalks builds the table for walks of up to maxSteps edges ending
// in class.
func (gsel *SelectivityGraph) ClassWalks(class query.SelectivityClass, maxSteps int) *ClassWalks {
	return &ClassWalks{gsel: gsel, class: class, nbw: gsel.walkCounts(gsel.inClass(class), maxSteps)}
}

// Walk is WalkToClass(rng, steps, class) drawn from the prebuilt table:
// the same walk and the same RNG consumption. A walk longer than the
// table falls back to WalkToClass.
func (cw *ClassWalks) Walk(rng *rand.Rand, steps int) ([]int, bool) {
	if steps >= len(cw.nbw) {
		return cw.gsel.WalkToClass(rng, steps, cw.class)
	}
	return cw.gsel.drawWalk(rng, cw.nbw, steps, cw.gsel.sg.identity)
}

// CountPathsTo computes, for every length l <= maxLen and every G_S
// node v, the number of label paths of length l from v ending in a
// node satisfying isTarget (the nb_path function of Section 5.2.4,
// float-valued to avoid overflow on long paths).
func (sg *SchemaGraph) CountPathsTo(isTarget func(int) bool, maxLen int) [][]float64 {
	n := len(sg.Nodes)
	cnt := make([][]float64, maxLen+1)
	cnt[0] = make([]float64, n)
	for v := 0; v < n; v++ {
		if isTarget(v) {
			cnt[0][v] = 1
		}
	}
	for l := 1; l <= maxLen; l++ {
		cnt[l] = make([]float64, n)
		for v := 0; v < n; v++ {
			var s float64
			for _, e := range sg.Out[v] {
				s += cnt[l-1][e.To]
			}
			cnt[l][v] = s
		}
	}
	return cnt
}

// SamplePathTo draws a uniform random label path of exactly length
// edges starting at `from`, weighted by a count table from
// CountPathsTo. It returns the path and the end node, or false when no
// such path exists.
func (sg *SchemaGraph) SamplePathTo(rng *rand.Rand, from, length int, cnt [][]float64) (regpath.Path, int, bool) {
	if cnt[length][from] == 0 {
		return nil, -1, false
	}
	path := make(regpath.Path, 0, length)
	cur := from
	for l := length; l > 0; l-- {
		// One weighted draw among the edges that still reach a target
		// in l-1 steps: sum their counts, then take the first whose
		// running sum passes the drawn point.
		var total float64
		for _, e := range sg.Out[cur] {
			total += cnt[l-1][e.To]
		}
		if total == 0 {
			return nil, -1, false
		}
		u := rng.Float64() * total
		var pick SelEdge
		acc := 0.0
		for _, e := range sg.Out[cur] {
			c := cnt[l-1][e.To]
			if c == 0 {
				continue
			}
			pick = e
			acc += c
			if u < acc {
				break
			}
		}
		path = append(path, pick.Sym)
		cur = pick.To
	}
	return path, cur, true
}

// samplePathWithin draws a label path from `from` to a target of the
// count table cnt with length in [lmin, lmax], choosing the length
// proportionally to the number of available paths of each length
// (cnt[0][from] is 1 exactly when `from` is itself a target); false
// when none exists. cnt must reach lmax.
func (sg *SchemaGraph) samplePathWithin(rng *rand.Rand, from int, cnt [][]float64, lmin, lmax int) (regpath.Path, int, bool) {
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
	if length == 0 {
		return regpath.Path{}, from, true
	}
	return sg.SamplePathTo(rng, from, length, cnt)
}

// PathCounts holds the nb_path tables (CountPathsTo) towards every
// target set the query generator samples a path to — one G_S node, all
// nodes of one type, or any node — up to one maximum path length. A
// table to length L contains the table to every shorter length, so one
// set built for the widest window serves all narrower ones. It is
// immutable after construction and safe for concurrent use under the
// SchemaGraph contract. Memory: (|G_S| + types + 1) tables of
// (maxLen+1) x |G_S| float64.
type PathCounts struct {
	sg *SchemaGraph
	// ToNode[v] counts the paths ending at node v, ToType[t] those
	// ending at any node of type t, ToAny those ending anywhere; each
	// is indexed [length][from] like CountPathsTo's result.
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
		ToAny:  sg.CountPathsTo(func(int) bool { return true }, maxLen),
	}
	for v := range pc.ToNode {
		pc.ToNode[v] = sg.CountPathsTo(func(u int) bool { return u == v }, maxLen)
	}
	for t := range pc.ToType {
		pc.ToType[t] = sg.CountPathsTo(func(u int) bool { return sg.Nodes[u].Type == t }, maxLen)
	}
	return pc
}

// SampleToNode draws a label path from `from` to the G_S node target
// with length in [lmin, lmax]; false when none exists.
func (pc *PathCounts) SampleToNode(rng *rand.Rand, from, target, lmin, lmax int) (regpath.Path, bool) {
	p, _, ok := pc.sg.samplePathWithin(rng, from, pc.ToNode[target], lmin, lmax)
	return p, ok
}

// SampleToType draws a label path from `from` to any node of type t
// with length in [lmin, lmax], returning the path and its end node;
// false when none exists.
func (pc *PathCounts) SampleToType(rng *rand.Rand, from, t, lmin, lmax int) (regpath.Path, int, bool) {
	return pc.sg.samplePathWithin(rng, from, pc.ToType[t], lmin, lmax)
}

// SampleToAny draws a label path from `from` to any node with length
// in [lmin, lmax], returning the path and its end node; false when
// none exists.
func (pc *PathCounts) SampleToAny(rng *rand.Rand, from, lmin, lmax int) (regpath.Path, int, bool) {
	return pc.sg.samplePathWithin(rng, from, pc.ToAny, lmin, lmax)
}
