// Package graph implements directed edge-labeled graph instances with
// typed nodes, as generated by gMark (paper, Section 3.2).
//
// Nodes are dense integer ids allocated contiguously per node type.
// Edges carry a predicate (edge label). The package maintains
// per-predicate forward and backward adjacency in compressed sparse row
// (CSR) form, which the evaluator and the simulated engines share.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gmark/internal/bitset"
	"gmark/internal/fanout"
)

// NodeID identifies a node. IDs are dense in [0, NumNodes).
type NodeID = int32

// PredID identifies a predicate (edge label) in the graph's dictionary.
type PredID = int32

// Edge is one labeled edge.
type Edge struct {
	Src  NodeID
	Pred PredID
	Dst  NodeID
}

// Graph is an immutable-after-Freeze directed edge-labeled graph.
type Graph struct {
	typeNames []string
	predNames []string

	// typeOffset[t] is the first node id of type t; nodes of type t are
	// [typeOffset[t], typeOffset[t+1]). len == len(typeNames)+1.
	typeOffset []int32

	// Per-predicate edge lists, only valid until Freeze.
	srcs [][]int32
	dsts [][]int32

	// CSR adjacency, built by Freeze.
	fwd    []csr // fwd[p]: out-neighbors by predicate p
	bwd    []csr // bwd[p]: in-neighbors by predicate p
	frozen bool

	numEdges int
}

// csr is one compressed adjacency: neighbors of node v are
// adj[off[v]:off[v+1]], sorted ascending.
type csr struct {
	off []int32
	adj []int32
}

// New creates an empty graph with the given node-type layout and
// predicate dictionary. typeCounts[i] is the number of nodes of type
// typeNames[i].
func New(typeNames []string, typeCounts []int, predNames []string) (*Graph, error) {
	if len(typeNames) != len(typeCounts) {
		return nil, fmt.Errorf("graph: %d type names but %d counts", len(typeNames), len(typeCounts))
	}
	g := &Graph{
		typeNames:  append([]string(nil), typeNames...),
		predNames:  append([]string(nil), predNames...),
		typeOffset: make([]int32, len(typeNames)+1),
		srcs:       make([][]int32, len(predNames)),
		dsts:       make([][]int32, len(predNames)),
	}
	var off int32
	for i, c := range typeCounts {
		if c < 0 {
			return nil, fmt.Errorf("graph: negative count for type %q", typeNames[i])
		}
		if c > math.MaxInt32-int(off) {
			return nil, fmt.Errorf("graph: type %q count %d overflows the int32 node ids after %d nodes", typeNames[i], c, off)
		}
		g.typeOffset[i] = off
		off += int32(c)
	}
	g.typeOffset[len(typeCounts)] = off
	return g, nil
}

// NumNodes returns the total number of nodes.
func (g *Graph) NumNodes() int { return int(g.typeOffset[len(g.typeOffset)-1]) }

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumTypes returns the number of node types.
func (g *Graph) NumTypes() int { return len(g.typeNames) }

// NumPredicates returns the size of the predicate dictionary.
func (g *Graph) NumPredicates() int { return len(g.predNames) }

// TypeName returns the name of type t.
func (g *Graph) TypeName(t int) string { return g.typeNames[t] }

// PredName returns the name of predicate p.
func (g *Graph) PredName(p PredID) string { return g.predNames[p] }

// PredIndex returns the id of the named predicate, or -1.
func (g *Graph) PredIndex(name string) PredID {
	for i, n := range g.predNames {
		if n == name {
			return PredID(i)
		}
	}
	return -1
}

// TypeIndex returns the index of the named type, or -1.
func (g *Graph) TypeIndex(name string) int {
	for i, n := range g.typeNames {
		if n == name {
			return i
		}
	}
	return -1
}

// TypeCount returns the number of nodes of type t.
func (g *Graph) TypeCount(t int) int {
	return int(g.typeOffset[t+1] - g.typeOffset[t])
}

// TypeRange returns the node id interval [lo, hi) of type t.
func (g *Graph) TypeRange(t int) (lo, hi NodeID) {
	return g.typeOffset[t], g.typeOffset[t+1]
}

// TypeOf returns the type of node v by binary search over the offsets.
func (g *Graph) TypeOf(v NodeID) int {
	i := sort.Search(len(g.typeOffset)-1, func(i int) bool { return g.typeOffset[i+1] > v })
	return i
}

// AddEdge appends one edge. It must not be called after Freeze.
func (g *Graph) AddEdge(src NodeID, pred PredID, dst NodeID) {
	if g.frozen {
		panic("graph: AddEdge after Freeze")
	}
	g.srcs[pred] = append(g.srcs[pred], src)
	g.dsts[pred] = append(g.dsts[pred], dst)
	g.numEdges++
}

// AddEdgeBatch appends a batch of equally-labeled edges: edge i is
// (srcs[i], pred, dsts[i]). Batches are how the generation pipeline's
// per-constraint shards land in the graph; appending a batch costs two
// bulk copies instead of len(srcs) calls. A batch whose columns differ
// in length, whose predicate lies outside the graph or that names a node
// id outside [0, NumNodes) is refused whole, before anything is
// appended. It must not be called after Freeze.
func (g *Graph) AddEdgeBatch(pred PredID, srcs, dsts []NodeID) error {
	if g.frozen {
		panic("graph: AddEdgeBatch after Freeze")
	}
	if len(srcs) != len(dsts) {
		return fmt.Errorf("graph: batch length mismatch: %d sources, %d targets", len(srcs), len(dsts))
	}
	if pred < 0 || int(pred) >= len(g.predNames) {
		return fmt.Errorf("graph: predicate %d outside the graph's %d predicates", pred, len(g.predNames))
	}
	n := g.NumNodes()
	for _, ids := range [2][]NodeID{srcs, dsts} {
		for _, id := range ids {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("graph: node id %d outside [0, %d)", id, n)
			}
		}
	}
	g.srcs[pred] = append(g.srcs[pred], srcs...)
	g.dsts[pred] = append(g.dsts[pred], dsts...)
	g.numEdges += len(srcs)
	return nil
}

// Freeze builds the CSR adjacency structures in parallel across the
// available cores, one task per (predicate, direction) on fanout.Each
// (the edge lists are never mutated after the generation pipeline
// drains, so the builds are independent). Each task is the sort-free
// counting build of buildCSRSequential, so every adjacency list comes
// out sorted whatever the worker count. After Freeze the graph is
// immutable and safe for concurrent reads.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	n := g.NumNodes()
	nPred := len(g.predNames)
	g.fwd = make([]csr, nPred)
	g.bwd = make([]csr, nPred)

	type task struct {
		p   int
		fwd bool
	}
	tasks := make([]task, 0, 2*nPred)
	for p := 0; p < nPred; p++ {
		tasks = append(tasks, task{p, true}, task{p, false})
	}
	// A predicate's raw edge arrays are released as soon as both its
	// direction builds finish — not after the whole Freeze — so peak
	// memory stays one predicate's raw arrays plus the finished CSRs,
	// not raw-everything plus CSR-everything.
	pending := make([]int32, nPred)
	for p := range pending {
		pending[p] = 2
	}
	fanout.Each(len(tasks), runtime.GOMAXPROCS(0), func(_, i int, _ *atomic.Bool) error {
		t := tasks[i]
		if t.fwd {
			g.fwd[t.p] = buildCSRSequential(n, 0, []Part{{Keys: g.srcs[t.p], Vals: g.dsts[t.p]}})
		} else {
			g.bwd[t.p] = buildCSRSequential(n, 0, []Part{{Keys: g.dsts[t.p], Vals: g.srcs[t.p]}})
		}
		if atomic.AddInt32(&pending[t.p], -1) == 0 {
			g.srcs[t.p], g.dsts[t.p] = nil, nil
		}
		return nil
	})
	g.frozen = true
}

// Part is one piece of an edge list, as two columns: edge i of the
// part is (Keys[i], Vals[i]), Keys[i] the node whose list Vals[i]
// joins. An edge list split into parts builds, through
// BuildAdjacencyParts, exactly the CSR of the concatenation, without
// the concatenation ever existing.
type Part struct {
	Keys, Vals []int32
}

// buildCSRSequential builds one compressed adjacency on the calling
// goroutine over the lists of nodes lo..lo+n-1, from the edges of
// every part (keys in [lo, lo+n)). Whenever the neighbour ids span no
// more than n + E values — the sizes of the offset and adjacency
// arrays the build returns anyway, so the scratch never outgrows the
// result — it sorts without comparisons: a counting scatter of the
// owners by neighbour, then one transposition that visits neighbours
// in ascending order, so every list comes out sorted (see
// sortedLists). Freeze's builds always qualify (neighbours are ids
// below n); a spill unit whose few edges reach a wide id range does
// not, and sorts each list instead.
func buildCSRSequential(n int, lo NodeID, parts []Part) csr {
	off := make([]int32, n+1)
	edges := 0
	vLo, vHi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, p := range parts {
		vals := p.Vals[:len(p.Keys)]
		for i, k := range p.Keys {
			off[k-lo+1]++
			vLo, vHi = min(vLo, vals[i]), max(vHi, vals[i])
		}
		edges += len(p.Keys)
	}
	adj := make([]int32, edges)
	if edges == 0 {
		return csr{off: off, adj: adj}
	}
	shiftStarts(off)
	if span := int(vHi) - int(vLo) + 1; span <= n+edges {
		sc := csrScratchPool.Get().(*csrScratch)
		starts := resize(sc.starts, span+1)
		clear(starts)
		for _, p := range parts {
			for _, v := range p.Vals {
				starts[v-vLo+1]++
			}
		}
		shiftStarts(starts)
		sc.bucket = resize(sc.bucket, edges)
		sortedLists(parts, lo, vLo, off, starts, sc.bucket, adj)
		sc.starts = starts
		csrScratchPool.Put(sc)
		return csr{off: off, adj: adj}
	}
	for _, p := range parts {
		scatter(p.Keys, p.Vals, lo, off, adj)
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	return csr{off: off, adj: adj}
}

// csrScratch is the working memory of one counting build, pooled
// because every spill flush unit and every Freeze build needs one:
// the neighbours' list starts (span+1 entries) and the owners
// bucketed by neighbour (one per edge).
type csrScratch struct {
	starts, bucket []int32
}

var csrScratchPool = sync.Pool{New: func() any { return new(csrScratch) }}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// shiftStarts turns per-id list lengths (off[k+1] holds the length of
// id k's list) into list starts shifted one slot right (off[k+1] is
// where k's list begins). It is the cursor form scatter and transpose
// write through: advancing off[k+1] past each entry placed in list k
// leaves off as the final offsets, off[k+1] the end of list k.
func shiftStarts(off []int32) {
	var sum int32
	for k := 1; k < len(off); k++ {
		off[k], sum = sum, sum+off[k]
	}
}

// scatter places vals[i] in the list of id keys[i]-keyLo, in input
// order, advancing the shifted starts (see shiftStarts) into offsets.
func scatter(keys, vals []int32, keyLo int32, starts, out []int32) {
	for i, k := range keys {
		j := k - keyLo + 1
		out[starts[j]] = vals[i]
		starts[j]++
	}
}

// transpose turns the lists of ids lo+k, lists[off[k]:off[k+1]], into
// the reverse lists: every x in list k puts lo+k in the list of
// x-outLo, through out's shifted starts (see shiftStarts). Lists are
// visited in ascending k, so every output list comes out sorted.
func transpose(off, lists []int32, lo int32, outStarts, out []int32, outLo int32) {
	for k := 0; k+1 < len(off); k++ {
		id := lo + int32(k)
		for _, x := range lists[off[k]:off[k+1]] {
			j := x - outLo + 1
			out[outStarts[j]] = id
			outStarts[j]++
		}
	}
}

// sortedLists is the comparison-free core of both sequential builders:
// a counting scatter of every part's owners Keys[i] into byVal by
// neighbour Vals[i], then one transposition of those buckets into adj,
// which leaves every owner's neighbour list sorted. keyStarts and
// valStarts are each side's shifted list starts over ids from keyLo and
// valLo; both end as final offsets, valStarts indexing byVal (the
// owners of each neighbour in part order) and keyStarts indexing adj.
func sortedLists(parts []Part, keyLo, valLo int32, keyStarts, valStarts, byVal, adj []int32) {
	for _, p := range parts {
		scatter(p.Vals, p.Keys, valLo, valStarts, byVal)
	}
	transpose(valStarts, byVal, valLo, keyStarts, adj, keyLo)
}

// BuildAdjacency builds one direction's CSR arrays for an edge list
// outside a Graph: neighbors of node v under the returned layout are
// adj[off[v]:off[v+1]], sorted ascending. It is the one-part case of
// BuildAdjacencyParts, on the calling goroutine. workers is unused:
// cmd/gmark-perf still passes it, until the next benchmark change
// drops it.
func BuildAdjacency(n int, from, to []int32, workers int) (off, adj []int32) {
	return BuildAdjacencyParts(n, 0, []Part{{Keys: from, Vals: to}})
}

// BuildAdjacencyParts builds, on the calling goroutine, the CSR of the
// nodes lo..lo+n-1 from an edge list given in parts, every key in
// [lo, lo+n): node lo+k's neighbours are adj[off[k]:off[k+1]], sorted
// ascending with duplicates kept, so off[0] == 0 whatever lo is. The
// result equals BuildAdjacency's over the concatenated parts with lo
// subtracted from every key; no part is copied or modified. The CSR
// spill sink builds each shard this way from a unit's decoded run and
// its buffered cells.
func BuildAdjacencyParts(n int, lo NodeID, parts []Part) (off, adj []int32) {
	c := buildCSRSequential(n, lo, parts)
	return c.off, c.adj
}

// AdjacencyPair is both directions' CSR of one edge list, each over
// its own side's id interval: out-neighbors of source v are
// FwdAdj[FwdOff[v-FwdLo]:FwdOff[v-FwdLo+1]], in-neighbors of target v
// are BwdAdj[BwdOff[v-BwdLo]:BwdOff[v-BwdLo+1]], every list sorted
// ascending with duplicates kept. An offset slice has one entry per id
// in [min, max] of its side plus one; an empty edge list gives
// single-entry offsets at Lo 0.
type AdjacencyPair struct {
	FwdLo, BwdLo   NodeID
	FwdOff, FwdAdj []int32
	BwdOff, BwdAdj []int32
}

// BuildAdjacencyPair builds both directions' CSR of the edge list
// (srcs[i], dsts[i]) without a comparison sort, by double
// transposition: sortedLists scatters the sources by target and
// transposes those buckets into forward lists already sorted; one more
// transposition of the forward lists yields sorted backward lists.
// Five linear passes — bounds, counts, scatter, two transposes — and
// the lists equal BuildAdjacency's exactly. The slice server's
// per-predicate cut index is its caller.
func BuildAdjacencyPair(srcs, dsts []NodeID) AdjacencyPair {
	var p AdjacencyPair
	if len(srcs) == 0 {
		p.FwdOff, p.BwdOff = []int32{0}, []int32{0}
		return p
	}
	sLo, sHi := srcs[0], srcs[0]
	dLo, dHi := dsts[0], dsts[0]
	for i, s := range srcs {
		sLo, sHi = min(sLo, s), max(sHi, s)
		d := dsts[i]
		dLo, dHi = min(dLo, d), max(dHi, d)
	}
	p.FwdLo, p.BwdLo = sLo, dLo
	p.FwdOff = make([]int32, int(sHi)-int(sLo)+2)
	p.BwdOff = make([]int32, int(dHi)-int(dLo)+2)
	for i, s := range srcs {
		p.FwdOff[s-sLo+1]++
		p.BwdOff[dsts[i]-dLo+1]++
	}
	shiftStarts(p.FwdOff)
	shiftStarts(p.BwdOff)
	byDst := make([]int32, len(srcs))
	p.FwdAdj = make([]int32, len(srcs))
	sortedLists([]Part{{Keys: srcs, Vals: dsts}}, sLo, dLo, p.FwdOff, p.BwdOff, byDst, p.FwdAdj)
	// Backward lists, sorted: sources arrive in ascending order. The
	// emission-order lists are no longer needed, so their array is
	// reused, and the backward offsets shift back into starts.
	p.BwdAdj = byDst
	copy(p.BwdOff[1:], p.BwdOff)
	transpose(p.FwdOff, p.FwdAdj, sLo, p.BwdOff, p.BwdAdj, dLo)
	return p
}

// Out returns the out-neighbors of v under predicate p. The returned
// slice is shared; callers must not modify it.
func (g *Graph) Out(v NodeID, p PredID) []int32 {
	if !g.frozen {
		panic("graph: Out before Freeze")
	}
	c := g.fwd[p]
	return c.adj[c.off[v]:c.off[v+1]]
}

// In returns the in-neighbors of v under predicate p.
func (g *Graph) In(v NodeID, p PredID) []int32 {
	if !g.frozen {
		panic("graph: In before Freeze")
	}
	c := g.bwd[p]
	return c.adj[c.off[v]:c.off[v+1]]
}

// Adjacency returns the frozen CSR arrays of predicate p in one
// direction: neighbors of node v are adj[off[v]:off[v+1]], sorted
// ascending. The slices are shared with the graph and must be treated
// as read-only; the CSR spill writer uses this to serialize an
// already-frozen instance without rebuilding its adjacency.
func (g *Graph) Adjacency(p PredID, inverse bool) (off, adj []int32) {
	if !g.frozen {
		panic("graph: Adjacency before Freeze")
	}
	c := g.fwd[p]
	if inverse {
		c = g.bwd[p]
	}
	return c.off, c.adj
}

// Neighbors returns the neighbors of v under p, forward or backward.
func (g *Graph) Neighbors(v NodeID, p PredID, inverse bool) []int32 {
	if inverse {
		return g.In(v, p)
	}
	return g.Out(v, p)
}

// ActiveDomain returns the nodes with at least one outgoing (inverse
// false) or incoming (inverse true) edge labeled p, read off the frozen
// CSR offsets: v is a member iff off[v+1] > off[v]. Each call builds a
// fresh set; the error is always nil.
func (g *Graph) ActiveDomain(p PredID, inverse bool) (*bitset.Set, error) {
	off, _ := g.Adjacency(p, inverse)
	dom := bitset.New(g.NumNodes())
	for v := range int32(g.NumNodes()) {
		if off[v+1] > off[v] {
			dom.Add(v)
		}
	}
	return dom, nil
}

// OutDegree returns |Out(v, p)|.
func (g *Graph) OutDegree(v NodeID, p PredID) int {
	c := g.fwd[p]
	return int(c.off[v+1] - c.off[v])
}

// InDegree returns |In(v, p)|.
func (g *Graph) InDegree(v NodeID, p PredID) int {
	c := g.bwd[p]
	return int(c.off[v+1] - c.off[v])
}

// PredEdgeCount returns the number of edges labeled p.
func (g *Graph) PredEdgeCount(p PredID) int {
	if g.frozen {
		return len(g.fwd[p].adj)
	}
	return len(g.srcs[p])
}

// Edges calls fn for every edge, grouped by predicate and ordered by
// source. The graph must be frozen.
func (g *Graph) Edges(fn func(Edge)) {
	if !g.frozen {
		panic("graph: Edges before Freeze")
	}
	for p := range g.predNames {
		c := g.fwd[p]
		for v := 0; v < g.NumNodes(); v++ {
			for _, w := range c.adj[c.off[v]:c.off[v+1]] {
				fn(Edge{Src: int32(v), Pred: int32(p), Dst: w})
			}
		}
	}
}

// HasEdge reports whether the edge (src, p, dst) exists, by binary
// search over the sorted neighbor list.
func (g *Graph) HasEdge(src NodeID, p PredID, dst NodeID) bool {
	adj := g.Out(src, p)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= dst })
	return i < len(adj) && adj[i] == dst
}

// DegreeStats summarizes the in- or out-degree of one (type, predicate)
// pair; the quality tests compare these against the configured
// distributions.
type DegreeStats struct {
	Count    int     // number of nodes considered
	NonZero  int     // nodes with degree > 0
	Mean     float64 // mean degree over all nodes considered
	Max      int
	Degrees  []int // raw degrees (index-aligned with the type's nodes)
	EdgeSum  int
	TypeName string
}

// OutDegreeStats computes out-degree statistics of predicate p over the
// nodes of type t.
func (g *Graph) OutDegreeStats(t int, p PredID) DegreeStats {
	return g.degreeStats(t, p, false)
}

// InDegreeStats computes in-degree statistics of predicate p over the
// nodes of type t.
func (g *Graph) InDegreeStats(t int, p PredID) DegreeStats {
	return g.degreeStats(t, p, true)
}

func (g *Graph) degreeStats(t int, p PredID, inverse bool) DegreeStats {
	lo, hi := g.TypeRange(t)
	s := DegreeStats{TypeName: g.typeNames[t], Count: int(hi - lo)}
	s.Degrees = make([]int, 0, s.Count)
	for v := lo; v < hi; v++ {
		var d int
		if inverse {
			d = g.InDegree(v, p)
		} else {
			d = g.OutDegree(v, p)
		}
		s.Degrees = append(s.Degrees, d)
		s.EdgeSum += d
		if d > 0 {
			s.NonZero++
		}
		if d > s.Max {
			s.Max = d
		}
	}
	if s.Count > 0 {
		s.Mean = float64(s.EdgeSum) / float64(s.Count)
	}
	return s
}
