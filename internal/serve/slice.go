package serve

import (
	"fmt"
	"net/http"
	"sync"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/translate"
)

// columns holds one predicate's edges in emission order: the sink an
// emission fills, then the columns cache's entry every slice of the
// predicate is cut from. The pipeline delivers the same sequence for a
// given (config, seed) at any parallelism, so the collected pairs are
// deterministic. srcs and dsts are immutable once the emission
// returns; the fields behind mu track the cut index.
type columns struct {
	srcs []graph.NodeID
	dsts []graph.NodeID

	mu       sync.Mutex
	cuts     int       // slices cut so far
	idxBytes int64     // the index's price, once computed
	idx      *cutIndex // nil until built
}

// AddEdge implements graphgen.EdgeSink.
func (c *columns) AddEdge(src graph.NodeID, pred graph.PredID, dst graph.NodeID) error {
	c.srcs = append(c.srcs, src)
	c.dsts = append(c.dsts, dst)
	return nil
}

// AddEdgeBatch implements graphgen.BatchEdgeSink.
func (c *columns) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	c.srcs = append(c.srcs, srcs...)
	c.dsts = append(c.dsts, dsts...)
	return nil
}

// Flush implements graphgen.EdgeSink.
func (c *columns) Flush() error { return nil }

// cutIndex rearranges one predicate's columns so that a slice is cut
// in O(slice) instead of O(predicate): both directions' sorted CSR,
// and perm, the edge indices stably bucketed by source range. A
// range's bucket is perm[fwd(lo):fwd(hi)], where fwd(v) is the forward
// offset of node v — the number of edges whose source is below v — so
// the buckets need no offsets of their own.
type cutIndex struct {
	adj  graph.AdjacencyPair
	perm []int32
}

// indexBytes is what col's cut index costs the columns' share: two
// offset arrays over the id intervals of each side, two adjacency
// arrays and perm, 4 bytes an entry.
func indexBytes(col *columns) int64 {
	if len(col.srcs) == 0 {
		return 8
	}
	span := func(ids []graph.NodeID) int64 {
		lo, hi := ids[0], ids[0]
		for _, v := range ids {
			lo, hi = min(lo, v), max(hi, v)
		}
		return int64(hi) - int64(lo) + 2
	}
	return 4 * (span(col.srcs) + span(col.dsts) + 3*int64(len(col.srcs)))
}

// buildCutIndex builds col's index for ranges shardNodes wide.
func buildCutIndex(col *columns, shardNodes int) *cutIndex {
	x := &cutIndex{adj: graph.BuildAdjacencyPair(col.srcs, col.dsts)}
	x.perm = make([]int32, len(col.srcs))
	if len(col.srcs) == 0 {
		return x
	}
	// One cursor per range the sources touch, starting at its bucket.
	hi := int(x.adj.FwdLo) + len(x.adj.FwdOff) - 2
	first := int(x.adj.FwdLo) / shardNodes
	cursor := make([]int32, hi/shardNodes-first+1)
	for r := range cursor {
		cursor[r] = offsetAt(x.adj.FwdOff, x.adj.FwdLo, (first+r)*shardNodes)
	}
	// A width past the highest source puts every source in range 0,
	// so the divisor can be narrowed to 32 bits, the cheaper division.
	width := uint32(min(shardNodes, hi+1))
	for i, s := range col.srcs {
		r := uint32(s)/width - uint32(first)
		x.perm[cursor[r]] = int32(i)
		cursor[r]++
	}
	return x
}

// offsetAt is the CSR offset of node v under offsets off covering ids
// from lo: the number of edges owned by nodes below v. Nodes outside
// the covered interval own nothing.
func offsetAt(off []int32, lo graph.NodeID, v int) int32 {
	k := v - int(lo)
	switch {
	case k <= 0:
		return off[0]
	case k >= len(off)-1:
		return off[len(off)-1]
	}
	return off[k]
}

// csr returns the offsets and adjacency of nodes [lo, hi) in one
// direction, in EncodeCSRShard's convention: global offsets into the
// whole adjacency. A range inside the key interval is a subslice of the
// index; one that straddles or misses it gets synthesized offsets.
func (x *cutIndex) csr(backward bool, lo, hi int) (off, adj []int32) {
	all, adj, base := x.adj.FwdOff, x.adj.FwdAdj, int(x.adj.FwdLo)
	if backward {
		all, adj, base = x.adj.BwdOff, x.adj.BwdAdj, int(x.adj.BwdLo)
	}
	if lo >= base && hi-base < len(all) {
		return all[lo-base : hi-base+1], adj
	}
	off = make([]int32, hi-lo+1)
	for i := range off {
		off[i] = offsetAt(all, graph.NodeID(base), lo+i)
	}
	return off, adj
}

// textRange gathers the edges whose source lies in [lo, hi), a whole
// range, in emission order.
func (x *cutIndex) textRange(col *columns, lo, hi int) (srcs, dsts []graph.NodeID) {
	bucket := x.perm[offsetAt(x.adj.FwdOff, x.adj.FwdLo, lo):offsetAt(x.adj.FwdOff, x.adj.FwdLo, hi)]
	srcs = make([]graph.NodeID, len(bucket))
	dsts = make([]graph.NodeID, len(bucket))
	for k, i := range bucket {
		srcs[k], dsts[k] = col.srcs[i], col.dsts[i]
	}
	return srcs, dsts
}

// cutIndexOf counts a cut of col and returns its index, building it on
// the second cut if col is still the resident entry for key and the
// columns' share has the index's bytes free; it evicts nothing to make
// room. nil means this cut goes through filterRange. Indexing waits for
// reuse because an index only pays back while its columns stay
// resident: built on every emission it cost serve-hot 10 to 30 %.
func (s *Server) cutIndexOf(key columnsKey, shardNodes int, col *columns) *cutIndex {
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.idx != nil {
		return col.idx
	}
	col.cuts++
	if col.cuts < 2 {
		return nil
	}
	if col.idxBytes == 0 {
		col.idxBytes = indexBytes(col)
	}
	if !s.columns.grow(key, col.idxBytes, func(v *columns) bool { return v == col }) {
		return nil
	}
	col.idx = buildCutIndex(col, shardNodes)
	s.columnIndexes.Add(1)
	return col.idx
}

// genOptions is the graphgen option set a job's slices are computed
// with. Seed and ShardEdges come from the spec (they are part of the
// byte identity); parallelism is the server's and never shows in the
// bytes.
func (s *Server) genOptions(j *job) graphgen.Options {
	return graphgen.Options{
		Seed:        j.spec.Seed,
		ShardEdges:  j.spec.ShardEdges,
		Parallelism: s.opt.Parallelism,
	}
}

// predicateEdges returns one predicate's edges in emission order: from
// the columns cache when resident, else by generating exactly that
// predicate — every other constraint is planned (so shard boundaries
// and sub-seeds match a full run) but not emitted. Concurrent callers
// share one emission; columns over the cache's budget serve the calls
// in flight and are dropped. Callers must not mutate the columns.
func (s *Server) predicateEdges(j *job, pred int) (*columns, error) {
	col, _, err := s.columns.get(columnsKey{j.id, pred}, func() (*columns, error) {
		n := j.expectedEdges[pred]
		n += n / 16 // at 20K+ nodes the built-in use cases emit 0.90-1.06x their expectation
		col := &columns{srcs: make([]graph.NodeID, 0, n), dsts: make([]graph.NodeID, 0, n)}
		if _, err := graphgen.EmitPredicate(j.gcfg, s.genOptions(j), j.predNames[pred], col); err != nil {
			return nil, err
		}
		return col, nil
	})
	return col, err
}

// columnsBytes is what a predicate's columns hold of the cache budget
// when they are inserted; a cut index is charged on top when built.
func columnsBytes(c *columns) int64 {
	return 4 * int64(cap(c.srcs)+cap(c.dsts))
}

// graphSliceSpec is a parsed graph-slice request.
type graphSliceSpec struct {
	pred int    // index into the job's predNames
	enc  string // "text", "binary", or "csr"
	dir  byte   // 'f' or 'b', CSR only
	rng  int    // range index, or -1 for "all"
	comp graphgen.SpillCompression
}

// parseGraphSlice validates the request coordinates against the job's
// geometry. Unknown predicates map to 404; malformed or unservable
// coordinate combinations map to 400.
func parseGraphSlice(j *job, pred, rangeStr string, q map[string][]string) (*graphSliceSpec, *httpError) {
	g := &graphSliceSpec{pred: j.gcfg.Schema.PredicateIndex(pred), enc: "csr", dir: 'f', comp: j.comp}
	if g.pred < 0 {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown predicate %q", pred)}
	}
	if v := first(q, "enc"); v != "" {
		switch v {
		case "text", "binary", "csr":
			g.enc = v
		default:
			return nil, &httpError{http.StatusBadRequest,
				fmt.Sprintf("unknown encoding %q (want text, binary, or csr)", v)}
		}
	}
	if v := first(q, "dir"); v != "" {
		switch v {
		case "f", "b":
			g.dir = v[0]
		default:
			return nil, &httpError{http.StatusBadRequest,
				fmt.Sprintf("unknown direction %q (want f or b)", v)}
		}
	}
	if v := first(q, "compress"); v != "" {
		comp, err := graphgen.ParseSpillCompression(v)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
		g.comp = comp
	}
	if rangeStr == "all" {
		g.rng = -1
		if g.enc == "csr" {
			return nil, &httpError{http.StatusBadRequest,
				"CSR slices are per node range; pass a range index, or enc=text|binary for the whole graph"}
		}
	} else {
		n, err := parseUint(rangeStr)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest,
				fmt.Sprintf("bad range %q (want a range index or \"all\")", rangeStr)}
		}
		if n >= j.nRanges {
			return nil, &httpError{http.StatusNotFound,
				fmt.Sprintf("range %d outside the job's %d ranges", n, j.nRanges)}
		}
		g.rng = n
		if g.enc == "binary" {
			return nil, &httpError{http.StatusBadRequest,
				"binary partition edges are delta-coded over the whole file; range slicing is only served as text or csr"}
		}
	}
	return g, nil
}

// computeGraphSlice renders the slice bytes. For enc=text|binary with
// range "all" the bytes are identical to the predicate's file in a
// batch PartitionedSink run; for enc=csr they are identical to the
// csr-{dir}-{pred}-{range}.bin shard a batch CSRSpillSink run writes
// with the same shard width and compression. A text slice of one
// range keeps the lines whose source node falls in the range.
//
// Resident columns cut a second time are cut through their index
// (cutIndexOf); otherwise a cut filters the whole predicate and builds
// the range's adjacency. Both paths give the same bytes.
func (s *Server) computeGraphSlice(j *job, g *graphSliceSpec) ([]byte, error) {
	col, err := s.predicateEdges(j, g.pred)
	if err != nil {
		return nil, err
	}
	return s.cutGraphSlice(j, g, col, s.cutIndexOf(columnsKey{j.id, g.pred}, j.shardNodes, col))
}

// cutGraphSlice renders one slice of col, through idx unless it is nil.
func (s *Server) cutGraphSlice(j *job, g *graphSliceSpec, col *columns, idx *cutIndex) ([]byte, error) {
	switch g.enc {
	case "text", "binary":
		srcs, dsts := col.srcs, col.dsts
		if g.rng >= 0 { // text only; binary+range is rejected at parse
			lo, hi := j.rangeBounds(g.rng)
			if idx != nil {
				srcs, dsts = idx.textRange(col, lo, hi)
			} else {
				srcs, dsts = filterRange(srcs, dsts, srcs, graph.NodeID(lo), graph.NodeID(hi))
			}
		}
		return graphgen.EncodePartitionedEdges(srcs, dsts, g.enc == "binary"), nil
	default: // csr
		lo, hi := j.rangeBounds(g.rng)
		if idx != nil {
			off, adj := idx.csr(g.dir == 'b', lo, hi)
			return graphgen.EncodeCSRShard(off, adj, g.comp)
		}
		owner := col.srcs
		other := col.dsts
		if g.dir == 'b' {
			owner, other = other, owner
		}
		fsrc, fdst := filterRange(owner, other, owner, graph.NodeID(lo), graph.NodeID(hi))
		for i := range fsrc {
			fsrc[i] -= graph.NodeID(lo)
		}
		off, adj := graph.BuildAdjacency(hi-lo, fsrc, fdst, s.opt.Parallelism)
		return graphgen.EncodeCSRShard(off, adj, g.comp)
	}
}

// filterRange keeps the (srcs[i], dsts[i]) pairs whose key[i] lies in
// [lo, hi), preserving order. It always copies, so callers may mutate
// the result without touching the collected edge list.
func filterRange(srcs, dsts, key []graph.NodeID, lo, hi graph.NodeID) (fs, fd []graph.NodeID) {
	n := 0
	for _, k := range key {
		if k >= lo && k < hi {
			n++
		}
	}
	fs = make([]graph.NodeID, 0, n)
	fd = make([]graph.NodeID, 0, n)
	for i, k := range key {
		if k >= lo && k < hi {
			fs = append(fs, srcs[i])
			fd = append(fd, dsts[i])
		}
	}
	return fs, fd
}

// windowSink renders each emitted query into the exact bytes the
// batch SyntaxDirSink writes for it and concatenates them in index
// order.
type windowSink struct {
	syn translate.Syntax
	buf []byte
}

// AddQuery implements querygen.QuerySink.
func (s *windowSink) AddQuery(index int, q *query.Query) error {
	var err error
	s.buf, err = querygen.AppendQueryFile(s.buf, index, q, s.syn)
	return err
}

// Flush implements querygen.QuerySink.
func (s *windowSink) Flush() error { return nil }

// computeWorkloadSlice renders the workload window [from, to) in the
// given syntax: the concatenation, in index order, of the per-query
// file bytes a batch SyntaxDirSink run writes. A window of one query
// is byte-identical to the batch file query-<from>.<syntax>.
func (s *Server) computeWorkloadSlice(j *job, from, to int, syn translate.Syntax) ([]byte, error) {
	sink := &windowSink{syn: syn}
	opt := querygen.Options{Parallelism: s.opt.Parallelism}
	if _, err := j.gen.EmitWindow(opt, from, to, sink); err != nil {
		return nil, err
	}
	return sink.buf, nil
}

// first returns the first value of a query parameter, or "".
func first(q map[string][]string, key string) string {
	if vs := q[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// parseUint parses a non-negative decimal integer strictly (no signs,
// no spaces, no empty string).
func parseUint(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i]
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("bad digit %q", d)
		}
		if n > (1<<31)/10 {
			return 0, fmt.Errorf("number too large")
		}
		n = n*10 + int(d-'0')
	}
	return n, nil
}
