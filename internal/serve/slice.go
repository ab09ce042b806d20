package serve

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/translate"
)

// edgeList is the sink an emission fills: one predicate's edges in
// emission order, as plain columns. The pipeline delivers the same
// sequence for a given (config, seed) at any parallelism, so the
// collected pairs are deterministic. Immutable once the emission
// returns.
type edgeList struct {
	srcs []graph.NodeID
	dsts []graph.NodeID
}

// AddEdgeBatch implements graphgen.EdgeSink.
func (c *edgeList) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	c.srcs = append(c.srcs, srcs...)
	c.dsts = append(c.dsts, dsts...)
	return nil
}

// Flush implements graphgen.EdgeSink.
func (c *edgeList) Flush() error { return nil }

// columns is the columns cache's entry for one predicate: its edges
// bit-packed, which every slice of the predicate is cut from. src and
// dst are immutable once packed. idx is set and cleared under the
// columns cache's lock, with its charge; mu serializes the cuts'
// bookkeeping and the index build.
type columns struct {
	src, dst packedColumn
	idx      atomic.Pointer[cutIndex] // nil until built, and once shed

	mu       sync.Mutex
	cuts     int   // slices cut so far
	idxBytes int64 // the index's price, once computed
}

// predEdges is what a columns lookup returns: the packed columns, and
// the emission's plain ones when this lookup ran the emission or waited
// on it. The cache keeps only the packed half (resident), so a cut
// from a hit decodes and a cut from an emission does not.
type predEdges struct {
	*columns
	plain *edgeList // nil on a resident hit
}

// resident is what the cache keeps of e.
func (e predEdges) resident() predEdges { return predEdges{columns: e.columns} }

// dropIndex sheds e's cut index: the columns cache's room goes to
// columns before indexes, which a later cut can rebuild for far less
// than an emission.
func (e predEdges) dropIndex() { e.idx.Store(nil) }

// bytes is what e holds of the columns' budget when it is inserted:
// the packed columns' capacity. A cut index is charged on top when
// built.
func (e predEdges) bytes() int64 { return e.src.bytes() + e.dst.bytes() }

// edges returns every edge in emission order: the plain columns if e
// holds them, else a decoding of the packed ones. Callers must not
// mutate the result.
func (e predEdges) edges() (srcs, dsts []graph.NodeID) {
	if e.plain != nil {
		return e.plain.srcs, e.plain.dsts
	}
	return e.src.decode(), e.dst.decode()
}

// cut returns the edges whose source — target when byDst — lies in
// [lo, hi), in emission order, that side first. It always copies, so
// callers may mutate the result.
func (e predEdges) cut(byDst bool, lo, hi graph.NodeID) (keys, others []graph.NodeID) {
	if e.plain != nil {
		key, other := e.plain.srcs, e.plain.dsts
		if byDst {
			key, other = other, key
		}
		return filterRange(key, other, lo, hi)
	}
	key, other := &e.src, &e.dst
	if byDst {
		key, other = other, key
	}
	return filterPacked(key, other, lo, hi)
}

// pairBlocks yields e's edges in emission order, a run at a time.
func (e predEdges) pairBlocks() iter.Seq2[[]graph.NodeID, []graph.NodeID] {
	if e.plain != nil {
		return func(yield func(srcs, dsts []graph.NodeID) bool) { yield(e.plain.srcs, e.plain.dsts) }
	}
	return pairBlocks(&e.src, &e.dst)
}

// cutIndex rearranges one predicate's edges so that a slice is cut in
// O(slice) instead of O(predicate): both directions' sorted CSR, and
// the (source, target) pairs stably bucketed by source range. A
// range's bucket is srcs[fwd(lo):fwd(hi)] and the same run of dsts,
// where fwd(v) is the forward offset of node v — the number of edges
// whose source is below v — so the buckets need no offsets of their
// own and a text range is a subslice.
type cutIndex struct {
	adj        graph.AdjacencyPair
	srcs, dsts []graph.NodeID
}

// indexBytes is what col's cut index costs the columns' share: two
// offset arrays over the id intervals of each side, two adjacency
// arrays and the bucketed pairs, 4 bytes an entry.
func indexBytes(col *columns) int64 {
	if col.src.n == 0 {
		return 8
	}
	span := func(c *packedColumn) int64 { return int64(c.hi) - int64(c.lo) + 2 }
	return 4 * (span(&col.src) + span(&col.dst) + 4*int64(col.src.n))
}

// bytes is what x holds: the capacity of its arrays.
func (x *cutIndex) bytes() int64 {
	a := x.adj
	return 4 * int64(cap(a.FwdOff)+cap(a.FwdAdj)+cap(a.BwdOff)+cap(a.BwdAdj)+cap(x.srcs)+cap(x.dsts))
}

// buildCutIndex builds e's index for ranges shardNodes wide: it counts
// the sources per range, scatters the pairs into their buckets, and
// builds both directions' CSR from the buckets, whose order the sorted
// lists do not depend on.
func buildCutIndex(e predEdges, shardNodes int) *cutIndex {
	n := e.src.n
	x := &cutIndex{srcs: make([]graph.NodeID, n), dsts: make([]graph.NodeID, n)}
	if n > 0 {
		// One cursor per range the sources touch, starting at its bucket.
		hi := int(e.src.hi)
		first := int(e.src.lo) / shardNodes
		cursor := make([]int32, hi/shardNodes-first+1)
		// A width past the highest source puts every source in range 0,
		// so the divisor can be narrowed to 32 bits, the cheaper division.
		width := uint32(min(shardNodes, hi+1))
		if e.plain != nil {
			for _, s := range e.plain.srcs {
				cursor[uint32(s)/width-uint32(first)]++
			}
		} else {
			e.src.countRanges(cursor, width, uint32(first))
		}
		at := int32(0)
		for r, c := range cursor {
			cursor[r], at = at, at+c
		}
		for srcs, dsts := range e.pairBlocks() {
			for i, s := range srcs {
				r := uint32(s)/width - uint32(first)
				x.srcs[cursor[r]], x.dsts[cursor[r]] = s, dsts[i]
				cursor[r]++
			}
		}
	}
	x.adj = graph.BuildAdjacencyPair(x.srcs, x.dsts)
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

// textRange returns the edges whose source lies in [lo, hi), a whole
// range, in emission order: its bucket. Callers must not mutate it.
func (x *cutIndex) textRange(lo, hi int) (srcs, dsts []graph.NodeID) {
	a, b := offsetAt(x.adj.FwdOff, x.adj.FwdLo, lo), offsetAt(x.adj.FwdOff, x.adj.FwdLo, hi)
	return x.srcs[a:b], x.dsts[a:b]
}

// cutIndexOf counts a cut of e and returns its index, building it on
// the second or a later cut if e's columns are still the resident
// entry for key and the columns' share has the index's bytes free; it
// evicts nothing to make room, and an insert that needs the room sheds
// the index again. nil means this cut goes through cut. Indexing waits
// for reuse because an index only pays back while its columns stay
// resident: built on every emission it cost serve-hot 10 to 30 %.
func (s *Server) cutIndexOf(key columnsKey, shardNodes int, e predEdges) *cutIndex {
	col := e.columns
	if x := col.idx.Load(); x != nil {
		return x
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if x := col.idx.Load(); x != nil {
		return x // built while this cut waited
	}
	col.cuts++
	if col.cuts < 2 {
		return nil
	}
	if col.idxBytes == 0 {
		col.idxBytes = indexBytes(col)
	}
	if !s.columns.free(col.idxBytes) {
		return nil
	}
	x := buildCutIndex(e, shardNodes)
	attach := func(v predEdges) bool {
		if v.columns != col {
			return false
		}
		col.idx.Store(x)
		return true
	}
	if !s.columns.grow(key, col.idxBytes, attach) {
		return nil // the room went while the index was built
	}
	s.columnIndexes.Add(1)
	return x
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
// and sub-seeds match a full run) but not emitted — and packing it.
// Concurrent callers share one emission and its plain columns; columns
// over the cache's budget serve the calls in flight and are dropped.
// Callers must not mutate the edges.
func (s *Server) predicateEdges(j *job, pred int) (predEdges, error) {
	e, _, err := s.columns.get(columnsKey{j.id, pred}, func() (predEdges, error) {
		n := j.expectedEdges[pred]
		n += n / 16 // at 20K+ nodes the built-in use cases emit 0.90-1.06x their expectation
		plain := &edgeList{srcs: make([]graph.NodeID, 0, n), dsts: make([]graph.NodeID, 0, n)}
		if _, err := graphgen.EmitPredicate(j.gcfg, s.genOptions(j), j.predNames[pred], plain); err != nil {
			return predEdges{}, err
		}
		return packEdges(plain), nil
	})
	return e, err
}

// packEdges packs an emission's plain columns and holds on to both.
func packEdges(plain *edgeList) predEdges {
	return predEdges{columns: &columns{src: packColumn(plain.srcs), dst: packColumn(plain.dsts)}, plain: plain}
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
		if errors.Is(err, errTooLarge) {
			return nil, &httpError{http.StatusNotFound,
				fmt.Sprintf("range %s outside the job's %d ranges", rangeStr, j.nRanges)}
		}
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
// (cutIndexOf); otherwise a cut filters the whole predicate — the
// plain columns when this request emitted them or waited on that,
// else the packed ones — and builds the range's adjacency. All paths
// give the same bytes.
func (s *Server) computeGraphSlice(j *job, g *graphSliceSpec) ([]byte, error) {
	e, err := s.predicateEdges(j, g.pred)
	if err != nil {
		return nil, err
	}
	return s.cutGraphSlice(j, g, e, s.cutIndexOf(columnsKey{j.id, g.pred}, j.shardNodes, e))
}

// cutGraphSlice renders one slice of e, through idx unless it is nil.
func (s *Server) cutGraphSlice(j *job, g *graphSliceSpec, e predEdges, idx *cutIndex) ([]byte, error) {
	switch g.enc {
	case "text", "binary":
		var srcs, dsts []graph.NodeID
		if g.rng < 0 {
			srcs, dsts = e.edges()
		} else { // text only; binary+range is rejected at parse
			lo, hi := j.rangeBounds(g.rng)
			if idx != nil {
				srcs, dsts = idx.textRange(lo, hi)
			} else {
				srcs, dsts = e.cut(false, graph.NodeID(lo), graph.NodeID(hi))
			}
		}
		return graphgen.EncodePartitionedEdges(srcs, dsts, g.enc == "binary"), nil
	default: // csr
		lo, hi := j.rangeBounds(g.rng)
		if idx != nil {
			off, adj := idx.csr(g.dir == 'b', lo, hi)
			return graphgen.EncodeCSRShard(off, adj, g.comp)
		}
		owners, others := e.cut(g.dir == 'b', graph.NodeID(lo), graph.NodeID(hi))
		off, adj := graph.BuildAdjacencyParts(hi-lo, graph.NodeID(lo), []graph.Part{{Keys: owners, Vals: others}})
		return graphgen.EncodeCSRShard(off, adj, g.comp)
	}
}

// filterRange keeps the (key[i], other[i]) pairs whose key lies in
// [lo, hi), preserving order. It always copies, so callers may mutate
// the result without touching the collected edge list.
func filterRange(key, other []graph.NodeID, lo, hi graph.NodeID) (fk, fo []graph.NodeID) {
	n := 0
	for _, k := range key {
		if k >= lo && k < hi {
			n++
		}
	}
	fk = make([]graph.NodeID, 0, n)
	fo = make([]graph.NodeID, 0, n)
	for i, k := range key {
		if k >= lo && k < hi {
			fk = append(fk, k)
			fo = append(fo, other[i])
		}
	}
	return fk, fo
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

// errTooLarge is parseUint's error for a well-formed number past
// math.MaxInt32. No range or query index reaches it, so the handlers
// answer it as out of range (404) on every word size.
var errTooLarge = errors.New("number too large")

// parseUint parses a non-negative decimal integer strictly (no signs,
// no spaces, no empty string) that fits an int32.
func parseUint(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	n, tooLarge := 0, false
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("bad digit %q", s[i])
		}
		d := int(s[i] - '0')
		if tooLarge || n > (math.MaxInt32-d)/10 {
			tooLarge = true
			continue
		}
		n = n*10 + d
	}
	if tooLarge {
		return 0, errTooLarge
	}
	return n, nil
}
