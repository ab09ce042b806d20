package serve

import (
	"fmt"
	"net/http"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/translate"
)

// collectSink gathers one predicate's edges in emission order. The
// pipeline delivers the same sequence for a given (config, seed) at
// any parallelism, so the collected pairs are deterministic.
type collectSink struct {
	srcs []graph.NodeID
	dsts []graph.NodeID
}

// AddEdge implements graphgen.EdgeSink.
func (c *collectSink) AddEdge(src graph.NodeID, pred graph.PredID, dst graph.NodeID) error {
	c.srcs = append(c.srcs, src)
	c.dsts = append(c.dsts, dst)
	return nil
}

// AddEdgeBatch implements graphgen.BatchEdgeSink.
func (c *collectSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	c.srcs = append(c.srcs, srcs...)
	c.dsts = append(c.dsts, dsts...)
	return nil
}

// Flush implements graphgen.EdgeSink.
func (c *collectSink) Flush() error { return nil }

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
func (s *Server) predicateEdges(j *job, pred int) (*collectSink, error) {
	col, _, err := s.columns.get(columnsKey{j.id, pred}, func() (*collectSink, error) {
		n := j.expectedEdges[pred]
		n += n / 16 // at 20K+ nodes the built-in use cases emit 0.90-1.06x their expectation
		col := &collectSink{srcs: make([]graph.NodeID, 0, n), dsts: make([]graph.NodeID, 0, n)}
		if _, err := graphgen.EmitPredicate(j.gcfg, s.genOptions(j), j.predNames[pred], col); err != nil {
			return nil, err
		}
		return col, nil
	})
	return col, err
}

// columnsBytes is what a predicate's columns hold of the cache budget.
func columnsBytes(c *collectSink) int64 {
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
func (s *Server) computeGraphSlice(j *job, g *graphSliceSpec) ([]byte, error) {
	col, err := s.predicateEdges(j, g.pred)
	if err != nil {
		return nil, err
	}
	switch g.enc {
	case "text", "binary":
		srcs, dsts := col.srcs, col.dsts
		if g.rng >= 0 { // text only; binary+range is rejected at parse
			lo := graph.NodeID(g.rng * j.shardNodes)
			hi := lo + graph.NodeID(j.shardNodes)
			srcs, dsts = filterRange(srcs, dsts, srcs, lo, hi)
		}
		return graphgen.EncodePartitionedEdges(srcs, dsts, g.enc == "binary"), nil
	default: // csr
		lo := g.rng * j.shardNodes
		hi := lo + j.shardNodes
		if hi > j.numNodes {
			hi = j.numNodes
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
