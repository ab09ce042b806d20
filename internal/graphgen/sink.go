package graphgen

import (
	"fmt"
	"io"

	"gmark/internal/graph"
	"gmark/internal/schema"
)

// EdgeSink consumes the edges produced by the emission stage, one
// batch per non-empty shard: edge i of a batch is (srcs[i], pred,
// dsts[i]). The pipeline delivers the batches of each constraint
// together, in ascending constraint index and shard order, so a sink
// observes the identical call sequence for a given seed regardless of
// how many workers emitted the edges. Every sink of this package
// refuses a batch whose columns do not pair up, with an error.
//
// Sinks are driven from a single goroutine; implementations need no
// internal locking.
type EdgeSink interface {
	// AddEdgeBatch consumes one batch of labeled edges over global
	// node ids.
	AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error
	// Flush finalizes the sink after the last batch.
	Flush() error
}

// BatchEdgeSink is EdgeSink under its earlier name, kept for callers
// that still name it.
type BatchEdgeSink = EdgeSink

// checkBatch is the one definition of a well-formed batch: edge i is
// (srcs[i], dsts[i]), so the columns must pair up.
func checkBatch(srcs, dsts []graph.NodeID) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("graphgen: batch length mismatch: %d sources, %d targets", len(srcs), len(dsts))
	}
	return nil
}

// checkEdges is checkBatch plus the sink's layout: a predicate outside
// its preds predicates or a node id outside [0, nodes) has no line, file
// or header entry to go to, so the batch is refused whole, before any
// of it is written.
func checkEdges(sink string, pred graph.PredID, srcs, dsts []graph.NodeID, preds, nodes int) error {
	if err := checkBatch(srcs, dsts); err != nil {
		return err
	}
	if pred < 0 || int(pred) >= preds {
		return fmt.Errorf("graphgen: %s: predicate %d outside the schema's %d predicates", sink, pred, preds)
	}
	for _, ids := range [2][]graph.NodeID{srcs, dsts} {
		for _, id := range ids {
			if id < 0 || int(id) >= nodes {
				return fmt.Errorf("graphgen: %s: node id %d outside [0, %d)", sink, id, nodes)
			}
		}
	}
	return nil
}

// Layout resolves a configuration's contiguous node layout: the node
// types with their resolved counts (global node ids number the types
// one after another in schema order) and the predicate names in schema
// order. Every sink and the slice server derive node identity from
// this one mapping.
func Layout(cfg *schema.GraphConfig) (typeNames []string, typeCounts []int, predNames []string) {
	return resolveLayout(cfg)
}

// resolveLayout resolves a configuration's node-type and predicate
// layout, shared by every sink constructor that needs it so header and
// node ids cannot drift apart between sinks fed by one pass.
func resolveLayout(cfg *schema.GraphConfig) (typeNames []string, typeCounts []int, predNames []string) {
	s := &cfg.Schema
	typeNames = make([]string, len(s.Types))
	typeCounts = make([]int, len(s.Types))
	for i, t := range s.Types {
		typeNames[i] = t.Name
		typeCounts[i] = t.Occurrence.Count(cfg.Nodes)
	}
	predNames = make([]string, len(s.Predicates))
	for i, p := range s.Predicates {
		predNames[i] = p.Name
	}
	return typeNames, typeCounts, predNames
}

// GraphSink builds an in-memory graph.Graph. Per-shard batches append
// directly into the graph's per-predicate edge shards; the CSR
// adjacency is built once by graph.Freeze after the pipeline drains.
type GraphSink struct {
	g *graph.Graph
}

// NewGraphSink wraps an unfrozen graph.
func NewGraphSink(g *graph.Graph) *GraphSink { return &GraphSink{g: g} }

// NewGraphSinkFor builds an empty graph matching the configuration's
// resolved layout and wraps it in a GraphSink. It exists so callers
// can materialize AND feed other sinks in one Emit pass via
// MultiEdgeSink — call Graph().Freeze() after Emit returns, exactly
// what Generate does internally.
func NewGraphSinkFor(cfg *schema.GraphConfig) (*GraphSink, error) {
	typeNames, typeCounts, predNames := resolveLayout(cfg)
	g, err := graph.New(typeNames, typeCounts, predNames)
	if err != nil {
		return nil, err
	}
	return NewGraphSink(g), nil
}

// Graph returns the sink's underlying graph (unfrozen until the
// caller freezes it).
func (s *GraphSink) Graph() *graph.Graph { return s.g }

// AddEdgeBatch implements EdgeSink.
func (s *GraphSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	return s.g.AddEdgeBatch(pred, srcs, dsts)
}

// Flush implements EdgeSink. Freezing is left to the caller so the
// sink can be reused across multiple emission passes if desired.
func (s *GraphSink) Flush() error { return nil }

// WriterSink streams edges as the textual edge-list format ("src pred
// dst" over global node ids, in emission order), preceded by the
// node-layout header that graph.ReadEdgeList accepts; it is the one
// writer of that format. Lines are
// rendered by graph.EdgeLine, in place: by the sink into its own buffer
// when it is fed batches (behind a MultiEdgeSink), and by the emit
// workers themselves when Emit drives it directly (it is a
// renderingSink), in which case the sink only writes finished chunks
// through.
//
// Emit into a WriterSink generates an instance without materializing
// it: peak memory is bounded by N in-flight shards for N workers, each
// held as its degrees and paired occurrences and then its rendered
// text — so the paper's Table 3 sizes (up to 100M nodes) stay
// reachable on ordinary machines, and the output is byte-identical for
// a given seed regardless of worker count.
type WriterSink struct {
	w       io.Writer
	buf     []byte // rendered and not yet written
	err     error  // the first write error; sticky, like bufio.Writer's
	lines   []graph.EdgeLine
	maxLine int // longest line over the header's node ids, any predicate
	nodes   int
}

const (
	// writerSinkBuffer is the capacity of WriterSink's own buffer: one
	// render chunk, so the writer sees the same write size whichever
	// side rendered, and a direct run — which only passes the header
	// and the odd small chunk through it — does not carry a large idle
	// buffer as live heap.
	writerSinkBuffer = renderChunkSize

	// writerSinkCoalesce is the rendered-chunk size below which
	// addRendered copies into the buffer instead of writing through, so
	// a run of tiny shards does not become a run of tiny writes.
	writerSinkCoalesce = 4 << 10
)

// NewWriterSink builds a sink over w and immediately writes the header
// derived from the configuration. The header cannot carry the edge
// count up front; it describes the node layout only.
func NewWriterSink(w io.Writer, cfg *schema.GraphConfig) (*WriterSink, error) {
	typeNames, typeCounts, predNames := resolveLayout(cfg)
	total := 0
	for _, c := range typeCounts {
		total += c
	}
	s := &WriterSink{
		w:     w,
		buf:   make([]byte, 0, writerSinkBuffer),
		lines: graph.NewEdgeLines(predNames),
		nodes: total,
	}
	for _, l := range s.lines {
		s.maxLine = max(s.maxLine, l.MaxLen(total))
	}
	s.buf = fmt.Appendf(s.buf, "# gmark graph nodes=%d\n# types", total)
	for i, name := range typeNames {
		s.buf = fmt.Appendf(s.buf, " %s:%d", name, typeCounts[i])
	}
	s.buf = append(s.buf, "\n# predicates"...)
	for _, name := range predNames {
		s.buf = fmt.Appendf(s.buf, " %s", name)
	}
	s.buf = append(s.buf, '\n')
	if err := s.drain(); err != nil {
		return nil, err
	}
	return s, nil
}

// write hands p to the underlying writer unless an earlier write failed.
func (s *WriterSink) write(p []byte) error {
	if s.err != nil {
		return s.err
	}
	n, err := s.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	s.err = err
	return err
}

// drain writes the buffered bytes out.
func (s *WriterSink) drain() error {
	if len(s.buf) == 0 {
		return s.err
	}
	err := s.write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// AddEdgeBatch implements EdgeSink; it is the path a WriterSink behind
// a MultiEdgeSink is fed through. A batch outside the header's layout
// is refused whole (checkEdges). Each line is rendered in place at the
// end of the buffer, which is drained first whenever the longest
// possible line might not fit.
func (s *WriterSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	if err := checkEdges("WriterSink", pred, srcs, dsts, len(s.lines), s.nodes); err != nil {
		return err
	}
	line := s.lines[pred]
	for i, src := range srcs {
		if cap(s.buf)-len(s.buf) < s.maxLine {
			if err := s.drain(); err != nil {
				return err
			}
		}
		s.buf = line.Append(s.buf, src, dsts[i])
	}
	return nil
}

// edgeLines implements renderingSink.
func (s *WriterSink) edgeLines(preds, nodes int) []graph.EdgeLine {
	if preds > len(s.lines) || nodes > s.nodes {
		return nil
	}
	return s.lines
}

// addRendered implements renderingSink: whatever the sink rendered
// itself goes out first, then the shard's chunks, written through as
// they are — the flusher's share of a run is concatenation.
func (s *WriterSink) addRendered(_ graph.PredID, _ int, chunks [][]byte) error {
	for _, c := range chunks {
		if len(c) < writerSinkCoalesce && len(c) <= cap(s.buf)-len(s.buf) {
			s.buf = append(s.buf, c...)
			continue
		}
		if err := s.drain(); err != nil {
			return err
		}
		if err := s.write(c); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements EdgeSink.
func (s *WriterSink) Flush() error { return s.drain() }

// Nodes returns the total node count described by the header.
func (s *WriterSink) Nodes() int { return s.nodes }

// AbortableEdgeSink is an optional extension for sinks whose Flush
// finalizes a durable artifact (an index file, a manifest): when the
// pipeline fails, Emit calls Abort before Flush so the sink releases
// its resources WITHOUT finalizing — a crashed run must not leave a
// complete-looking index over partial output.
type AbortableEdgeSink interface {
	EdgeSink
	Abort()
}

// abortSink notifies a sink (if it cares) that the run failed.
func abortSink(s EdgeSink) {
	if a, ok := s.(AbortableEdgeSink); ok {
		a.Abort()
	}
}

// multiEdgeSink fans every batch out to several sinks in order.
type multiEdgeSink []EdgeSink

// MultiEdgeSink combines sinks: each batch (and the final Flush) is
// delivered to every sink in argument order, stopping on the first
// error. It lets one generation pass feed, say, the streaming edge
// list, a partitioned directory and a CSR spill at once.
func MultiEdgeSink(sinks ...EdgeSink) EdgeSink {
	if len(sinks) == 1 {
		return sinks[0] // nothing to fan out: keep the sink's rendering path
	}
	return multiEdgeSink(sinks)
}

// AddEdgeBatch implements EdgeSink. The batch is checked once, before
// any member sees it, so a member that does not check its columns
// itself is never handed a mismatched pair.
func (m multiEdgeSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	if err := checkBatch(srcs, dsts); err != nil {
		return err
	}
	for _, s := range m {
		if err := s.AddEdgeBatch(pred, srcs, dsts); err != nil {
			return err
		}
	}
	return nil
}

// Abort implements AbortableEdgeSink, fanning the signal out.
func (m multiEdgeSink) Abort() {
	for _, s := range m {
		abortSink(s)
	}
}

// Flush implements EdgeSink. Every member is flushed — even after an
// earlier member failed — so sinks that own resources always get to
// release them; the first error is reported.
func (m multiEdgeSink) Flush() error {
	var firstErr error
	for _, s := range m {
		if err := s.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
