package graphgen

import (
	"io"

	"gmark/internal/schema"
)

// StreamStats summarizes a streaming generation run.
type StreamStats struct {
	Nodes int
	Edges int
}

// Stream runs the generation pipeline writing edges directly to w in
// the edge-list format of graph.WriteEdgeList, without materializing
// the graph in memory: it is Emit into a WriterSink laid out by the
// plan itself, and shares Emit's sequencing — the sink is flushed
// exactly once, also when emission fails. With Parallelism=1, peak
// memory is bounded by the largest single shard's occurrence vectors;
// with N workers, by N in-flight shards, each held as its rendered
// text — either way the paper's Table 3 sizes (up to 100M nodes) stay
// reachable on ordinary machines, and the output is byte-identical for
// a given seed regardless of worker count.
func Stream(cfg *schema.GraphConfig, opt Options, w io.Writer) (StreamStats, error) {
	p, err := newPlan(cfg, opt)
	if err != nil {
		return StreamStats{}, err
	}
	sink, err := newWriterSink(w, p.typeNames, p.typeCounts, p.predNames)
	if err != nil {
		return StreamStats{}, err
	}
	edges, err := p.emitInto(sink)
	return StreamStats{Nodes: p.totalNodes, Edges: edges}, err
}
