package graphgen

import (
	"sync/atomic"

	"gmark/internal/graph"
)

// renderingSink is the seam that takes text rendering off the flusher.
// A sink whose bytes for an edge are a pure function of (pred, src, dst)
// — WriterSink, PartitionedSink in text mode — hands plan.run its
// per-predicate line encoders; the emit workers then render their own
// shard (shardPlan.render) and the flusher only concatenates, delivering
// each shard's chunks through addRendered in the same (constraint, shard)
// slot order that batches are delivered in. Byte identity at any worker
// count therefore holds by construction, exactly as on the batch path.
// Sinks whose encoding carries state across edges (binary partitions'
// deltas, the CSR spill) or that fan out (MultiEdgeSink) do not
// implement it and keep the batch path.
type renderingSink interface {
	EdgeSink
	// edgeLines returns the line encoder of every predicate, indexed by
	// PredID, or nil when this instance does not render text or a plan
	// of preds predicates over nodes node ids does not fit its layout.
	edgeLines(preds, nodes int) []graph.EdgeLine
	// addRendered consumes one shard's edges of pred, already rendered:
	// the concatenation of chunks is what AddEdgeBatch would have
	// written for them. The chunks belong to the caller again once it returns.
	addRendered(pred graph.PredID, edges int, chunks [][]byte) error
}

const (
	// renderChunkSize is the fixed capacity of a render chunk. A shard is
	// rendered into as many as it needs, so a worker holds the bytes of
	// its shard and nothing proportional to the largest shard ever seen.
	renderChunkSize = 64 << 10

	// renderChunksPerWorker sizes the free list: 14 chunks (896 KiB) per
	// worker. A default shard renders to ~40 chunks and comes home all at
	// once, so the list's capacity is the share of it that is recycled
	// rather than reallocated; every retained MiB is live heap the GC
	// pacer doubles into peak RSS. 14 is the measured point where fresh
	// allocation falls below the id batches it replaced while peak RSS
	// stays within a few MB of them (ARCHITECTURE.md, "Rendering sinks").
	renderChunksPerWorker = 14
)

// chunkPool is the bounded free list render chunks are drawn from and
// returned to. Neither direction blocks: an empty list allocates, a full
// one drops the chunk for the collector, so the pool can never stall the
// slot ring and never retains more than its capacity.
type chunkPool struct {
	free chan []byte

	// outstanding counts chunks drawn and not yet returned — the rendered
	// bytes in flight, in chunks.
	outstanding atomic.Int32
}

func newChunkPool(capacity int) *chunkPool {
	return &chunkPool{free: make(chan []byte, capacity)}
}

// get returns an empty chunk of renderChunkSize capacity.
func (cp *chunkPool) get() []byte {
	cp.outstanding.Add(1)
	select {
	case c := <-cp.free:
		return c
	default:
		return make([]byte, 0, renderChunkSize)
	}
}

// put returns a shard's chunks. A nil pool (the batch path) ignores them.
func (cp *chunkPool) put(chunks [][]byte) {
	if cp == nil {
		return
	}
	cp.outstanding.Add(-int32(len(chunks)))
	for _, c := range chunks {
		select {
		case cp.free <- c[:0]:
		default:
			return
		}
	}
}
