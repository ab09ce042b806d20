package querygen

import (
	"fmt"
	"sync/atomic"

	"gmark/internal/fanout"
	"gmark/internal/query"
)

// GenerateWith produces the configured number of queries through the
// plan/emit/sink pipeline. For a fixed seed the result is identical at
// any worker count. Safe for concurrent use.
func (g *Generator) GenerateWith(opt Options) ([]*query.Query, error) {
	sink := &SliceSink{}
	if _, err := g.Emit(opt, sink); err != nil {
		return nil, err
	}
	return sink.Queries, nil
}

// Emit runs the workload pipeline into an arbitrary sink and returns
// the number of queries delivered. Queries reach the sink in ascending
// index order from a single goroutine, regardless of worker count.
// Flush is ALWAYS called, even when emission fails, so sinks that own
// resources (file handles, pending batches — see SyntaxDirSink) can
// release them; the emission error takes precedence over a flush
// error.
func (g *Generator) Emit(opt Options, sink QuerySink) (int, error) {
	return g.EmitWindow(opt, 0, g.cfg.Count, sink)
}

// EmitWindow is Emit restricted to the query-index window [from, to):
// the workload's prefix [0, to) is planned exactly as in a full run —
// every unit keeps the sub-seed and workload-level assignment its
// index has in the complete workload — and only the window's units are
// kept and emitted, in ascending index order. A window of one query
// therefore produces the identical query a full run delivers at that
// index, which is what lets a server answer any workload window on
// demand without generating the rest. Flush is ALWAYS called, exactly as in Emit; an
// out-of-bounds window is an error (after flushing).
func (g *Generator) EmitWindow(opt Options, from, to int, sink QuerySink) (int, error) {
	var units []queryUnit
	var err error
	if from < 0 || to > g.cfg.Count || from > to {
		err = fmt.Errorf("querygen: window [%d, %d) outside workload of %d queries", from, to, g.cfg.Count)
	} else {
		units = g.planWorkload(from, to)
		err = g.emitUnits(units, fanout.Workers(opt.Parallelism), sink)
	}
	flushErr := sink.Flush()
	if err != nil {
		return 0, err
	}
	if flushErr != nil {
		return 0, flushErr
	}
	return len(units), nil
}

// emitBlock is the number of consecutive units a worker generates per
// hand-off to the flusher: large enough that the two channel operations
// per block vanish next to the generation work, small enough that a
// served window of a few dozen queries still spreads over the workers.
const emitBlock = 16

// ringDepth is the number of blocks per worker that emitUnits
// admits ahead of the flusher. With one a worker idles while the
// flusher drains its last block; with several it runs ahead. Measured
// on gmark-perf qgen (2 vCPU, 2 workers): 91-96 K queries/s at depth 1,
// 102-112 K at 2, 111-114 K at 4, 117-120 K at 8, and 104-117 K with
// +1 MB RSS at 16. At 8 a worker has at most 8 x emitBlock = 128
// queries in flight.
const ringDepth = 8

// emitUnits splits the units into blocks of emitBlock and fans the
// blocks out with fanout.Ordered across k workers, each with one RNG
// re-seeded per unit; with one worker (or one block) fanout.Ordered
// runs them on the caller's goroutine. The flusher (the caller)
// receives the blocks strictly in block order, so the sink observes
// the same call sequence at any worker count. Block b is admitted only
// after block b-k*ringDepth has been flushed, so total in-flight
// memory is O(k x ringDepth x emitBlock) queries — not O(workload) —
// preserving the streaming sinks' constant-memory property for huge
// workloads.
func (g *Generator) emitUnits(units []queryUnit, k int, sink QuerySink) error {
	// block is one block's queries and the error that stopped it
	// short, if any.
	type block struct {
		qs  [emitBlock]*query.Query
		n   int
		err error
	}
	blocks := (len(units) + emitBlock - 1) / emitBlock
	workers := make([]*worker, min(k, blocks))
	for w := range workers {
		workers[w] = g.newWorker()
	}
	return fanout.Ordered(blocks, len(workers), len(workers)*ringDepth,
		func(w, b int, aborted *atomic.Bool) (r block) {
			for _, u := range units[b*emitBlock : min((b+1)*emitBlock, len(units))] {
				if aborted.Load() {
					break
				}
				if r.qs[r.n], r.err = workers[w].emitUnit(u); r.err != nil {
					break
				}
				r.n++
			}
			return r
		},
		func(b int, r block) error {
			for i, q := range r.qs[:r.n] {
				if err := sink.AddQuery(units[b*emitBlock+i].index, q); err != nil {
					return err
				}
			}
			return r.err
		}, nil)
}
