package querygen

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// resources (file handles, writer goroutines — see SyntaxDirSink) can
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
		if opt.workers() == 1 || len(units) <= emitBlock {
			err = g.emitSequential(units, sink)
		} else {
			err = g.emitParallel(units, opt, sink)
		}
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

// emitSequential generates every unit in order, straight into the
// sink.
func (g *Generator) emitSequential(units []queryUnit, sink QuerySink) error {
	w := g.newWorker()
	for i := range units {
		q, err := w.emitUnit(units[i])
		if err != nil {
			return err
		}
		if err := sink.AddQuery(units[i].index, q); err != nil {
			return err
		}
	}
	return nil
}

// emitBlock is the number of consecutive units a worker generates per
// hand-off to the flusher: large enough that the two channel operations
// per block vanish next to the generation work, small enough that a
// served window of a few dozen queries still spreads over the workers.
const emitBlock = 16

// ringDepth is the number of slots per worker in emitParallel's ring.
// With one slot a worker idles while the flusher drains its last block;
// with several it runs ahead into its next slot. Measured on gmark-perf
// qgen (2 vCPU, 2 workers): 91-96 K queries/s at depth 1, 102-112 K at
// 2, 111-114 K at 4, 117-120 K at 8, and 104-117 K with +1 MB RSS at
// 16. At 8 a worker has at most 8 x emitBlock = 128 queries in flight.
const ringDepth = 8

// emitParallel splits the units into blocks of emitBlock and fans the
// blocks out across k long-lived workers, each with one RNG re-seeded
// per unit. Worker w fills the blocks b ≡ w (mod k); block b goes into slot
// b mod r of a ring of r = k*ringDepth slots (fewer when there are
// fewer blocks, so no slot is shared at all). Because r is a multiple
// of k, the blocks sharing a slot share a worker, which fills them in
// order. The flusher (the caller) consumes the slots strictly in block
// order, so the sink observes the same call sequence as the sequential
// path. A worker is admitted to block b only after block b-r has been
// flushed, so slot reuse never overlaps, and total in-flight memory is
// O(k x ringDepth x emitBlock) queries — not O(workload) — preserving
// the streaming sinks' constant-memory property for huge workloads.
func (g *Generator) emitParallel(units []queryUnit, opt Options, sink QuerySink) error {
	// slot is one block in flight: the queries generated so far and the
	// error that stopped the block short, if any.
	type slot struct {
		qs  [emitBlock]*query.Query
		n   int
		err error
		// filled and free hand the slot back and forth; each send
		// orders the slot accesses before it ahead of those after the
		// matching receive.
		filled, free chan struct{}
	}
	blocks := (len(units) + emitBlock - 1) / emitBlock
	k := min(opt.workers(), blocks)
	slots := make([]slot, min(k*ringDepth, blocks))
	for s := range slots {
		slots[s].filled = make(chan struct{}, 1)
		slots[s].free = make(chan struct{}, 1)
		slots[s].free <- struct{}{}
	}

	// aborted tells workers to skip generating once the flusher has
	// recorded an error.
	var aborted atomic.Bool

	var wg sync.WaitGroup
	for first := 0; first < k; first++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := g.newWorker()
			for b := first; b < blocks; b += k {
				sl := &slots[b%len(slots)]
				<-sl.free
				sl.n, sl.err = 0, nil
				block := units[b*emitBlock : min((b+1)*emitBlock, len(units))]
				for i := 0; i < len(block) && !aborted.Load(); i++ {
					q, err := w.emitUnit(block[i])
					if err != nil {
						sl.err = err
						break
					}
					sl.qs[sl.n] = q
					sl.n++
				}
				sl.filled <- struct{}{}
			}
		}()
	}

	// Ordered flush. On error, keep draining (and keep releasing the
	// slots) so every worker runs to its end, but stop touching the
	// sink.
	var firstErr error
	for b := 0; b < blocks; b++ {
		sl := &slots[b%len(slots)]
		<-sl.filled
		for i := 0; i < sl.n; i++ {
			if firstErr == nil {
				firstErr = sink.AddQuery(units[b*emitBlock+i].index, sl.qs[i])
			}
			sl.qs[i] = nil // release the query eagerly
		}
		if firstErr == nil {
			firstErr = sl.err
		}
		if firstErr != nil {
			aborted.Store(true)
		}
		sl.free <- struct{}{}
	}
	wg.Wait()
	return firstErr
}
