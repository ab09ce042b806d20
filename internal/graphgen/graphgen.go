// Package graphgen implements gMark's linear-time graph generation
// algorithm (paper, Fig. 5 and Section 4) as a staged, sink-based
// pipeline:
//
//  1. Planning (plan.go): the schema's eta constraints are resolved
//     into node-id ranges and predicate ids, and each constraint is
//     split into emission shards — contiguous sub-ranges of its
//     source/target nodes targeting Options.ShardEdges edges each —
//     so a schema dominated by a single constraint still fans out
//     across every worker. Each shard is assigned a deterministic RNG
//     sub-seed derived with a splitmix64 mix from (Options.Seed,
//     constraint index, shard index). No randomness is consumed
//     during planning.
//  2. Emission (this file): shard workers run across
//     Options.Parallelism goroutines (default GOMAXPROCS), admitted
//     and flushed in shard order by fanout.Ordered. For each
//     edge constraint eta(T1, T2, a) = (Din, Dout) a shard draws a
//     source-occurrence vector from Dout over its source sub-range
//     and a target-occurrence vector from Din over its target
//     sub-range, shuffles both, and pairs them to produce
//     min(|vsrc|, |vtrg|) a-labeled edges. The heuristic never
//     backtracks: when the two vectors disagree in length the surplus
//     occurrences are dropped, which preserves the distribution
//     *types* even if the exact parameters cannot all be honored (the
//     generation problem is NP-complete, Theorem 3.6).
//  3. Sinks (sink.go, partition.go, spill.go): edges flow into an
//     EdgeSink. GraphSink builds an in-memory graph.Graph (Generate);
//     WriterSink streams the textual edge-list format;
//     PartitionedSink writes one edge-list file per predicate;
//     CSRSpillSink spills node-range-sharded binary CSR files for
//     out-of-core evaluation; callers can plug their own via Emit.
//     The text sinks are rendering sinks (render.go): at any worker
//     count the emit workers render their own shard's lines with
//     graph.EdgeLine and the flusher only concatenates them.
//
// Determinism is a hard invariant: a given (configuration, seed,
// ShardEdges) triple produces identical output regardless of worker
// count, because every shard owns an independent sub-seeded RNG,
// shard boundaries never depend on the worker count or the machine,
// and completed shards — id batches or rendered text — are flushed to
// the sink in ascending (constraint, shard) order. A constraint that
// fits in one shard is additionally byte-compatible with the historical
// unsharded pipeline.
package graphgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"gmark/internal/fanout"
	"gmark/internal/graph"
	"gmark/internal/prng"
	"gmark/internal/schema"
)

// Options controls generation.
type Options struct {
	// Seed makes generation deterministic. Two runs with equal
	// configuration, seed and options produce identical graphs, for any
	// Parallelism.
	Seed int64

	// Parallelism is the number of shard-emission workers. Zero or
	// less selects runtime.GOMAXPROCS(0) (fanout.Workers); one emits
	// every shard on the caller's goroutine, one shard in memory at a
	// time (lowest memory for streaming).
	Parallelism int

	// ShardEdges is the target number of edges per emission shard.
	// Zero selects the default granularity (128K edges); a negative
	// value disables intra-constraint sharding (one shard per
	// constraint, the historical behavior). Constraints whose expected
	// edge count fits inside one shard are emitted byte-identically to
	// the unsharded pipeline. Shard boundaries depend only on the
	// configuration and this value — never on Parallelism or the
	// machine — so output is deterministic at any worker count, but
	// different ShardEdges values select different (equally valid)
	// instances of the same configuration.
	ShardEdges int
}

// Generate produces a graph instance satisfying (heuristically) the
// given configuration. It is a thin wrapper over the pipeline with a
// GraphSink.
func Generate(cfg *schema.GraphConfig, opt Options) (*graph.Graph, error) {
	p, err := newPlan(cfg, opt)
	if err != nil {
		return nil, err
	}
	g, err := graph.New(p.typeNames, p.typeCounts, p.predNames)
	if err != nil {
		return nil, err
	}
	if _, err := p.emitInto(NewGraphSink(g)); err != nil {
		return nil, err
	}
	g.Freeze()
	return g, nil
}

// Emit runs the generation pipeline into an arbitrary sink and returns
// the number of edges delivered. Flush is ALWAYS called once the plan
// is valid — even when emission fails — so sinks that own resources
// (open partition files, writer pools) can release them; the emission
// error takes precedence over a flush error.
func Emit(cfg *schema.GraphConfig, opt Options, sink EdgeSink) (int, error) {
	p, err := newPlan(cfg, opt)
	if err != nil {
		return 0, err
	}
	return p.emitInto(sink)
}

// emitInto is the one run/flush sequencing every entry point (Generate,
// Emit, EmitPredicate) goes through: run the emission stage,
// tell an abortable sink when it failed, Flush exactly once either way,
// and report the emission error ahead of a flush error.
func (p *plan) emitInto(sink EdgeSink) (int, error) {
	runErr := p.run(sink)
	if runErr != nil {
		abortSink(sink) // don't finalize indexes over partial output
	}
	flushErr := sink.Flush()
	if runErr != nil {
		return 0, runErr
	}
	if flushErr != nil {
		return 0, flushErr
	}
	return p.emitted, nil
}

// EmitPredicate runs the generation pipeline into sink for a single
// predicate: only the emission shards of constraints labeled pred are
// scheduled, with the exact sub-seeds and relative flush order they
// have in a full Emit of the same (configuration, options) — so the
// sink observes precisely the full run's subsequence for that
// predicate, edge for edge. This is the slice-serving entry point:
// because shard sub-seeds are fixed at plan time, any process can
// answer "the edges of predicate p" without generating the rest of
// the instance and without any shared state. Flush is ALWAYS called
// once the plan is valid and the predicate known, exactly as in Emit.
func EmitPredicate(cfg *schema.GraphConfig, opt Options, pred string, sink EdgeSink) (int, error) {
	p, err := newPlan(cfg, opt)
	if err != nil {
		return 0, err
	}
	pi := cfg.Schema.PredicateIndex(pred)
	if pi < 0 {
		return 0, fmt.Errorf("graphgen: unknown predicate %q", pred)
	}
	kept := p.shards[:0]
	for i := range p.shards {
		if p.shards[i].cp.pred == graph.PredID(pi) {
			kept = append(kept, p.shards[i])
		}
	}
	p.shards = kept
	return p.emitInto(sink)
}

// shardResult is what one emit worker hands the flusher: the shard's
// edges as id columns (batch path) or as rendered lines (rendering
// path), never both.
type shardResult struct {
	srcs, dsts []graph.NodeID
	chunks     [][]byte
	edges      int
	err        error
}

// run executes the emission stage: shards fan out across the workers
// with fanout.Ordered, which runs them on the caller's goroutine when
// there is one. Each shard is buffered privately — as a (srcs, dsts)
// batch, or, for a rendering sink, as the final text in pooled chunks
// — and the caller consumes the results strictly in (constraint, shard)
// order, so the sink observes one call per non-empty shard, the same
// sequence at any worker count. At most k shards are admitted and not
// yet flushed, so in-flight memory is bounded by the worker count
// times the largest shard, not by the whole graph, even when an early
// shard is the slowest. Once a shard fails, workers bail out at their
// next edge or chunk and every unflushed shard's chunks go back to the
// pool.
func (p *plan) run(sink EdgeSink) error {
	p.emitted = 0
	k := fanout.Workers(p.opt.Parallelism)
	// A rendering sink gets its bytes from the workers. A sink laid out
	// for fewer predicates than the plan emits falls back to the batch
	// path, where the mismatch surfaces on the caller's goroutine.
	var lines []graph.EdgeLine
	p.chunks = nil
	rs, _ := sink.(renderingSink)
	if rs != nil {
		lines = rs.edgeLines()
	}
	if lines == nil || len(lines) < len(p.predNames) {
		rs = nil
	} else {
		p.chunks = newChunkPool(renderChunksPerWorker * k)
	}
	return fanout.Ordered(len(p.shards), k, k,
		func(_, i int, aborted *atomic.Bool) shardResult {
			sp := &p.shards[i]
			if rs != nil {
				return sp.render(p.opt, lines[sp.cp.pred], p.totalNodes, p.chunks, aborted)
			}
			return sp.collect(p.opt, aborted)
		},
		func(i int, r shardResult) error {
			defer p.chunks.put(r.chunks)
			sp := &p.shards[i]
			if r.err != nil {
				return sp.wrap(r.err)
			}
			if r.edges == 0 {
				return nil
			}
			var err error
			if rs != nil {
				err = rs.addRendered(sp.cp.pred, r.edges, r.chunks)
			} else {
				err = sink.AddEdgeBatch(sp.cp.pred, r.srcs, r.dsts)
			}
			if err == nil {
				p.emitted += r.edges
			}
			return err
		},
		func(r shardResult) { p.chunks.put(r.chunks) })
}

// collect emits one shard into a private (srcs, dsts) batch.
func (sp *shardPlan) collect(opt Options, aborted *atomic.Bool) (r shardResult) {
	expect := sp.expectedEdges()
	r.srcs = make([]graph.NodeID, 0, expect)
	r.dsts = make([]graph.NodeID, 0, expect)
	r.err = sp.emit(opt, func(src, dst graph.NodeID) error {
		if aborted.Load() {
			return errAborted
		}
		r.srcs = append(r.srcs, src)
		r.dsts = append(r.dsts, dst)
		return nil
	})
	r.edges = len(r.srcs)
	return r
}

// render emits one shard straight into its final text: every edge is
// appended in place to the current chunk, and a fresh chunk is drawn
// whenever the worst-case line of this plan's node ids might not fit,
// so no chunk ever grows and the id columns never exist.
func (sp *shardPlan) render(opt Options, line graph.EdgeLine, numNodes int, pool *chunkPool, aborted *atomic.Bool) (r shardResult) {
	maxLine := line.MaxLen(numNodes)
	var cur []byte
	r.err = sp.emit(opt, func(src, dst graph.NodeID) error {
		if cap(cur)-len(cur) < maxLine {
			if aborted.Load() {
				return errAborted
			}
			if cur != nil {
				r.chunks = append(r.chunks, cur)
			}
			cur = pool.get()
		}
		cur = line.Append(cur, src, dst)
		r.edges++
		return nil
	})
	if cur != nil {
		r.chunks = append(r.chunks, cur)
	}
	return r
}

// errAborted marks work cancelled after another shard already failed;
// the flusher never reports it as the run's error because the
// originating failure always carries a lower shard index or reached
// the sink first.
var errAborted = fmt.Errorf("generation aborted")

// emit generates the edges of one shard, invoking emitEdge once per
// edge in a deterministic order governed only by the shard's sub-seed.
//
// A shard covering its constraint's full ranges reproduces the
// unsharded algorithm exactly. A sub-range shard draws occurrence
// vectors over its own node ranges; with both sides specified the two
// sub-range vectors are paired against each other (range-stratified
// pairing), which preserves every node's degree distribution exactly —
// each node draws from the same Din/Dout as before — while the
// min-truncation of Fig. 5 is applied per shard instead of globally
// (the expected surplus lost this way is O(sqrt(edges per shard)) per
// shard, negligible at the default granularity). The target stripe is
// rotated against the source stripe (see appendShards), so the
// stratification never produces block-diagonal or disconnected
// instances. A non-specified side keeps uniform random pairing over
// the full partner type, exactly as unsharded.
//
// The RNG and both vectors come from a pooled shardScratch, so a warm
// shard allocates nothing.
func (sp *shardPlan) emit(opt Options, emitEdge func(src, dst graph.NodeID) error) error {
	cp := sp.cp
	nSrc, nTrg := sp.srcHi-sp.srcLo, sp.trgHi-sp.trgLo
	if nSrc == 0 || nTrg == 0 {
		return nil
	}
	s := scratchPool.Get().(*shardScratch)
	defer s.release(opt.scratchKeep())
	s.src.Seed(sp.seed)

	var err error
	if cp.out.sampler != nil {
		if s.out, err = occurrenceVector(s.out, cp.out, nSrc, s.rng); err != nil {
			return fmt.Errorf("out-distribution: %w", err)
		}
	}
	if cp.in.sampler != nil {
		if s.in, err = occurrenceVector(s.in, cp.in, nTrg, s.rng); err != nil {
			return fmt.Errorf("in-distribution: %w", err)
		}
	}
	vsrc, vtrg := s.out, s.in

	srcOff := cp.srcOff + int32(sp.srcLo)
	trgOff := cp.trgOff + int32(sp.trgLo)
	switch {
	case cp.out.sampler == nil && cp.in.sampler == nil:
		// Validate() rejects this, but guard anyway.
		return fmt.Errorf("both distributions non-specified")
	case cp.out.sampler == nil:
		// Out-distribution non-specified: each incoming occurrence is
		// paired with a uniformly random source node over the whole
		// source type.
		for _, j := range vtrg {
			if err := emitEdge(cp.srcOff+int32(s.src.Intn(cp.nSrc)), trgOff+j); err != nil {
				return err
			}
		}
		return nil
	case cp.in.sampler == nil:
		// In-distribution non-specified: uniform random targets over
		// the whole target type.
		for _, j := range vsrc {
			if err := emitEdge(srcOff+j, cp.trgOff+int32(s.src.Intn(cp.nTrg))); err != nil {
				return err
			}
		}
		return nil
	}

	// Fig. 5 shuffles both vectors and pairs the prefix of the shorter
	// length. Pairing shuffle(vsrc) with shuffle(vtrg) truncated to m is
	// distribution-equivalent to keeping the shorter vector in place and
	// drawing a random m-subset of the longer one in random order
	// (Section 4: partial Fisher-Yates, m swaps instead of
	// |vsrc|+|vtrg|).
	m := min(len(vsrc), len(vtrg))
	longer := vsrc
	if len(vtrg) > len(vsrc) {
		longer = vtrg
	}
	partialShuffle(longer, m, &s.src)
	for i := 0; i < m; i++ {
		if err := emitEdge(srcOff+vsrc[i], trgOff+vtrg[i]); err != nil {
			return err
		}
	}
	return nil
}

// shardScratch is one emission shard's working memory: the RNG and the
// two occurrence vectors. A shard takes one from scratchPool, re-seeds
// src (which allocates nothing) and fills the vectors in place.
type shardScratch struct {
	src     prng.Source
	rng     *rand.Rand // over src, for the samplers
	out, in []int32
}

var scratchPool = sync.Pool{New: func() any {
	s := new(shardScratch)
	s.rng = rand.New(&s.src)
	return s
}}

// release returns s to the pool, first dropping any vector that holds
// more than keep entries, so the pool retains O(workers x shard) and
// one outsized shard's vectors are garbage as soon as it is done.
func (s *shardScratch) release(keep int) {
	if cap(s.out) > keep {
		s.out = nil
	}
	if cap(s.in) > keep {
		s.in = nil
	}
	scratchPool.Put(s)
}

// scratchKeep is the largest occurrence vector a released shard
// scratch keeps: twice the shard edge target, 256K entries (1 MiB) at
// the default granularity.
func (o Options) scratchKeep() int {
	target := o.ShardEdges
	if target <= 0 {
		target = defaultShardEdges
	}
	return 2 * target
}

// occurrenceVector draws the per-node degree occurrences of one side
// into v's storage: node j (0-based within the shard's sub-range)
// appears draw(D) times. It fails rather than grow a side past
// math.MaxInt32 occurrences, the most an int32 CSR offset can count.
//
// Each node's run is written after one capacity check. Most degrees
// are small, so the first four copies are stored unconditionally —
// slots past the run lie beyond len and the next run overwrites them —
// and only a longer run loops: a loop whose trip count is the random
// degree mispredicts its exit on nearly every node, which cost more
// than drawing the degree.
func occurrenceVector(v []int32, d degreeSide, n int, rng *rand.Rand) ([]int32, error) {
	v = v[:0]
	if c := occurrenceCap(d.mean, n); cap(v) < c {
		v = make([]int32, 0, c)
	}
	for j := 0; j < n; j++ {
		k := d.sampler.Sample(rng)
		if k > math.MaxInt32-len(v) {
			return nil, fmt.Errorf("more than %d occurrences over %d nodes", math.MaxInt32, n)
		}
		l, x := len(v), int32(j)
		v = slices.Grow(v, max(k, 4))
		head := v[l : l+4]
		head[0], head[1], head[2], head[3] = x, x, x, x
		if k > 4 {
			tail := v[l+4 : l+k]
			for i := range tail {
				tail[i] = x
			}
		}
		v = v[:l+k]
	}
	return v, nil
}

// occurrenceCap pre-sizes an occurrence vector of n nodes drawing with
// the given mean, to avoid repeated growth. The expected total counts
// only when it is finite and fits in int32: a huge finite mean would
// overflow the int conversion into a negative capacity, so the vector
// then starts small and grows with what is actually drawn.
func occurrenceCap(mean float64, n int) int {
	c := n/8 + 16
	if e := mean * float64(n); e >= 0 && e <= math.MaxInt32 {
		c += int(e)
	}
	return c
}

// partialShuffle performs the first m steps of a Fisher-Yates shuffle,
// leaving a uniform random m-subset of v in uniform random order at
// v[:m]. It draws from src as rand.New(src).Intn would.
func partialShuffle(v []int32, m int, src *prng.Source) {
	n := len(v)
	for i := 0; i < m && i < n-1; i++ {
		j := i + src.Intn(n-i)
		v[i], v[j] = v[j], v[i]
	}
}
