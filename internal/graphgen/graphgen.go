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
//     edge constraint eta(T1, T2, a) = (Din, Dout) a shard draws the
//     degree of every node of its source sub-range from Dout and of
//     its target sub-range from Din, and pairs the two occurrence
//     vectors as Fig. 5 does — shuffle both, pair the prefixes — to
//     produce min(|vsrc|, |vtrg|) a-labeled edges, writing out only
//     the occurrences it pairs. It hands them over in runs, one per
//     node of the side it walks: the node and its partners, which the
//     shard's consumer stores as id columns or renders as text with
//     that node's id rendered once; no per-edge call is left in
//     emission. The heuristic never
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
//     count the emit workers render their own shard's lines, a run at
//     a time, with graph.EdgeLine and the flusher only concatenates
//     them. Every sink refuses a batch outside its layout — a
//     predicate or node id it has no place for — with an error.
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

	"gmark/internal/dist"
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
	// for fewer predicates or nodes than the plan emits falls back to
	// the batch path, where it refuses the first batch outside its
	// layout with an error, which ends the run.
	var lines []graph.EdgeLine
	p.chunks = nil
	rs, _ := sink.(renderingSink)
	if rs != nil {
		lines = rs.edgeLines(len(p.predNames), p.totalNodes)
	}
	if lines == nil {
		rs = nil
	} else {
		p.chunks = newChunkPool(renderChunksPerWorker * k)
	}
	// Each worker keeps one scratch for the whole run, taken at its
	// first shard; w names the worker, so no two goroutines share one.
	scratch := make([]*shardScratch, k)
	defer func() {
		for _, s := range scratch {
			if s != nil {
				s.release()
			}
		}
	}()
	return fanout.Ordered(len(p.shards), k, k,
		func(w, i int, aborted *atomic.Bool) shardResult {
			if scratch[w] == nil {
				scratch[w] = scratchPool.Get().(*shardScratch)
			}
			sp := &p.shards[i]
			if rs != nil {
				return sp.render(scratch[w], lines[sp.cp.pred], p.totalNodes, p.chunks, aborted)
			}
			return sp.collect(scratch[w], aborted)
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

// collect emits one shard into a private (srcs, dsts) batch, sized to
// the shard's edge count once its degrees are drawn, so it never
// regrows: each run fills the fixed column with its node and the other
// with its partners.
func (sp *shardPlan) collect(s *shardScratch, aborted *atomic.Bool) (r shardResult) {
	m, err := sp.draw(s)
	if err != nil {
		r.err = err
		return r
	}
	r.srcs = make([]graph.NodeID, m)
	r.dsts = make([]graph.NodeID, m)
	fixedCol, otherCol := r.srcs, r.dsts
	if !sp.fixesSource(s) {
		fixedCol, otherCol = r.dsts, r.srcs
	}
	r.err = sp.pair(s, m, func(fixed graph.NodeID, partners []int32, off int32) error {
		if aborted.Load() {
			return errAborted
		}
		at := r.edges
		same, other := fixedCol[at:at+len(partners)], otherCol[at:at+len(partners)]
		for i, x := range partners {
			same[i] = fixed
			other[i] = off + x
		}
		r.edges += len(partners)
		return nil
	})
	r.srcs, r.dsts = r.srcs[:r.edges], r.dsts[:r.edges]
	return r
}

// render emits one shard straight into its final text: each run is
// rendered in place into the current chunk, as many whole lines at a
// time as the worst-case line of this plan's node ids guarantees fit,
// and a fresh chunk is drawn when not even one does, so no chunk ever
// grows and the id columns never exist.
func (sp *shardPlan) render(s *shardScratch, line graph.EdgeLine, numNodes int, pool *chunkPool, aborted *atomic.Bool) (r shardResult) {
	m, err := sp.draw(s)
	if err != nil {
		r.err = err
		return r
	}
	maxLine := line.MaxLen(numNodes)
	fromSrc := sp.fixesSource(s)
	var cur []byte
	r.err = sp.pair(s, m, func(fixed graph.NodeID, partners []int32, off int32) error {
		r.edges += len(partners)
		for len(partners) > 0 {
			n := (cap(cur) - len(cur)) / maxLine
			if n == 0 {
				if aborted.Load() {
					return errAborted
				}
				if cur != nil {
					r.chunks = append(r.chunks, cur)
				}
				cur = pool.get()
				continue
			}
			n = min(n, len(partners))
			if fromSrc {
				cur = line.AppendFrom(cur, fixed, partners[:n], off)
			} else {
				cur = line.AppendTo(cur, fixed, partners[:n], off)
			}
			partners = partners[n:]
		}
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

// draw seeds s's RNG with the shard's sub-seed, draws the degree of
// every node of each specified side into s, the out side first, and
// returns the number of edges the shard will emit: the one specified
// side's occurrences, or the smaller of the two sides' (Fig. 5's m).
// pair then emits them.
//
// A shard covering its constraint's full ranges reproduces the
// unsharded algorithm exactly. A sub-range shard draws degrees over
// its own node ranges; with both sides specified the two sub-range
// sides are paired against each other (range-stratified pairing),
// which preserves every node's degree distribution exactly — each node
// draws from the same Din/Dout as before — while the min-truncation of
// Fig. 5 is applied per shard instead of globally (the expected
// surplus lost this way is O(sqrt(edges per shard)) per shard,
// negligible at the default granularity). The target stripe is
// rotated against the source stripe (see appendShards), so the
// stratification never produces block-diagonal or disconnected
// instances. A non-specified side keeps uniform random pairing over
// the full partner type, exactly as unsharded.
//
// The RNG and every buffer come from s, the emit worker's scratch, so
// a shard on a warm worker allocates nothing.
func (sp *shardPlan) draw(s *shardScratch) (int, error) {
	cp := sp.cp
	nSrc, nTrg := sp.srcHi-sp.srcLo, sp.trgHi-sp.trgLo
	if nSrc == 0 || nTrg == 0 {
		return 0, nil
	}
	if cp.out == nil && cp.in == nil {
		// Validate() rejects this, but guard anyway.
		return 0, fmt.Errorf("both distributions non-specified")
	}
	s.src.Seed(sp.seed)
	var err error
	if cp.out != nil {
		if s.out, s.outTotal, err = drawDegrees(s.out, cp.out, nSrc, s.rng); err != nil {
			return 0, fmt.Errorf("out-distribution: %w", err)
		}
	}
	if cp.in != nil {
		if s.in, s.inTotal, err = drawDegrees(s.in, cp.in, nTrg, s.rng); err != nil {
			return 0, fmt.Errorf("in-distribution: %w", err)
		}
	}
	switch {
	case cp.out == nil:
		return s.inTotal, nil
	case cp.in == nil:
		return s.outTotal, nil
	}
	return min(s.outTotal, s.inTotal), nil
}

// pairRun receives one run of a shard's edges: the edges between fixed,
// a global node id, and off+partners[i], in order. partners belongs to
// the shard and is only valid during the call.
type pairRun func(fixed graph.NodeID, partners []int32, off int32) error

// fixesSource reports which end pair holds fixed through each run of the
// draw left in s: the source when the walked side is the out side — the
// in side is non-specified, or has strictly more occurrences — and the
// target otherwise.
func (sp *shardPlan) fixesSource(s *shardScratch) bool {
	cp := sp.cp
	return cp.in == nil || cp.out != nil && s.inTotal > s.outTotal
}

// pair emits the m edges of the degrees draw left in s as runs: it walks
// the fixed side (fixesSource) in node order and calls run once per node
// with that node's partners, in the order Fig. 5 pairs them. A node's
// degree never sizes a buffer of its own: a run from the long side is a
// slice of it, and a run of random partners is split into blocks of at
// most partnerBlock.
//
// A non-specified side pairs each occurrence of the other side, in
// node order, with a uniformly random node over its whole type.
//
// With both sides specified, Fig. 5 shuffles both occurrence vectors
// and pairs the prefix of the shorter length. That is
// distribution-equivalent to keeping the shorter vector in place and
// drawing a random m-subset of the longer one in random order
// (Section 4: partial Fisher-Yates, m swaps instead of
// |vsrc|+|vtrg|); the longer vector is written whole only while it is
// small (shuffleLong). The source side is the longer one unless the
// target side has strictly more occurrences.
func (sp *shardPlan) pair(s *shardScratch, m int, run pairRun) error {
	if m == 0 {
		return nil
	}
	cp := sp.cp
	srcOff := cp.srcOff + int32(sp.srcLo)
	trgOff := cp.trgOff + int32(sp.trgLo)
	switch {
	case cp.out == nil:
		return s.pairUniform(s.in, trgOff, cp.nSrc, cp.srcOff, run)
	case cp.in == nil:
		return s.pairUniform(s.out, srcOff, cp.nTrg, cp.trgOff, run)
	}

	// The short side is paired whole and in node order, so it is walked
	// from its degrees and never written out.
	short, long, longTotal := s.in, s.out, s.outTotal
	fixedOff, off := trgOff, srcOff
	if sp.fixesSource(s) {
		short, long, longTotal = s.out, s.in, s.inTotal
		fixedOff, off = srcOff, trgOff
	}
	partners := s.shuffleLong(long, longTotal, m)
	for j, k := range short {
		if k == 0 {
			continue
		}
		if err := run(fixedOff+int32(j), partners[:k], off); err != nil {
			return err
		}
		partners = partners[k:]
	}
	return nil
}

// partnerBlock is the most partners pairUniform draws before handing
// them over: a node of larger degree takes several runs.
const partnerBlock = 4096

// pairUniform walks deg, the specified side's degrees over the nodes
// from fixedOff, and pairs each occurrence with a uniformly random one
// of the n partner nodes from off, drawn into s.partners in the order
// the edges are emitted.
func (s *shardScratch) pairUniform(deg []int32, fixedOff int32, n int, off int32, run pairRun) error {
	if s.partners == nil {
		s.partners = make([]int32, partnerBlock)
	}
	for j, k := range deg {
		for k > 0 {
			block := s.partners[:min(int(k), partnerBlock)]
			for i := range block {
				block[i] = int32(s.src.Intn(n))
			}
			if err := run(fixedOff+int32(j), block, off); err != nil {
				return err
			}
			k -= int32(len(block))
		}
	}
	return nil
}

// pairDense is how many times longer than the paired prefix m the long
// side may be and still be written out whole and shuffled in place.
// The replay that replaces the write past it holds 4m entries, so at
// this bound the two paths hold the same.
const pairDense = 4

// shuffleLong returns what partialShuffle leaves in the first m
// entries of the long side's full occurrence vector — node j deg[j]
// times, L entries in all — drawing the same positions from s.src.
// While the long side is small (sparsePairing) it writes that vector
// into s.long and shuffles it; past that it writes the first m
// occurrences and replays the draws over them (sparseShuffle), holding
// nothing sized by L.
func (s *shardScratch) shuffleLong(deg []int32, L, m int) []int32 {
	if !sparsePairing(L, m) {
		s.long = expand(s.long, deg, L)
		partialShuffle(s.long, m, &s.src)
		return s.long[:m]
	}
	// The prefix, the draws and a set of twice the draws: 4m entries.
	if cap(s.long) < 4*m {
		s.long = make([]int32, 4*m)
	}
	v := expand(s.long, deg, m)
	s.sparseShuffle(v, v[m:cap(v)], deg, L)
	return v
}

// sparsePairing reports whether a long side of L occurrences paired
// over m edges is replayed rather than written: when the whole vector
// would be both longer than pairDense·m and longer than scratchKeep,
// what a worker's scratch may keep between runs anyway. Within either
// bound the write is the faster path — the replay's set, guide table
// and branches took 1.2x the write's time per edge on a 2 000-edge
// shard and 1.4–1.9x from 20 000 edges up (one core of an AMD EPYC) —
// and holds no more than the worker already does.
func sparsePairing(L, m int) bool {
	return L > scratchKeep && int64(L) > pairDense*int64(m)
}

// shardScratch is one emit worker's working memory for a run: the RNG
// and every buffer a shard fills. The worker takes it from scratchPool
// at its first shard and keeps it to the end of the run, re-seeding
// src per shard (which allocates nothing) and refilling the buffers in
// place.
type shardScratch struct {
	src prng.Source
	rng *rand.Rand // over src, for the samplers

	// out and in are each specified side's drawn degrees, one per node
	// of the shard's sub-range, and outTotal and inTotal their sums.
	out, in           []int32
	outTotal, inTotal int

	// long holds the long side's occurrences: all of them on the dense
	// path; on the sparse one the first m, then the replay's draws and
	// its set, which the guide table takes over once the draws are done.
	long []int32

	// repeats is the sparse path's table of what the positions drawn
	// more than once hold.
	repeats []repeatSlot

	// partners is pairUniform's block of random partners, partnerBlock
	// entries once the worker has paired a non-specified side.
	partners []int32
}

// repeatSlot is one position of the long side drawn more than once and
// the node it holds now. pos is the position plus one: 0 marks an
// empty slot.
type repeatSlot struct{ pos, val int32 }

func newShardScratch() *shardScratch {
	s := new(shardScratch)
	s.rng = rand.New(&s.src)
	return s
}

var scratchPool = sync.Pool{New: func() any { return newShardScratch() }}

// scratchKeep is the most entries a buffer of a released scratch may
// hold, 256K (1 MiB of int32): twice the default shard edge target.
const scratchKeep = 2 * defaultShardEdges

// release returns s to scratchPool at the end of a run, first dropping
// every buffer larger than scratchKeep, so the pool retains O(workers ×
// shard) and one outsized shard's buffers are garbage once its run is
// done.
func (s *shardScratch) release() {
	s.out, s.in = bounded(s.out), bounded(s.in)
	s.long, s.repeats = bounded(s.long), bounded(s.repeats)
	s.partners = bounded(s.partners)
	scratchPool.Put(s)
}

func bounded[T any](v []T) []T {
	if cap(v) > scratchKeep {
		return nil
	}
	return v
}

// resize returns v's storage resized to n entries, allocating only when
// it is too small; the entries' values are unspecified.
func resize[T any](v []T, n int) []T {
	return slices.Grow(v[:0], n)[:n]
}

// drawDegrees draws one side's degree for each of its n nodes, in node
// order, into d's storage, and returns them with their sum. It fails
// before the sum passes math.MaxInt32, the most an int32 CSR offset
// can count, so no occurrence buffer is ever sized past it.
func drawDegrees(d []int32, side dist.Sampler, n int, rng *rand.Rand) ([]int32, int, error) {
	d = resize(d, n)
	total := 0
	for j := range d {
		k := side.Sample(rng)
		if k > math.MaxInt32-total {
			return d, 0, fmt.Errorf("more than %d occurrences over %d nodes", math.MaxInt32, n)
		}
		d[j] = int32(k)
		total += k
	}
	return d, total, nil
}

// expand writes the first n occurrences of deg — node j's index deg[j]
// times, in node order — into v's storage and returns them.
//
// Most degrees are small, so a run's first four copies are stored
// unconditionally — slots past the run are overwritten by the next
// run or lie in the three spare entries kept past n — and only a
// longer run loops: a loop whose trip count is the random degree
// mispredicts its exit on nearly every node.
func expand(v, deg []int32, n int) []int32 {
	if cap(v) < n+3 {
		v = make([]int32, n+3)
	}
	v = v[:cap(v)]
	l := 0
	for j, k := range deg {
		if l >= n {
			break
		}
		x := int32(j)
		head := v[l : l+4]
		head[0], head[1], head[2], head[3] = x, x, x, x
		r := min(int(k), n-l)
		if r > 4 {
			tail := v[l+4 : l+r]
			for i := range tail {
				tail[i] = x
			}
		}
		l += r
	}
	return v[:n]
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

// sparseShuffle leaves in v what partialShuffle leaves in w[:m],
// m = len(v), where w is the long side's full occurrence vector — node
// j deg[j] times, L > m entries — of which v holds the first m. It
// writes nothing of w past m. spare, at least 3m entries, holds the
// draws and after them the set markRepeat fills, twice as long; once
// the draws are done the guide table (positions) takes the set's place.
//
// It draws every position j_i = i + Intn(L-i) first, exactly
// partialShuffle's draws, marking the positions past m drawn more than
// once as it goes. Step i then swaps within the prefix when j_i < m; a
// position past m that is drawn once still holds its original node,
// which the guide table finds from the prefix sums of deg; a position
// drawn more than once holds its current node in s.repeats, a table
// sized by the repeats. deg becomes its prefix sums.
func (s *shardScratch) sparseShuffle(v, spare, deg []int32, L int) {
	m := len(v)
	draws := spare[:min(m, L-1)]
	set := spare[len(draws) : 3*len(draws)]
	clear(set)
	repeats := 0
	for i := range draws {
		draws[i] = int32(i + s.src.Intn(L-i))
		if int(draws[i]) >= m && markRepeat(draws, set, i) {
			repeats++
		}
	}
	s.repeats = resize(s.repeats, 2*repeats)
	clear(s.repeats)
	at := newPositions(deg, L, spare[len(draws):])
	for i, j := range draws {
		switch {
		case j < 0:
			e := s.repeat(^j)
			if e.pos == 0 {
				*e = repeatSlot{pos: ^j + 1, val: v[i]}
				v[i] = at.node(^j)
			} else {
				e.val, v[i] = v[i], e.val
			}
		case int(j) < m:
			v[i], v[j] = v[j], v[i]
		default:
			v[i] = at.node(j)
		}
	}
}

// home is position p's first slot in an open-addressing table of n
// slots: a Fibonacci hash of p scaled to [0, n) by a multiply and a
// shift, so a table can be exactly twice its key count.
func home(p int32, n int) int {
	return int(uint64(uint32(p)*0x9e3779b1) * uint64(n) >> 32)
}

// markRepeat enters draw i, a position past the prefix, into set, an
// open-addressing table at most half full whose slots hold the index
// + 1 of a position's first draw (0 when empty). When the position was
// drawn before, it flips that first draw and draw i to ^position and
// reports whether the position is newly found repeated.
func markRepeat(draws, set []int32, i int) bool {
	j := draws[i]
	for h := home(j, len(set)); ; {
		first := set[h] - 1
		if first < 0 {
			set[h] = int32(i) + 1
			return false
		}
		if q := draws[first]; q == j || q == ^j {
			draws[first], draws[i] = ^j, ^j
			return q == j
		}
		if h++; h == len(set) {
			h = 0
		}
	}
}

// repeat returns position p's slot in s.repeats, or the empty slot
// where it goes.
func (s *shardScratch) repeat(p int32) *repeatSlot {
	for h := home(p, len(s.repeats)); ; {
		if e := &s.repeats[h]; e.pos == 0 || e.pos == p+1 {
			return e
		}
		if h++; h == len(s.repeats) {
			h = 0
		}
	}
}

// positions finds the node at a position of an occurrence vector —
// node k at positions ends[k-1] to ends[k]-1 — through a guide table:
// bucket g covers the 2^shift positions from g<<shift, and guide[g] is
// the node at the bucket's first position, a lower bound for every
// position of the bucket.
type positions struct {
	ends, guide []int32
	shift       uint
}

// newPositions turns deg into its prefix sums and lays the guide over
// them in space: one bucket per node while space has room, so a lookup
// scans forward past about one node where a binary search would take
// log2(nodes) dependent steps.
func newPositions(deg []int32, L int, space []int32) positions {
	var end int32
	for k, d := range deg {
		end += d
		deg[k] = end
	}
	at := positions{ends: deg}
	for (L-1)>>at.shift >= max(1, min(len(deg), len(space))) {
		at.shift++
	}
	at.guide = space[:(L-1)>>at.shift+1]
	k := int32(0)
	for g := range at.guide {
		for p := int32(g << at.shift); deg[k] <= p; {
			k++
		}
		at.guide[g] = k
	}
	return at
}

// node returns the node at position p.
func (at positions) node(p int32) int32 {
	k := at.guide[p>>at.shift]
	for at.ends[k] <= p {
		k++
	}
	return k
}
