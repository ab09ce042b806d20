package eval

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"gmark/internal/bitset"
	"gmark/internal/fanout"
	"gmark/internal/query"
)

// EvalOptions tunes how an evaluation executes; the zero value selects
// the defaults. It changes only the schedule and the memory footprint,
// never the result: parallel counts are pinned equal to sequential
// ones.
type EvalOptions struct {
	// Workers is the number of goroutines the streaming evaluator
	// shards its range-ordered scan across (zero or less = GOMAXPROCS,
	// 1 = sequential: the generators' Parallelism convention,
	// fanout.Workers).
	// Queries that fall back to the join evaluator run sequentially
	// regardless. Workers > 1 requires a concurrency-safe Source —
	// the frozen *graph.Graph and SpillSource both are. With Workers >
	// 1 the MaxPairs budget is charged conservatively: unary unions
	// deduplicate per worker, so duplicate endpoints found by two
	// workers may charge twice; the budget is still a hard bound and
	// never undercharges relative to the result size.
	Workers int
}

// CountWith evaluates the query under set semantics and returns the
// number of distinct head tuples, |Q(G)| (the selectivity of Q on G,
// paper Section 5.2.1). Chain-shaped rules with endpoint projections
// are evaluated by a streaming scan; everything else goes through the
// join evaluator. Workers shards the streaming scan into per-node-range
// work units evaluated by a bounded worker pool, merging per-range
// accumulators so the parallel count equals the sequential one exactly.
// A source that records lookup failures it could not return (an Err
// method, like SpillSource's shard loads) fails the count with that
// error instead of passing a silently small result.
//
// The scan walks windows of 64·L consecutive sources, L mask words per
// node, chosen once per count: the largest L in {1, 2, 4, 8} whose
// frontier mask (8·L B per node) fits 2 MiB and whose window is no
// wider than the widest range scanned (a RangedSource's widest storage
// range, else all nodes) rounded up to 64. Each worker holds one pooled
// scratch for the duration of the count: up to seven frontiers of 8·L B
// + 1 bit per node — two always, two more for paths of two or more
// symbols, two for Kleene stars, one for pair unions of several rules —
// plus one bit per node for unary results, so at most (56·L + 1) B x
// NumNodes per worker. Up to 131 072 nodes that is at most 14 MiB + 1 B
// x NumNodes; above, L is 1 and the bound 57 B x NumNodes (a 1M-node
// graph: 16 MB for a one-symbol chain, 57 MB at most). Scratches are
// recycled across counts on graphs of the same size and width; a warm
// count allocates a small constant, independent of the number of
// sources.
func CountWith(g Source, q *query.Query, b Budget, opt EvalOptions) (int64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	defer AcquireSourceReader(g)()
	meter := newMeter(b)
	var n int64
	var err error
	if plans, ok := planStreaming(g, q); ok {
		n, err = countStreaming(g, q, plans, meter, fanout.Workers(opt.Workers))
	} else {
		n, err = countJoin(g, q, meter)
	}
	if err != nil {
		return 0, err
	}
	if err := SourceErr(g); err != nil {
		return 0, err
	}
	return n, nil
}

// streamPlan describes one rule normalized for streaming evaluation:
// a sequence of compiled expressions applied left to right from the
// iterated source variable, plus how the head projects onto the
// (source, target) endpoints.
type streamPlan struct {
	exprs []compiledExpr
	proj  projection
}

type projection uint8

const (
	projBoolean projection = iota // head ()
	projSource                    // head (start)
	projTarget                    // head (end)
	projPair                      // head (start, end)
)

// planStreaming checks whether every rule is a chain whose head uses
// only the chain endpoints, and builds per-rule plans. Rules whose
// head is (end, start) are reversed so that all plans stream from the
// same tuple orientation.
func planStreaming(g Source, q *query.Query) ([]streamPlan, bool) {
	plans := make([]streamPlan, 0, len(q.Rules))
	for _, r := range q.Rules {
		start, end, ok := chainEndpoints(r)
		if !ok {
			return nil, false
		}
		exprs := make([]compiledExpr, len(r.Body))
		for i, c := range r.Body {
			ce, err := compileExpr(g, c.Expr)
			if err != nil {
				return nil, false
			}
			exprs[i] = ce
		}
		var p streamPlan
		switch {
		case len(r.Head) == 0:
			p = streamPlan{exprs: exprs, proj: projBoolean}
		case len(r.Head) == 1 && r.Head[0] == start:
			p = streamPlan{exprs: exprs, proj: projSource}
		case len(r.Head) == 1 && r.Head[0] == end:
			p = streamPlan{exprs: exprs, proj: projTarget}
		case len(r.Head) == 2 && r.Head[0] == start && r.Head[1] == end:
			p = streamPlan{exprs: exprs, proj: projPair}
		case len(r.Head) == 2 && r.Head[0] == end && r.Head[1] == start:
			// Reverse the chain so the streamed pair is (head0, head1).
			rev := make([]compiledExpr, len(exprs))
			for i, e := range exprs {
				rev[len(exprs)-1-i] = e.reverse()
			}
			p = streamPlan{exprs: rev, proj: projPair}
		default:
			return nil, false
		}
		plans = append(plans, p)
	}
	return plans, true
}

// chainEndpoints checks that the rule body is a variable chain
// x0 -> x1 -> ... -> xk with distinct variables and returns (x0, xk).
func chainEndpoints(r query.Rule) (start, end query.Var, ok bool) {
	seen := map[query.Var]bool{}
	for i, c := range r.Body {
		if i == 0 {
			start = c.Src
			seen[start] = true
		} else if c.Src != end {
			return 0, 0, false
		}
		if seen[c.Dst] {
			return 0, 0, false
		}
		seen[c.Dst] = true
		end = c.Dst
	}
	return start, end, true
}

// countStreaming evaluates all plans one window of 64·L consecutive
// sources at a time (window.go), unioning the per-window results across
// rules before counting, which yields distinct counts across the whole
// union without materializing it. Unary rules project either chain
// endpoint — a union may mix head (start) and head (end) rules — so all
// unary projections accumulate into one shared node set and the final
// dispatch goes by query arity, never by any single rule's projection.
//
// The source scan is ordered by the source's storage ranges (one spill
// shard's sources are exhausted before the next shard loads), and each
// plan carries a start mask built from the source's active domains, so
// a range no plan can start in is skipped with pure bitmap work — over
// a spill, shards holding no candidate sources are never read at all.
//
// The surviving ranges are claimed in order by up to workers goroutines
// (fanout.Each; one worker scans on the caller's goroutine); each worker
// owns a scratch and the partial results merge deterministically
// afterwards, so the parallel count equals the sequential one exactly.
// A Boolean witness raises the stop flag so no further range is
// claimed and every worker quits early.
func countStreaming(g Source, q *query.Query, plans []streamPlan, meter *Meter, workers int) (int64, error) {
	n := g.NumNodes()
	arity := q.Arity()

	masks := make([]*bitset.Set, len(plans))
	for i := range plans {
		masks[i] = startMask(g, plans[i].exprs[0])
	}

	words := windowWordsFor(g)
	ranges := make([]NodeRange, 0, 8)
	for _, rg := range scanRanges(g, workers, words) {
		if rangeHasStart(masks, rg) {
			ranges = append(ranges, rg)
		}
	}
	// A worker beyond the number of ranges, or of windows any plan can
	// start in, would find nothing to do.
	workers = min(workers, len(ranges), startWindows(masks, ranges, words, workers))

	// Every optional interface of g has been consulted above; from here
	// on each scanning goroutine walks Neighbors through its own
	// WorkerSource, released before the count returns so the source's
	// statistics are complete when the caller reads them.
	states := make([]*scratch, max(workers, 1))
	views := make([]Source, len(states))
	for w := range states {
		states[w] = acquireScratch(n, words)
		defer states[w].release()
		var release func()
		views[w], release = WorkerSource(g)
		defer release()
	}
	err := fanout.Each(len(ranges), workers, func(w, i int, stop *atomic.Bool) error {
		return scanRange(views[w], plans, masks, ranges[i], states[w], meter, stop)
	})
	// A witness outranks worker errors: sequentially the witness would
	// have ended the scan before the other ranges ran at all.
	for _, st := range states {
		if st.witness {
			return 1, nil
		}
	}
	if err != nil {
		return 0, err
	}
	return finishStreaming(arity, states), nil
}

// scanRange runs the streaming scan over one node range in windows of
// st.words words, accumulating into st; ids of a window outside the
// range are masked off, so a range may start and end mid-word. On a
// Boolean witness it charges the tuple, marks st, and raises stop so
// sibling workers quit. The deadline and the stop flag are polled per window
// (and per star level, inside the kernel), so a budget error or witness
// elsewhere halts this worker promptly.
//
// Budget charges are what the result grows by, once per window: a
// sequential evaluation charges exactly its count, whatever the window
// schedule.
func scanRange(g Source, plans []streamPlan, masks []*bitset.Set, rg NodeRange, st *scratch, meter *Meter, stop *atomic.Bool) error {
	start := st.start
	for v0, in := range windows(rg, st.in) {
		if stop.Load() {
			return nil
		}
		if err := meter.Check(); err != nil {
			return err
		}
		var pairs int64
		for pi, p := range plans {
			// A source that cannot begin a match of the first expression
			// contributes nothing (the same restriction evalCompiled
			// applies).
			if !windowStarts(masks[pi], v0, in, start) {
				continue
			}
			if p.proj == projSource && !dropCounted(start, st.nodeUnion, v0) {
				continue
			}
			fin, err := st.runChain(g, p.exprs, v0, start, meter)
			if err != nil {
				return err
			}
			if fin == nil {
				continue
			}
			var grown int64
			switch p.proj {
			case projBoolean:
				// The first witness decides a Boolean query; stop
				// scanning the remaining windows.
				if err := meter.Charge(1); err != nil {
					return err
				}
				st.witness = true
				stop.Store(true)
				return nil
			case projSource:
				reached := st.reached
				clear(reached)
				for _, m := range fin.all() {
					for i, w := range m {
						reached[i] |= w
					}
				}
				for i, w := range reached {
					grown += int64(bits.OnesCount64(w))
					for ; w != 0; w &= w - 1 {
						st.nodeUnion.Add(v0 + int32(i<<6+bits.TrailingZeros64(w)))
					}
				}
			case projTarget:
				grown = int64(st.nodeUnion.UnionWithCount(fin.active))
			case projPair:
				if len(plans) == 1 {
					for _, m := range fin.all() {
						for _, w := range m {
							pairs += int64(bits.OnesCount64(w))
						}
					}
					break
				}
				// Distinct across rules per source: a target two rules
				// reach from one source sets the same bit twice.
				acc := st.slot(slotAcc)
				for v, m := range fin.all() {
					seen := acc.row(v)
					for i, w := range m {
						pairs += int64(bits.OnesCount64(w &^ seen[i]))
					}
					acc.or(v, m)
				}
			}
			fin.clear()
			if grown > 0 {
				if err := meter.Charge(grown); err != nil {
					return err
				}
			}
		}
		if pairs > 0 {
			if len(plans) > 1 {
				st.slot(slotAcc).clear()
			}
			st.total += pairs
			if err := meter.Charge(pairs); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropCounted removes from start, the start mask of the window at v0,
// the sources already in the unary result u — a source projection can
// only ever contribute the source itself, so their chain walks are
// skipped — and reports whether any source remains.
func dropCounted(start []uint64, u *bitset.Set, v0 int32) bool {
	counted := u.Words()
	var some uint64
	for i, w := range start {
		if w != 0 {
			w &^= counted[int(v0>>6)+i]
			start[i] = w
			some |= w
		}
	}
	return some != 0
}

// finishStreaming merges the per-worker partial results into the final
// count: pair totals sum (each source belongs to exactly one range),
// unary endpoint sets union before counting so duplicates found by two
// workers count once, and a witness was already handled by the caller.
func finishStreaming(arity int, states []*scratch) int64 {
	switch arity {
	case 0:
		return 0 // no rule produced a witness
	case 1:
		u := states[0].nodeUnion
		for _, st := range states[1:] {
			u.UnionWith(st.nodeUnion)
		}
		return int64(u.Count())
	default:
		var total int64
		for _, st := range states {
			total += st.total
		}
		return total
	}
}

// scanRanges returns the node ranges the streaming scan walks. A
// RangedSource's own storage ranges are authoritative (each is one
// spill shard, so a worker exhausts a shard before touching the next).
// Otherwise the node space is cut into about four chunks per worker —
// small enough to balance skew, each a multiple of the window of words
// words so no window is split between workers — so parallel scans of
// in-memory graphs get a work queue too.
func scanRanges(g Source, workers, words int) []NodeRange {
	if rs := storageRanges(g); rs != nil {
		return rs
	}
	n := int32(g.NumNodes())
	if n <= 0 {
		return nil
	}
	if workers <= 1 {
		return []NodeRange{{Lo: 0, Hi: n}}
	}
	width := int32(64 * words)
	chunk := (n/int32(workers*4) + width) &^ (width - 1)
	out := make([]NodeRange, 0, int(n/chunk)+1)
	for lo := int32(0); lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, NodeRange{Lo: lo, Hi: hi})
	}
	return out
}

// SourceRanges exposes the evaluator's range-partitioning of a source
// for other evaluation stages (the simulated engines shard their
// per-source outer loops over the same units): a RangedSource's own
// ranges, or an even cut of the node space sized for workers, on
// multiples of 64 ids.
func SourceRanges(g Source, workers int) []NodeRange {
	return scanRanges(g, workers, 1)
}

// rangeHasStart reports whether any plan may have a source inside the
// range; a nil mask (an epsilon disjunct) starts everywhere.
func rangeHasStart(masks []*bitset.Set, rg NodeRange) bool {
	for _, m := range masks {
		if m == nil || m.AnyInRange(rg.Lo, rg.Hi) {
			return true
		}
	}
	return false
}

// startWindows counts the windows of words words of ranges some plan
// may have a source in, up to limit.
func startWindows(masks []*bitset.Set, ranges []NodeRange, words, limit int) int {
	count := 0
	in := make([]uint64, words)
	for _, rg := range ranges {
		for v0, in := range windows(rg, in) {
			if count == limit {
				return count
			}
			if windowHasStart(masks, v0, in) {
				count++
			}
		}
	}
	return count
}

// windowHasStart reports whether any plan may have a source among in,
// the ids of the window at v0.
func windowHasStart(masks []*bitset.Set, v0 int32, in []uint64) bool {
	for _, m := range masks {
		if m == nil {
			return true
		}
		for i, w := range in {
			if w != 0 && w&m.Words()[int(v0>>6)+i] != 0 {
				return true
			}
		}
	}
	return false
}

// countJoin evaluates via the join evaluator and counts distinct head
// tuples.
func countJoin(g Source, q *query.Query, meter *Meter) (int64, error) {
	set, err := joinTuples(g, q, meter)
	if err != nil {
		return 0, err
	}
	if q.Arity() == 0 {
		if len(set) > 0 {
			return 1, nil
		}
		return 0, nil
	}
	return int64(len(set)), nil
}

// joinTuples materializes per-conjunct relations and enumerates rule
// bindings by backtracking joins, collecting distinct head tuples.
func joinTuples(g Source, q *query.Query, meter *Meter) (map[string][]int32, error) {
	out := make(map[string][]int32)
	for ri := range q.Rules {
		if err := joinRule(g, &q.Rules[ri], meter, out); err != nil {
			return nil, fmt.Errorf("rule %d: %w", ri, err)
		}
	}
	return out, nil
}

func joinRule(g Source, r *query.Rule, meter *Meter, out map[string][]int32) error {
	// Materialize each conjunct's relation, with a reverse index for
	// bound-target lookups.
	type crel struct {
		c    query.Conjunct
		fwd  *Rel
		bwd  *Rel
		used bool
	}
	crels := make([]*crel, len(r.Body))
	for i, c := range r.Body {
		ce, err := compileExpr(g, c.Expr)
		if err != nil {
			return err
		}
		fwd, err := evalCompiled(g, ce, meter)
		if err != nil {
			return err
		}
		bwd, err := evalCompiled(g, ce.reverse(), meter)
		if err != nil {
			return err
		}
		crels[i] = &crel{c: c, fwd: fwd, bwd: bwd}
	}

	binding := make(map[query.Var]int32)
	headKey := make([]int32, len(r.Head))

	var emit func() error
	emit = func() error {
		for i, v := range r.Head {
			headKey[i] = binding[v]
		}
		key := packTuple(headKey)
		if _, dup := out[key]; !dup {
			out[key] = append([]int32(nil), headKey...)
			if err := meter.Charge(int64(len(headKey)) + 1); err != nil {
				return err
			}
		}
		return nil
	}

	// Backtracking can run long without a charge — a head of few distinct
	// tuples is charged only when it grows — so the deadline is polled
	// once per 1024 calls, in every branch.
	calls := 0
	var solve func() error
	solve = func() error {
		if calls++; calls&1023 == 0 {
			if err := meter.Check(); err != nil {
				return err
			}
		}
		// Pick the most constrained unused conjunct.
		var pick *crel
		bestScore := -1
		for _, cr := range crels {
			if cr.used {
				continue
			}
			score := 0
			if _, ok := binding[cr.c.Src]; ok {
				score += 2
			}
			if _, ok := binding[cr.c.Dst]; ok {
				score += 2
			}
			if score > bestScore {
				bestScore = score
				pick = cr
			}
		}
		if pick == nil {
			return emit()
		}
		pick.used = true
		defer func() { pick.used = false }()

		src, srcBound := binding[pick.c.Src]
		dst, dstBound := binding[pick.c.Dst]
		sameVar := pick.c.Src == pick.c.Dst
		switch {
		case srcBound && dstBound:
			if containsSorted(pick.fwd.Rows[src], dst) {
				return solve()
			}
			return nil
		case srcBound:
			for _, w := range pick.fwd.Rows[src] {
				if sameVar && w != src {
					continue
				}
				binding[pick.c.Dst] = w
				if err := solve(); err != nil {
					return err
				}
			}
			if !sameVar {
				delete(binding, pick.c.Dst)
			}
			return nil
		case dstBound:
			for _, w := range pick.bwd.Rows[dst] {
				if sameVar && w != dst {
					continue
				}
				binding[pick.c.Src] = w
				if err := solve(); err != nil {
					return err
				}
			}
			if !sameVar {
				delete(binding, pick.c.Src)
			}
			return nil
		default:
			for v, row := range pick.fwd.Rows {
				if err := meter.Check(); err != nil {
					return err
				}
				binding[pick.c.Src] = v
				for _, w := range row {
					if sameVar && w != v {
						continue
					}
					binding[pick.c.Dst] = w
					if err := solve(); err != nil {
						return err
					}
				}
			}
			delete(binding, pick.c.Src)
			if !sameVar {
				delete(binding, pick.c.Dst)
			}
			return nil
		}
	}
	return solve()
}

func containsSorted(row []int32, v int32) bool {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == v
}

// packTuple encodes a tuple as a map key.
func packTuple(t []int32) string {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}
