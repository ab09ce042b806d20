package eval

import (
	"iter"
	"math/bits"
	"sync"

	"gmark/internal/bitset"
)

// windowSize is the number of consecutive source ids one traversal
// walks at once: one machine word of sources per node (multi-source
// BFS, Then et al., VLDB 2014). Bit b of every mask of the window
// starting at v0 stands for source v0+b, in every rule of a union.
const windowSize = 64

// frontier is the unit the evaluator steps: for each node, the subset
// of the window's sources that reach it (mask), plus the set of nodes
// whose mask is non-zero (active). The active set keeps iteration in
// ascending node order — a step over a spill exhausts one shard before
// it touches the next — and makes clearing cost the touched nodes plus
// n/64 words, never the n mask words.
type frontier struct {
	mask   []uint64
	active *bitset.Set
}

func newFrontier(n int) *frontier {
	return &frontier{mask: make([]uint64, n), active: bitset.New(n)}
}

// or adds the sources m (non-zero) to v's mask.
func (f *frontier) or(v int32, m uint64) {
	f.mask[v] |= m
	f.active.Add(v)
}

// all yields the active nodes with their masks in ascending node order.
// The active set must not change during the iteration.
func (f *frontier) all() iter.Seq2[int32, uint64] {
	return func(yield func(int32, uint64) bool) {
		for wi, w := range f.active.Words() {
			for ; w != 0; w &= w - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(w))
				if !yield(v, f.mask[v]) {
					return
				}
			}
		}
	}
}

// clear empties the frontier through its active set.
func (f *frontier) clear() {
	for v := range f.all() {
		f.mask[v] = 0
	}
	f.active.Clear()
}

// step ORs the image of src under one symbol into dst: every source of
// the window that reached v shares v's one edge scan.
func step(g Source, src *frontier, sym symbolID, dst *frontier) {
	for v, m := range src.all() {
		for _, w := range g.Neighbors(v, sym.pred, sym.inv) {
			dst.or(w, m)
		}
	}
}

// The frontiers of a scratch, by role. Only the first two are needed by
// every plan; the rest are allocated on first use.
const (
	slotCur       = iota // input of the expression being applied
	slotNext             // its output
	slotPathA            // intermediates of a multi-symbol path
	slotPathB            //
	slotStarFront        // a star's BFS level
	slotStarNext         // and its image
	slotAcc              // per-window union across the rules of a pair query
	numSlots
)

// scratch is one goroutine's kernel state for graphs of n nodes: up to
// numSlots frontiers and the partial result of the scan it serves.
// Scratches are recycled across evaluations through scratchPool; every
// frontier not handed to a caller is empty between kernel calls, and
// release empties the rest, so a pooled scratch is always clean.
type scratch struct {
	n  int
	fs [numSlots]*frontier

	// Partial results of one worker's streaming scan. Pair counts sum
	// across workers (every source is scanned by exactly one), unary
	// endpoints merge by set union, and a Boolean witness in any worker
	// decides the query.
	nodeUnion *bitset.Set
	total     int64
	witness   bool
}

var scratchPool sync.Pool

// acquireScratch returns a clean scratch for n-node graphs, recycled
// when the pool holds one of that size.
func acquireScratch(n int) *scratch {
	if s, _ := scratchPool.Get().(*scratch); s != nil && s.n == n {
		return s
	}
	return &scratch{n: n, nodeUnion: bitset.New(n)}
}

// release returns s to the pool, clean whatever state an error or an
// early stop left it in.
func (s *scratch) release() {
	for _, f := range s.fs {
		if f != nil {
			f.clear()
		}
	}
	s.nodeUnion.Clear()
	s.total, s.witness = 0, false
	scratchPool.Put(s)
}

func (s *scratch) slot(i int) *frontier {
	if s.fs[i] == nil {
		s.fs[i] = newFrontier(s.n)
	}
	return s.fs[i]
}

// runChain walks the sources start of the window [v0, v0+64) through
// exprs, left to right, and returns the final frontier — for each
// reached node, the sources that reach it — or nil when no source
// reaches anything. The caller clears the returned frontier before the
// next call.
func (s *scratch) runChain(g Source, exprs []compiledExpr, v0 int32, start uint64, tr *tracker) (*frontier, error) {
	cur, nxt := s.slot(slotCur), s.slot(slotNext)
	for ; start != 0; start &= start - 1 {
		b := bits.TrailingZeros64(start)
		cur.or(v0+int32(b), 1<<b)
	}
	for _, e := range exprs {
		if err := s.image(g, e, cur, nxt, tr); err != nil {
			return nil, err
		}
		cur.clear()
		cur, nxt = nxt, cur
		if cur.active.Empty() {
			return nil, nil
		}
	}
	return cur, nil
}

// image computes the image of src under expression e into the empty
// frontier dst.
func (s *scratch) image(g Source, e compiledExpr, src, dst *frontier, tr *tracker) error {
	if !e.star {
		s.altImage(g, e.paths, src, dst)
		return nil
	}
	// Kleene star: multi-source BFS over the alternation relation, one
	// level per round for all sources at once. The zero-length path
	// contributes the sources inside the star's active domain; sources
	// outside it still expand.
	for v, m := range src.all() {
		if e.epsMask == nil || e.epsMask.Has(v) {
			dst.or(v, m)
		}
	}
	front, next := s.slot(slotStarFront), s.slot(slotStarNext)
	from := src
	for {
		if err := tr.checkTime(); err != nil {
			return err
		}
		s.altImage(g, e.paths, from, next)
		if from != src {
			from.clear()
		}
		grew := false
		for v, m := range next.all() {
			if fresh := m &^ dst.mask[v]; fresh != 0 {
				dst.or(v, fresh)
				front.or(v, fresh)
				grew = true
			}
		}
		next.clear()
		if !grew {
			return nil
		}
		from = front
	}
}

// altImage ORs the image of src under the alternation of paths into
// dst. The last symbol of a path steps straight into dst; the symbols
// before it ping-pong between the two path slots.
func (s *scratch) altImage(g Source, paths [][]symbolID, src, dst *frontier) {
	for _, path := range paths {
		if len(path) == 0 {
			// Epsilon disjunct.
			for v, m := range src.all() {
				dst.or(v, m)
			}
			continue
		}
		cur := src
		for i, sym := range path {
			to := dst
			if i < len(path)-1 {
				if to = s.slot(slotPathA); to == cur {
					to = s.slot(slotPathB)
				}
			}
			step(g, cur, sym, to)
			if cur != src {
				cur.clear()
			}
			cur = to
		}
	}
}

// windows yields the 64-aligned windows that overlap rg: the first id
// of each, and the bits of it whose ids lie inside rg — a range may
// start and end mid-word.
func windows(rg NodeRange) iter.Seq2[int32, uint64] {
	return func(yield func(int32, uint64) bool) {
		for v0 := rg.Lo &^ (windowSize - 1); v0 < rg.Hi; v0 += windowSize {
			lo, hi := max(rg.Lo, v0)-v0, min(rg.Hi, v0+windowSize)-v0
			if !yield(v0, ^uint64(0)<<uint(lo)&(^uint64(0)>>uint(windowSize-hi))) {
				return
			}
		}
	}
}
