package eval

import (
	"iter"
	"math/bits"
	"sync"

	"gmark/internal/bitset"
)

// A window is the run of consecutive source ids one traversal walks at
// once: words machine words of sources per node (multi-source BFS, Then
// et al., VLDB 2014), 64·words sources. Word i, bit b of every mask of
// the window starting at v0 stands for source v0+64i+b, in every rule of
// a union. The width is chosen once per count by windowWords.
const maxWindowWords = 8

// maxFrontierBytes caps one frontier's mask array: a window is widened
// only while 8·words·n bytes fit, so graphs above 131 072 nodes keep one
// word per node.
const maxFrontierBytes = 2 << 20

// windowWords returns the window width in words for n-node graphs whose
// widest scanned range holds widest ids: the largest power of two up to
// maxWindowWords whose frontier mask fits maxFrontierBytes and whose
// 64·words sources do not exceed widest rounded up to 64, so a small
// graph or a narrow range is not walked in windows of mostly empty words.
func windowWords(n, widest int) int {
	words := maxWindowWords
	for words > 1 && (8*words*n > maxFrontierBytes || 64*words > (widest+63)&^63) {
		words /= 2
	}
	return words
}

// windowWordsFor applies windowWords to g: the widest range is a
// RangedSource's widest storage range, otherwise all of [0, n).
func windowWordsFor(g Source) int {
	n := g.NumNodes()
	widest := n
	if rs := storageRanges(g); rs != nil {
		widest = 0
		for _, rg := range rs {
			widest = max(widest, int(rg.Hi-rg.Lo))
		}
	}
	return windowWords(n, widest)
}

// storageRanges returns a RangedSource's storage ranges, or nil.
func storageRanges(g Source) []NodeRange {
	if r, ok := g.(RangedSource); ok {
		if rs := r.NodeRanges(); len(rs) > 0 {
			return rs
		}
	}
	return nil
}

// frontier is the unit the evaluator steps: for each node, the subset
// of the window's sources that reach it (words mask words at v·words),
// plus the set of nodes whose mask is non-zero (active). The active set
// keeps iteration in ascending node order — a step over a spill exhausts
// one shard before it touches the next — and makes clearing cost the
// touched nodes plus n/64 words, never the n·words mask words. The mask
// of a node outside the active set is always zero.
type frontier struct {
	words  int
	mask   []uint64
	active *bitset.Set
}

func newFrontier(n, words int) *frontier {
	return &frontier{words: words, mask: make([]uint64, n*words), active: bitset.New(n)}
}

// row returns v's mask words.
func (f *frontier) row(v int32) []uint64 {
	return f.mask[int(v)*f.words:][:f.words:f.words]
}

// or adds the sources m (one window of words, not all zero) to v's mask.
func (f *frontier) or(v int32, m []uint64) {
	r := f.row(v)
	for i, x := range m[:len(r)] {
		r[i] |= x
	}
	f.active.Add(v)
}

// all yields the active nodes with their masks in ascending node order.
// The active set must not change during the iteration.
func (f *frontier) all() iter.Seq2[int32, []uint64] {
	return func(yield func(int32, []uint64) bool) {
		for wi, w := range f.active.Words() {
			for ; w != 0; w &= w - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(w))
				if !yield(v, f.row(v)) {
					return
				}
			}
		}
	}
}

// clear empties the frontier through its active set.
func (f *frontier) clear() {
	for _, m := range f.all() {
		for i := range m {
			m[i] = 0
		}
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

// scratch is one goroutine's kernel state for graphs of n nodes and
// windows of words words: up to numSlots frontiers, three window-sized
// buffers and the partial result of the scan it serves. Scratches are
// recycled across evaluations through scratchPool; every frontier not
// handed to a caller is empty between kernel calls, and release empties
// the rest, so a pooled scratch is always clean.
type scratch struct {
	n, words int
	fs       [numSlots]*frontier

	// One window each: the ids of the range being scanned, a plan's
	// start mask, and the sources a source projection reached.
	in, start, reached []uint64

	// Partial results of one worker's streaming scan. Pair counts sum
	// across workers (every source is scanned by exactly one), unary
	// endpoints merge by set union, and a Boolean witness in any worker
	// decides the query.
	nodeUnion *bitset.Set
	total     int64
	witness   bool
}

var scratchPool sync.Pool

// acquireScratch returns a clean scratch for n-node graphs and windows
// of words words, recycled when the pool holds one of that shape.
func acquireScratch(n, words int) *scratch {
	if s, _ := scratchPool.Get().(*scratch); s != nil && s.n == n && s.words == words {
		return s
	}
	buf := make([]uint64, 3*words)
	return &scratch{
		n: n, words: words,
		in: buf[:words:words], start: buf[words : 2*words : 2*words], reached: buf[2*words:],
		nodeUnion: bitset.New(n),
	}
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
		s.fs[i] = newFrontier(s.n, s.words)
	}
	return s.fs[i]
}

// runChain walks the sources start of the window at v0 through exprs,
// left to right, and returns the final frontier — for each reached
// node, the sources that reach it — or nil when no source reaches
// anything. The caller clears the returned frontier before the next
// call.
func (s *scratch) runChain(g Source, exprs []compiledExpr, v0 int32, start []uint64, meter *Meter) (*frontier, error) {
	cur, nxt := s.slot(slotCur), s.slot(slotNext)
	for i, w := range start {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			v := v0 + int32(i<<6+b)
			cur.row(v)[i] |= 1 << b
			cur.active.Add(v)
		}
	}
	for _, e := range exprs {
		if err := s.image(g, e, cur, nxt, meter); err != nil {
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
func (s *scratch) image(g Source, e compiledExpr, src, dst *frontier, meter *Meter) error {
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
		if err := meter.Check(); err != nil {
			return err
		}
		s.altImage(g, e.paths, from, next)
		if from != src {
			from.clear()
		}
		grew := false
		for v, m := range next.all() {
			// fresh = m &^ seen joins dst (seen) and forms the next level.
			seen, level := dst.row(v), front.row(v)
			m = m[:len(seen)]
			var some uint64
			for i, x := range m {
				fresh := x &^ seen[i]
				seen[i] |= fresh
				level[i] |= fresh
				some |= fresh
			}
			if some != 0 {
				dst.active.Add(v)
				front.active.Add(v)
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

// windows yields the windows of len(in) words that cover rg, starting at
// the 64-aligned id at or below rg.Lo: the first id of each, and in
// filled with the bits of it whose ids lie inside rg — a range may start
// and end mid-word, and its last window may end past it. in is
// overwritten for every window.
func windows(rg NodeRange, in []uint64) iter.Seq2[int32, []uint64] {
	return func(yield func(int32, []uint64) bool) {
		for v0 := rg.Lo &^ 63; v0 < rg.Hi; v0 += int32(64 * len(in)) {
			for i := range in {
				w0 := v0 + int32(i<<6)
				lo, hi := max(rg.Lo, w0)-w0, min(rg.Hi, w0+64)-w0
				in[i] = 0
				if lo < hi {
					in[i] = ^uint64(0) << uint(lo) & (^uint64(0) >> uint(64-hi))
				}
			}
			if !yield(v0, in) {
				return
			}
		}
	}
}
