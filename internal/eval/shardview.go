package eval

import (
	"gmark/internal/bitset"
	"gmark/internal/graph"
)

// maxViewSlots caps a shardView's slot table (8 bytes a slot, so 32 MiB
// per worker). A spill cut finer than that — millions of shard files —
// is read through the bare source instead, whose cost is per call, not
// per shard.
const maxViewSlots = 1 << 22

// shardView is one goroutine's unsynchronised window onto a
// SpillSource: a flat table of the shards the cache has handed it,
// indexed by (predicate, direction, node range), so a Neighbors on a
// shard it has seen costs two slice loads instead of a round trip
// through ShardCache's lock, LRU list and counters.
//
// A miss goes through SpillSource.shard — the one lookup path, with its
// manifest checks, singleflight load and sticky error — and memoizes
// the result. Residency stays the cache's decision: every probe
// compares the cache's eviction epoch with the one the memo was built
// under and drops the whole memo when it moved, so a view never serves
// a shard past the first probe after its eviction. Lookups answered
// from the memo are counted here and credited, with one LRU touch of
// the memoized shards, when the view is released.
//
// Like any Neighbors slice, a mapped shard read through a view is only
// safe inside a reader bracket (AcquireSourceReader), which every
// evaluation entry point holds.
type shardView struct {
	src *SpillSource

	// The manifest's shape, copied out so that a probe of a memoized
	// shard reads nothing behind src but the cache's epoch.
	shardNodes int
	numRanges  int
	numPreds   int32
	numNodes   int32

	epoch  uint64
	hits   int64
	table  []*cachedShard   // slot (pred*2+dir)*numRanges + v/shardNodes
	filled []sharedShardKey // the occupied slots, by the key each was fetched under
}

// WorkerView implements ViewSource: a view for the calling goroutine's
// exclusive use until release, which credits its batched hits to the
// cache-wide and per-source counters and returns it to the source's
// pool. A spill with no node ranges, or with more slots than
// maxViewSlots, hands out the source itself.
func (s *SpillSource) WorkerView() (Source, func()) {
	slots := 2 * len(s.spill.Manifest.Predicates) * len(s.ranges)
	if slots == 0 || slots > maxViewSlots {
		return s, func() {}
	}
	v, _ := s.views.Get().(*shardView)
	if v == nil {
		v = &shardView{
			src:        s,
			shardNodes: s.spill.Manifest.ShardNodes,
			numRanges:  len(s.ranges),
			numPreds:   int32(len(s.spill.Manifest.Predicates)),
			numNodes:   int32(s.spill.Manifest.Nodes),
			table:      make([]*cachedShard, slots),
		}
	}
	v.epoch = s.cache.epoch.Load()
	return v, v.release
}

// release settles the view's bookkeeping and recycles it. The memo is
// cleared first so a pooled view pins no shard the cache may evict.
func (v *shardView) release() {
	v.src.cache.creditView(v)
	v.hits = 0
	v.forget()
	v.src.views.Put(v)
}

// forget empties the memo.
func (v *shardView) forget() {
	for _, key := range v.filled {
		v.table[v.slot(key.pred, key.inv, key.idx)] = nil
	}
	v.filled = v.filled[:0]
}

// slot is the table position of one (predicate, direction, range).
func (v *shardView) slot(p graph.PredID, inverse bool, idx int) int {
	pd := int(p) * 2
	if inverse {
		pd++
	}
	return pd*v.numRanges + idx
}

// NumNodes implements Source.
func (v *shardView) NumNodes() int { return v.src.NumNodes() }

// PredIndex implements Source.
func (v *shardView) PredIndex(name string) graph.PredID { return v.src.PredIndex(name) }

// ActiveDomain implements Source with the source's bitmaps.
func (v *shardView) ActiveDomain(p graph.PredID, inverse bool) (*bitset.Set, error) {
	return v.src.ActiveDomain(p, inverse)
}

// PredEdgeCount implements Source.
func (v *shardView) PredEdgeCount(p graph.PredID) int { return v.src.PredEdgeCount(p) }

// Neighbors implements Source with SpillSource.Neighbors' results and
// failure behavior; a predicate or node outside the spill is handed to
// the bare source, which records the sticky error.
func (v *shardView) Neighbors(n graph.NodeID, p graph.PredID, inverse bool) []int32 {
	if uint32(p) >= uint32(v.numPreds) || uint32(n) >= uint32(v.numNodes) {
		return v.src.Neighbors(n, p, inverse)
	}
	if e := v.src.cache.epoch.Load(); e != v.epoch {
		v.forget()
		v.epoch = e
	}
	idx := int(n) / v.shardNodes
	slot := v.slot(p, inverse, idx)
	sh := v.table[slot]
	if sh != nil {
		v.hits++
	} else if sh = v.fetch(slot, shardKey{pred: p, inv: inverse, idx: idx}); sh == nil {
		return nil
	}
	adj, ok := sh.row(n)
	if !ok {
		v.src.failOutside(sh, n, idx)
	}
	return adj
}

// fetch resolves a slot the memo does not hold through the source's
// shared lookup path, which counts the access as a hit, a load or a
// dedup hit; nil means the lookup failed and the source recorded why.
func (v *shardView) fetch(slot int, key shardKey) *cachedShard {
	sh, err := v.src.shard(key)
	if err != nil {
		return nil
	}
	v.table[slot] = sh
	v.filled = append(v.filled, sharedShardKey{spill: v.src.spill, pred: key.pred, inv: key.inv, idx: key.idx})
	return sh
}
