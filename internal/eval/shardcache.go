package eval

import (
	"container/list"
	"sync"
	"sync/atomic"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
)

// ShardCache is a concurrency-safe, byte-budgeted cache of CSR spill
// shards shared across evaluations — and, when one cache is handed to
// several SpillSources, across spills. It replaces the old
// per-SpillSource private LRU, whose N private copies made N
// concurrent evaluations of one spill pay the reload cliff N times.
//
// Misses are singleflight-deduplicated: the first goroutine to miss on
// a (spill, predicate, direction, range) key loads the shard file with
// no lock held, while every other goroutine missing on the same key
// blocks until that one load publishes — concurrent evaluators never
// read the same shard file twice. Shards whose load is still in flight
// are pinned: eviction only considers fully loaded entries, from least
// recently used, and never the shard just admitted, so evaluation
// always makes progress even when one shard exceeds the whole budget.
//
// Entries come in two kinds. Decoded entries own heap slices and are
// charged at their decoded size; mapped entries (raw shards under
// -spill-mmap) serve adjacency straight out of a file mapping, are
// charged at the mapped file size, and carry a release closure the
// cache runs — munmap — when the entry is evicted. Because a Neighbors
// slice may still point into a mapping at the moment its entry is
// evicted by a concurrent evaluation, evictions that happen while any
// reader bracket (AcquireReader) is open retire the mapping instead of
// releasing it; the last reader to leave reclaims everything retired.
//
// The lock is the shared slow path. Evaluation workers read through a
// private shardView (SpillSource.WorkerView) that memoizes the shards
// this cache handed it and revalidates the memo against epoch, so a
// resident shard costs no lock, no LRU touch and no counter update per
// Neighbors; the view settles its hits and recency in one creditView.
type ShardCache struct {
	// epoch counts evictions. A view that memoized shards under one
	// epoch drops them all when it observes another, so nothing evicted
	// is served past the next probe and the budget stays strict. First
	// in the struct per the concurrency lint's atomics-prefix rule.
	epoch atomic.Uint64

	mu      sync.Mutex
	budget  int64
	used    int64
	peak    int64
	entries map[sharedShardKey]*cacheEntry
	order   *list.List // front = most recently used; loaded entries only

	hits, loads, evictions, dedups int64
	diskLoaded                     int64 // cumulative on-disk bytes read by fresh loads
	mappedBytes                    int64 // resident bytes served from mappings

	readers int      // open AcquireReader brackets
	retired []func() // mappings evicted while readers > 0, to release
}

// sharedShardKey addresses one shard across every spill the cache
// serves; the opened-spill pointer is the spill's identity.
type sharedShardKey struct {
	spill *graphgen.CSRSpill
	pred  graph.PredID
	inv   bool
	idx   int // position in the direction's shard list
}

// cacheEntry is one shard in the cache: loading (done open, elem nil,
// unevictable) or loaded (done closed, elem on the LRU list). sh and
// err are written exactly once, before done closes.
type cacheEntry struct {
	key  sharedShardKey
	done chan struct{}
	sh   *cachedShard
	err  error
	elem *list.Element
}

// NewShardCache returns an empty cache bounded by budgetBytes of
// resident shard data (<= 0 selects DefaultSpillCacheBytes). Share one
// cache between SpillSources — or just share one SpillSource — to give
// a fleet of concurrent evaluations one pooled residency instead of a
// private working set each.
func NewShardCache(budgetBytes int64) *ShardCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultSpillCacheBytes
	}
	return &ShardCache{
		budget:  budgetBytes,
		entries: make(map[sharedShardKey]*cacheEntry),
		order:   list.New(),
	}
}

// Stats returns a snapshot of the cache-wide counters; BytesUsed and
// PeakBytes describe current and peak residency under the byte budget.
func (c *ShardCache) Stats() SpillCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SpillCacheStats{
		Hits:            c.hits,
		Loads:           c.loads,
		Evictions:       c.evictions,
		DedupHits:       c.dedups,
		BytesUsed:       c.used,
		PeakBytes:       c.peak,
		DiskBytesLoaded: c.diskLoaded,
		MappedBytes:     c.mappedBytes,
	}
}

// AcquireReader opens a reader bracket: until the returned release
// runs, no mapping is unmapped — an eviction retires it instead, and
// the closing of the last bracket reclaims everything retired. The
// bracket is cheap (one counter) and reentrant across goroutines;
// every evaluation entry point takes it via AcquireSourceReader, which
// is what makes Neighbors slices into mappings safe against concurrent
// evictions.
func (c *ShardCache) AcquireReader() (release func()) {
	c.mu.Lock()
	c.readers++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.readers--
			var drain []func()
			if c.readers == 0 {
				drain, c.retired = c.retired, nil
			}
			c.mu.Unlock()
			for _, rel := range drain {
				rel()
			}
		})
	}
}

// Purge evicts every loaded shard, releasing (or retiring, under an
// open reader bracket) their mappings, and leaves in-flight loads
// untouched. Statistics other than residency are preserved. Callers
// use it to return a cache to cold state — between cold-eval passes,
// or to assert that MappedBytes drains to zero.
func (c *ShardCache) Purge() {
	c.mu.Lock()
	var drain []func()
	for c.order.Len() > 0 {
		drain = append(drain, c.evictBack())
	}
	c.mu.Unlock()
	for _, rel := range drain {
		if rel != nil {
			rel()
		}
	}
}

// evictBack removes the least-recently-used loaded entry, adjusting
// residency accounting, and returns the mapping release to run outside
// the lock — nil for decoded entries, or when an open reader bracket
// forced the mapping onto the retired list instead. Callers hold mu
// and must guarantee the list is non-empty.
func (c *ShardCache) evictBack() (release func()) {
	back := c.order.Back()
	old := back.Value.(*cacheEntry)
	c.order.Remove(back)
	delete(c.entries, old.key)
	c.used -= old.sh.bytes
	c.evictions++
	c.epoch.Add(1)
	if old.sh.release == nil {
		return nil
	}
	c.mappedBytes -= old.sh.bytes
	if c.readers > 0 {
		c.retired = append(c.retired, old.sh.release)
		return nil
	}
	return old.sh.release
}

// creditView settles a released shardView's batched bookkeeping: the
// lookups it answered from its memo count as cache hits, and the
// shards it memoized — those still resident as the very shard the view
// holds — move to the front of the LRU order, where the per-call
// touches they replace would have left them.
func (c *ShardCache) creditView(v *shardView) {
	c.mu.Lock()
	c.hits += v.hits
	for _, key := range v.filled {
		if e, ok := c.entries[key]; ok && e.elem != nil && e.sh == v.table[v.slot(key.pred, key.inv, key.idx)] {
			c.order.MoveToFront(e.elem)
		}
	}
	c.mu.Unlock()
}

// get returns the cached shard for key, calling load — with no cache
// lock held — when the shard is neither resident nor already being
// loaded by another goroutine. A failed load is not cached: the next
// access retries, and every waiter of the failed flight receives the
// same error.
func (c *ShardCache) get(key sharedShardKey, load func() (*cachedShard, error)) (*cachedShard, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
			c.hits++
			sh := e.sh
			c.mu.Unlock()
			return sh, nil
		}
		// Another goroutine is loading this shard right now; wait for
		// its flight instead of reading the file a second time.
		c.dedups++
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		return e.sh, nil
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	sh, err := load()

	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, key)
		close(e.done)
		c.mu.Unlock()
		return nil, err
	}
	e.sh = sh
	c.loads++
	c.diskLoaded += sh.diskBytes
	c.used += sh.bytes
	if sh.release != nil {
		c.mappedBytes += sh.bytes
	}
	if c.used > c.peak {
		c.peak = c.used
	}
	e.elem = c.order.PushFront(e)
	// Evict least-recently-used loaded shards down to the budget.
	// In-flight entries are not on the list, and the len > 1 guard
	// keeps the shard just admitted, so an over-budget shard is still
	// admitted alone. Releases run after the lock drops — munmap is a
	// syscall no other cache user should wait on.
	var drain []func()
	for c.used > c.budget && c.order.Len() > 1 {
		if rel := c.evictBack(); rel != nil {
			drain = append(drain, rel)
		}
	}
	close(e.done)
	c.mu.Unlock()
	for _, rel := range drain {
		rel()
	}
	return sh, nil
}
