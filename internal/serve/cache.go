package serve

import (
	"container/list"
	"errors"
	"sync"
)

// sliceKey identifies one cached slice. It is a comparable value: two
// requests for the same slice — whatever their URL spelling — collapse
// onto one key, one computation, one cache entry.
type sliceKey struct {
	jobID string
	kind  string // "graph" or "workload"
	pred  int    // predicate index in the job's schema
	dir   byte   // 'f' or 'b' for CSR slices
	rng   int    // node-range index; -1 means the whole graph
	enc   string // "text", "binary", or a SpillCompression name
	from  int    // workload window start
	to    int    // workload window end
	syn   string // workload syntax
}

// columnsKey identifies one predicate's emitted edge columns, the
// intermediate every graph slice of that predicate is cut from.
type columnsKey struct {
	jobID string
	pred  int // predicate index in the job's schema
}

// sliceColumnsShare is the divisor of Options.CacheBytes that the
// columns cache gets; slices keep the rest. Measured on gmark-perf's
// serve-hot (2 MiB budget) when columns cost 8 B/edge, 400-800 KB a
// predicate: one LRU shared by both halved the slice hit ratio, while
// a 1/8, 1/4 or 1/2 share all read alike. Bit-packed (columns.go) at
// 0.9-2.2 B/edge the same 18 predicates take 3-110 KB, 420 KB in all,
// and the quarter holds every one of them.
const sliceColumnsShare = 4

// errLoadPanicked is what coalesced waiters get when the goroutine
// computing their key panicked instead of returning.
var errLoadPanicked = errors.New("serve: the computation this request was waiting on panicked")

// cacheEntry is one resident cache entry. size includes grown, the
// bytes grow added on top of the value's own price.
type cacheEntry[K comparable, V any] struct {
	key   K
	val   V
	size  int64
	grown int64
}

// flight coalesces concurrent loads of one key: the first requester
// computes, the rest wait on done and share the result.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// CacheStats is the slice-cache half of the /statsz payload.
type CacheStats struct {
	// Hits counts lookups served from a resident entry or a coalesced
	// in-flight computation.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to compute the slice.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of resident slices.
	Entries int `json:"entries"`
	// Bytes is the current resident payload size.
	Bytes int64 `json:"bytes"`
}

// lruCache is a byte-budgeted LRU with single-flight load coalescing.
// The server keeps two: computed slices and the emitted columns they
// are cut from. All state sits behind one mutex; loads run outside it.
type lruCache[K comparable, V any] struct {
	mu        sync.Mutex
	budget    int64
	sizeOf    func(V) int64
	keep      func(V) V // what an entry retains of a loaded value; nil keeps it whole
	shed      func(V)   // drops what grow attached to a value; nil: grown bytes leave only with their entry
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
	ll        *list.List // front = most recently used
	entries   map[K]*list.Element
	inflight  map[K]*flight[V]
}

// newLRUCache returns an empty cache with the given byte budget;
// sizeOf prices a value against it. keep, unless nil, strips a loaded
// value to what its entry retains — the loader and the waiters on its
// flight still get the whole value. shed, unless nil, drops what grow
// attached to a value: an insert that needs room sheds grown bytes,
// coldest first, before it evicts any entry.
func newLRUCache[K comparable, V any](budget int64, sizeOf func(V) int64, keep func(V) V, shed func(V)) *lruCache[K, V] {
	return &lruCache[K, V]{
		budget:   budget,
		sizeOf:   sizeOf,
		keep:     keep,
		shed:     shed,
		ll:       list.New(),
		entries:  make(map[K]*list.Element),
		inflight: make(map[K]*flight[V]),
	}
}

// get returns the value for key, computing it with load on a miss.
// Concurrent gets of the same key run load once. The returned bool
// reports whether the value came from the cache (or a coalesced
// flight) rather than a fresh computation by this caller. Callers must
// not mutate the returned value. If load panics the panic reaches this
// caller, the waiters get errLoadPanicked, and the key can be loaded
// again.
func (c *lruCache[K, V]) get(key K, load func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		val := el.Value.(*cacheEntry[K, V]).val
		c.mu.Unlock()
		return val, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	// The error is overwritten only if load returns.
	fl := &flight[V]{done: make(chan struct{}), err: errLoadPanicked}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	defer func() {
		close(fl.done)
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.insert(key, fl.val)
		}
		c.mu.Unlock()
	}()
	val, err := load()
	fl.val, fl.err = val, err
	return val, false, err
}

// insert adds an entry and, until the budget holds, sheds grown bytes
// and then evicts entries, each from the cold end. A value larger than
// the whole budget is served but never cached. Caller holds the lock.
func (c *lruCache[K, V]) insert(key K, val V) {
	size := c.sizeOf(val)
	if size > c.budget {
		return
	}
	if _, ok := c.entries[key]; ok {
		return // a racing flight already populated it
	}
	if c.keep != nil {
		val = c.keep(val)
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry[K, V]{key: key, val: val, size: size})
	c.bytes += size
	for el := c.ll.Back(); c.shed != nil && el != nil && c.bytes > c.budget; el = el.Prev() {
		if ent := el.Value.(*cacheEntry[K, V]); ent.grown > 0 {
			c.shed(ent.val)
			c.bytes -= ent.grown
			ent.size -= ent.grown
			ent.grown = 0
		}
	}
	for c.bytes > c.budget {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*cacheEntry[K, V])
		c.ll.Remove(el)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
}

// grow charges delta more bytes to key's entry, if key is resident,
// the budget has delta bytes free, and attach accepts its value; attach
// runs under the cache's lock, so what it attaches and the charge come
// and go together. It never evicts to make room; a false return
// changes nothing. Shedding or evicting the entry releases the grown
// bytes.
func (c *lruCache[K, V]) grow(key K, delta int64, attach func(V) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || c.bytes+delta > c.budget {
		return false
	}
	ent := el.Value.(*cacheEntry[K, V])
	if !attach(ent.val) {
		return false
	}
	ent.size += delta
	ent.grown += delta
	c.bytes += delta
	return true
}

// free reports whether the budget has delta bytes free.
func (c *lruCache[K, V]) free(delta int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes+delta <= c.budget
}

// stats returns a snapshot of the cache counters.
func (c *lruCache[K, V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
