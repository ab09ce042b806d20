package eval

import (
	"fmt"
	"sync"

	"gmark/internal/bitset"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
)

// DefaultSpillCacheBytes is the shard-cache budget of a SpillSource
// opened with cacheBytes <= 0.
const DefaultSpillCacheBytes = 256 << 20

// SpillSource is the out-of-core Source: it answers Neighbors from a
// graphgen CSR spill directory, loading one (predicate, direction,
// node-range) shard file at a time through a ShardCache. A streaming
// CountWith therefore touches only the shard files its frontier reaches,
// and peak memory stays under the cache budget no matter how large the
// spilled instance is.
//
// A SpillSource is safe for concurrent use: any number of evaluations
// may share one source (or several sources sharing one ShardCache via
// NewSpillSourceWith), and they share shard residency — a miss one
// evaluator pays is a hit for every other, and simultaneous misses on
// one shard collapse into a single file read. Its own Neighbors takes
// the cache lock on every call; loops that make many read through a
// per-goroutine WorkerView (eval.WorkerSource), which does not.
type SpillSource struct {
	spill     *graphgen.CSRSpill
	predIndex map[string]graph.PredID
	cache     *ShardCache
	ranges    []NodeRange // one per shard-file node span; read-only after open

	// views recycles released shardViews, so a worker of the next query
	// reuses the slot table instead of allocating one.
	views sync.Pool

	// useMmap serves raw ("GMKCSR3\n" — see graphgen's magic
	// constants) shards in place — mapped on linux, read into one
	// slice elsewhere — instead of decoding; forceRead is the test
	// knob that exercises the portable read-into-slice path on
	// platforms that would map.
	useMmap   bool
	forceRead bool

	mu      sync.Mutex
	loadErr error // sticky: first shard- or bitmap-load failure

	// domMu guards the active-domain bitmap cache separately from the
	// shard cache, so a bitmap file read never blocks concurrent
	// Neighbors lookups.
	domMu   sync.Mutex
	domains map[domainKey]*bitset.Set
}

// domainKey addresses one cached active-domain bitmap.
type domainKey struct {
	pred graph.PredID
	inv  bool
}

// shardKey addresses one shard of this source's spill.
type shardKey struct {
	pred graph.PredID
	inv  bool
	idx  int // position in the direction's shard list
}

// cachedShard is one loaded shard. bytes is the size charged against
// the cache budget (residency): the decoded slice size for decoded
// entries, the whole file image for mapped ones. diskBytes is what the
// load actually read from disk, smaller on compressed (v3) spills; a
// mapped entry charges its file size, the I/O its pages fault in.
// release, when non-nil, reclaims the mapping backing off/adj — the
// cache runs it on eviction, under the reader-bracket protocol.
type cachedShard struct {
	lo        int32
	off       []int32
	adj       []int32
	bytes     int64
	diskBytes int64
	release   func()
}

// SpillCacheStats reports shard-cache behavior: how many lookups hit a
// resident shard, how many shard files were loaded (including reloads
// after eviction), how many misses were deduplicated against another
// goroutine's in-flight load of the same shard (DedupHits — these read
// no file), and the eviction count. Loads == distinct shards touched
// when nothing was evicted, for any number of concurrent evaluations.
// BytesUsed and PeakBytes are current and peak resident bytes — always
// the decoded []int32 size, so `-eval-cache-mb` stays a residency
// budget no matter how the shards are encoded on disk; DiskBytesLoaded
// is the cumulative on-disk bytes fresh loads actually read, which on
// compressed (format_version 3) spills is severalfold smaller.
// Active-domain bitmaps are read from their own files and never count
// as loads, which is how tests assert that StarDomain performs no
// shard sweep. MappedBytes is the subset of BytesUsed served from file
// mappings (raw shards under mmap) — those entries charge their mapped
// file size, and eviction returns the bytes by munmap.
type SpillCacheStats struct {
	Hits            int64
	Loads           int64
	DedupHits       int64
	Evictions       int64
	BytesUsed       int64
	PeakBytes       int64
	DiskBytesLoaded int64
	MappedBytes     int64
}

// OpenSpillSource opens a CSR spill directory as an evaluation Source
// with a private ShardCache. cacheBytes bounds the resident shard
// bytes (<= 0 selects DefaultSpillCacheBytes); a single shard larger
// than the budget is still admitted alone, so evaluation always makes
// progress.
//
//lint:ignore ladder cmd/gmark-perf calls both rungs; fold into OpenSpillSourceWith in the next benchmark change
func OpenSpillSource(dir string, cacheBytes int64) (*SpillSource, error) {
	return OpenSpillSourceWith(dir, SpillSourceOptions{CacheBytes: cacheBytes})
}

// SpillSourceOptions configures how OpenSpillSourceWith (and
// NewSpillSourceWith) serve a spill; the zero value matches
// OpenSpillSource's behavior.
type SpillSourceOptions struct {
	// CacheBytes bounds the resident shard bytes (<= 0 selects
	// DefaultSpillCacheBytes). Ignored by NewSpillSourceWith, whose
	// caller supplies the cache.
	CacheBytes int64
	// Mmap serves raw ("GMKCSR3\n") shards in place instead of
	// decoding them: memory-mapped on linux, read into a single slice
	// and viewed identically elsewhere. Shards of any other layout in
	// the same spill fall back to the decoding loader, so the flag is
	// safe on mixed or varint/deflate directories — it just has
	// nothing to map there.
	Mmap bool
}

// OpenSpillSourceWith is OpenSpillSource with explicit source options
// and a private ShardCache.
func OpenSpillSourceWith(dir string, opt SpillSourceOptions) (*SpillSource, error) {
	spill, err := graphgen.OpenCSRSpill(dir)
	if err != nil {
		return nil, err
	}
	return NewSpillSourceWith(spill, NewShardCache(opt.CacheBytes), opt), nil
}

// NewSpillSource wraps an already-opened spill with a private
// ShardCache of the given byte budget (<= 0 selects
// DefaultSpillCacheBytes).
//
//lint:ignore ladder cmd/gmark-perf calls this rung; fold into NewSpillSourceWith in the next benchmark change
func NewSpillSource(spill *graphgen.CSRSpill, cacheBytes int64) *SpillSource {
	return NewSpillSourceWith(spill, NewShardCache(cacheBytes), SpillSourceOptions{})
}

// NewSpillSourceWith wraps an already-opened spill around an existing
// ShardCache, so several sources — over one spill or many — pool their
// shard residency instead of each holding a private copy. The options'
// CacheBytes is ignored: the cache is given.
func NewSpillSourceWith(spill *graphgen.CSRSpill, cache *ShardCache, opt SpillSourceOptions) *SpillSource {
	s := &SpillSource{
		spill:     spill,
		predIndex: make(map[string]graph.PredID, len(spill.Manifest.Predicates)),
		cache:     cache,
		useMmap:   opt.Mmap,
		domains:   make(map[domainKey]*bitset.Set),
	}
	for i, p := range spill.Manifest.Predicates {
		s.predIndex[p.Name] = graph.PredID(i)
	}
	// The ranges are the shard grid OpenCSRSpill validated, so their
	// number is bounded by the manifest's own size; a spill without
	// predicates lists no grid, and one range covers its nodes.
	if preds := spill.Manifest.Predicates; len(preds) > 0 {
		s.ranges = make([]NodeRange, len(preds[0].Fwd))
		for i, sh := range preds[0].Fwd {
			s.ranges[i] = NodeRange{Lo: int32(sh.Lo), Hi: int32(sh.Hi)}
		}
	} else {
		s.ranges = []NodeRange{{Lo: 0, Hi: int32(spill.Manifest.Nodes)}}
	}
	return s
}

// NumNodes implements Source.
func (s *SpillSource) NumNodes() int { return s.spill.Manifest.Nodes }

// Manifest returns the opened spill's manifest.
func (s *SpillSource) Manifest() graphgen.CSRManifest { return s.spill.Manifest }

// NumEdges returns the spilled edge count.
func (s *SpillSource) NumEdges() int { return s.spill.Manifest.Edges }

// Cache returns the shard cache this source loads through; shared
// sources return the same cache.
func (s *SpillSource) Cache() *ShardCache { return s.cache }

// PredEdgeCount returns the number of edges labeled p, summed from the
// manifest without touching any shard file.
func (s *SpillSource) PredEdgeCount(p graph.PredID) int {
	if int(p) < 0 || int(p) >= len(s.spill.Manifest.Predicates) {
		return 0
	}
	n := 0
	for _, sh := range s.spill.Manifest.Predicates[p].Fwd {
		n += sh.Edges
	}
	return n
}

// NodeRanges implements RangedSource: one range per shard-file node
// span, so the streaming evaluator's scan order — and the parallel
// evaluator's work units — match the on-disk layout. The slice is
// computed once at open and shared by every caller: treat it as
// read-only.
func (s *SpillSource) NodeRanges() []NodeRange { return s.ranges }

// ActiveDomain implements DomainSource: the bitmap is the spill's
// persisted domain file, read once and cached for the source's
// lifetime (bitmaps are n/8 bytes, far below any shard budget). A
// bitmap that fails to load fails the evaluation: the error is sticky,
// like a shard-load failure.
func (s *SpillSource) ActiveDomain(p graph.PredID, inverse bool) (*bitset.Set, error) {
	key := domainKey{pred: p, inv: inverse}
	s.domMu.Lock()
	defer s.domMu.Unlock()
	if dom, ok := s.domains[key]; ok {
		return dom, nil
	}
	dom, err := s.spill.LoadDomain(int(p), inverse)
	if err != nil {
		s.fail(err)
		return nil, err
	}
	s.domains[key] = dom
	return dom, nil
}

// PredIndex implements Source.
func (s *SpillSource) PredIndex(name string) graph.PredID {
	if p, ok := s.predIndex[name]; ok {
		return p
	}
	return -1
}

// Neighbors implements Source. Lookup failures — a shard file that
// fails to load, or one inconsistent with its manifest entry — cannot
// surface through the Source interface; they stick and every
// evaluation verb checks Err afterwards (SourceErr), so a broken spill
// is never mistaken for a sparse one. OpenCSRSpill has validated the
// manifest, so shard_nodes is positive.
func (s *SpillSource) Neighbors(v graph.NodeID, p graph.PredID, inverse bool) []int32 {
	idx := int(v) / s.spill.Manifest.ShardNodes
	sh, err := s.shard(shardKey{pred: p, inv: inverse, idx: idx})
	if err != nil {
		return nil
	}
	adj, ok := sh.row(v)
	if !ok {
		s.failOutside(sh, v, idx)
	}
	return adj
}

// failOutside records that sh, resolved for v as the idx-th shard of
// its direction, does not cover v: a manifest Lo disagreeing with
// idx*ShardNodes, or a shard narrower than its manifest range —
// structural corruption, not a sparse node.
func (s *SpillSource) failOutside(sh *cachedShard, v graph.NodeID, idx int) {
	s.fail(fmt.Errorf("eval: node %d outside shard %d range [%d,%d)", v, idx, sh.lo, int(sh.lo)+len(sh.off)-1))
}

// row returns v's adjacency; ok is false when the shard does not cover
// v.
func (sh *cachedShard) row(v graph.NodeID) (adj []int32, ok bool) {
	local := int(v) - int(sh.lo)
	if local < 0 || local+1 >= len(sh.off) {
		return nil, false
	}
	return sh.adj[sh.off[local]:sh.off[local+1]], true
}

// fail records the first lookup failure.
func (s *SpillSource) fail(err error) {
	s.mu.Lock()
	if s.loadErr == nil {
		s.loadErr = err
	}
	s.mu.Unlock()
}

// Err returns the first shard-load failure, if any. A non-nil Err
// invalidates every evaluation result obtained since the failure.
func (s *SpillSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadErr
}

// CacheStats returns a snapshot of the shard cache's counters. When
// the cache is shared between sources they are cache-wide.
func (s *SpillSource) CacheStats() SpillCacheStats {
	return s.cache.Stats()
}

// AcquireReader implements MappedSource by delegating to the shard
// cache, whose reader bracket is what defers munmap past the last live
// Neighbors slice; sources sharing one cache share the bracket.
func (s *SpillSource) AcquireReader() (release func()) {
	return s.cache.AcquireReader()
}

// shard resolves key against the manifest and fetches it through the
// shared cache; the file read happens with no lock held, and
// simultaneous misses on one shard collapse into a single read.
// Failures are sticky (see Err).
func (s *SpillSource) shard(key shardKey) (*cachedShard, error) {
	meta, err := s.shardMeta(key)
	if err != nil {
		s.fail(err)
		return nil, err
	}
	sh, err := s.cache.get(
		sharedShardKey{spill: s.spill, pred: key.pred, inv: key.inv, idx: key.idx},
		func() (*cachedShard, error) {
			if s.useMmap {
				if sh, handled, err := s.loadRawShard(meta); handled || err != nil {
					return sh, err
				}
			}
			off, adj, diskBytes, err := s.spill.LoadShardSized(meta)
			if err != nil {
				return nil, err
			}
			return &cachedShard{
				lo:        int32(meta.Lo),
				off:       off,
				adj:       adj,
				bytes:     4 * int64(len(off)+len(adj)),
				diskBytes: diskBytes,
			}, nil
		})
	if err != nil {
		s.fail(err)
		return nil, err
	}
	return sh, nil
}

// shardMeta resolves key against the manifest (read-only after open).
func (s *SpillSource) shardMeta(key shardKey) (graphgen.CSRShard, error) {
	preds := s.spill.Manifest.Predicates
	if key.pred < 0 || int(key.pred) >= len(preds) {
		return graphgen.CSRShard{}, fmt.Errorf("eval: spill has no predicate %d", key.pred)
	}
	shards := preds[key.pred].Fwd
	if key.inv {
		shards = preds[key.pred].Bwd
	}
	if key.idx < 0 || key.idx >= len(shards) {
		return graphgen.CSRShard{}, fmt.Errorf("eval: shard %d outside spill range (%d shards in manifest)", key.idx, len(shards))
	}
	return shards[key.idx], nil
}

// CountOverSpillWith is CountWith over a spill-backed source, kept for
// cmd/gmark-perf: the spill's workers share its shard cache, and a
// shard-load failure fails the count exactly as in CountWith.
func CountOverSpillWith(s *SpillSource, q *query.Query, b Budget, opt EvalOptions) (int64, error) {
	return CountWith(s, q, b, opt)
}
