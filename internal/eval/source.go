package eval

import (
	"fmt"

	"gmark/internal/bitset"
	"gmark/internal/graph"
)

// Source is the minimal read-only graph access the evaluator needs.
// Two implementations exist: the in-memory *graph.Graph (frozen CSR
// adjacency) and SpillSource (node-range CSR shards loaded on demand
// from a graphgen CSR spill directory), so the same CountWith runs at
// in-memory and at beyond-memory scale. Both answer ActiveDomain
// without touching adjacency — the graph from its CSR offsets, the
// spill from its persisted bitmaps — so start pruning and star domains
// take one path on every tier.
//
// Implementations must be safe for use from a single evaluation
// goroutine; SpillSource additionally synchronizes internally so one
// source can serve concurrent evaluations.
type Source interface {
	// NumNodes returns the number of nodes; ids are dense in
	// [0, NumNodes).
	NumNodes() int
	// PredIndex resolves a predicate name to its id, or -1 when the
	// source has no such predicate.
	PredIndex(name string) graph.PredID
	// Neighbors returns v's out-neighbors (inverse false) or
	// in-neighbors (inverse true) under predicate p, sorted ascending.
	// The slice is shared with the source and must not be modified; an
	// out-of-core source may recycle the backing shard under memory
	// pressure, so callers should consume it before the next call
	// rather than retaining it.
	Neighbors(v graph.NodeID, p graph.PredID, inverse bool) []int32
	// ActiveDomain returns the set of nodes with at least one outgoing
	// (inverse false) or incoming (inverse true) edge labeled p. The
	// set may be shared with the source and must not be modified. A
	// failure must also be recorded for SourceErr: evaluators treat it
	// as fatal and do not fall back to scanning adjacency.
	ActiveDomain(p graph.PredID, inverse bool) (*bitset.Set, error)
	// PredEdgeCount returns the number of edges labeled p.
	PredEdgeCount(p graph.PredID) int
}

// The in-memory graph is the reference Source.
var _ Source = (*graph.Graph)(nil)

// NodeRange is one contiguous node-id interval [Lo, Hi).
type NodeRange struct {
	Lo, Hi int32
}

// RangedSource is an optional Source refinement for sources whose
// adjacency is stored in contiguous node ranges (the CSR spill's shard
// files). The streaming evaluator scans sources one range at a time —
// and skips ranges no plan can start in — so a range's shard files are
// exhausted before the next range's load, keeping spill-backed scans
// near-sequential on disk instead of at the mercy of cache evictions.
type RangedSource interface {
	Source
	// NodeRanges returns the storage ranges in ascending order,
	// covering [0, NumNodes) without gaps.
	NodeRanges() []NodeRange
}

// MappedSource is an optional Source refinement for sources whose
// Neighbors slices may point into memory-mapped storage that eviction
// reclaims (munmap). Evaluation entry points bracket themselves with
// AcquireReader so no mapping is unmapped while a slice into it can
// still be live; see AcquireSourceReader.
type MappedSource interface {
	Source
	// AcquireReader pins current and future mappings until the
	// returned release runs: an eviction during the bracket retires
	// the mapping instead of unmapping it, and the last release
	// reclaims everything retired.
	AcquireReader() (release func())
}

// AcquireSourceReader pins g's storage mappings for the duration of a
// read when g is a MappedSource and returns the release; for any other
// source it is a no-op. Every evaluation entry point (CountWith,
// engines.EvaluateOpt) brackets itself with it, so Neighbors slices
// stay valid across concurrent cache evictions.
func AcquireSourceReader(g Source) func() {
	if m, ok := g.(MappedSource); ok {
		return m.AcquireReader()
	}
	return func() {}
}

// SourceErr returns the first lookup failure g recorded but could not
// return through Neighbors — a SpillSource's sticky shard- or
// bitmap-load error —
// or nil for a source that records none. Every evaluation entry point
// checks it after evaluating, so a failed load never passes as a
// silently small count.
func SourceErr(g Source) error {
	if s, ok := g.(interface{ Err() error }); ok {
		if err := s.Err(); err != nil {
			return fmt.Errorf("eval: spill load: %w", err)
		}
	}
	return nil
}

// ViewSource is an optional Source refinement for sources whose
// Neighbors synchronizes internally and that can instead hand each
// goroutine a private, unsynchronized view of themselves. SpillSource
// implements it with a per-worker shard memo that takes the cache
// lock, the LRU touch and the statistics off every lookup of a
// resident shard.
type ViewSource interface {
	Source
	// WorkerView returns a Source answering as the receiver does, for
	// the exclusive use of one goroutine, and the release that goroutine
	// must call exactly once when done with it. The view implements
	// none of the receiver's other refinements.
	WorkerView() (view Source, release func())
}

// WorkerSource returns the Source one evaluation goroutine should walk
// Neighbors through — g's WorkerView when g is a ViewSource, g itself
// otherwise (the in-memory graph) — and the release to call when the
// goroutine is done. Assert g's optional interfaces (RangedSource,
// MappedSource) on g, before or after; the returned Source answers
// only the Source methods.
func WorkerSource(g Source) (Source, func()) {
	if vs, ok := g.(ViewSource); ok {
		return vs.WorkerView()
	}
	return g, func() {}
}
