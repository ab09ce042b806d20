// Package serve turns gMark generation into a deterministic HTTP
// service. A client registers a job — the (use case, size, seed,
// encoding) identity of one generation run, carried as the
// internal/manifest JobSpec wire format — and then fetches any slice
// of that run on demand: a node-range shard of any predicate's graph
// in text, binary-partition, or CSR bytes, or any window of the query
// workload in any supported syntax.
//
// The core contract is byte determinism: a slice is a pure function of
// (spec, slice coordinates). Nothing is generated at registration
// time; a slice is computed when asked for, using the same sub-seed
// derivations the batch pipeline uses. Two servers given the same spec
// serve identical bytes, in any request order, at any concurrency —
// and those bytes are identical to what the batch sinks
// (PartitionedSink, CSRSpillSink, SyntaxDirSink) write to disk for the
// same configuration.
//
// Two bounded LRU caches, both behind Options.CacheBytes, keep that
// from costing a generation per request. A graph-slice request looks
// up the slice cache, then the columns cache — a predicate's emitted
// (source, target) columns in emission order, bit-packed a block at a
// time (columns.go), which every range, direction and encoding of
// that predicate is cut from — and only then emits the predicate.
// Resident columns cut a second time also get a cut index (both
// directions' CSR and the pairs bucketed by source range), which is
// charged to the columns' share if it has the room free, is given back
// first when columns need the room, and makes every later cut
// O(slice). Neither cache nor index can change a byte:
// the indexed cut and the filtering cuts of the plain and the packed
// columns are pinned equal.
package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"gmark/internal/fanout"
)

// Options configures a Server. The zero value selects sensible
// defaults; limits exist so a hostile or typo'd spec cannot ask one
// request to materialize a billion-node instance.
type Options struct {
	// CacheBytes bounds what the server keeps of what it generated
	// (default 256 MiB): a quarter for predicates' emitted columns,
	// the rest for rendered slices.
	CacheBytes int64
	// MaxJobs bounds the number of registered jobs (default 1024).
	MaxJobs int
	// MaxNodes bounds a job's instance size (default 10,000,000).
	MaxNodes int
	// MaxQueries bounds a job's workload size (default 1,000,000).
	MaxQueries int
	// Parallelism is the worker count used when computing a slice;
	// zero or less means GOMAXPROCS (fanout.Workers). It never affects
	// the served bytes.
	Parallelism int
}

// defaults returns opt with zero fields replaced by their defaults.
func (o Options) defaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 10_000_000
	}
	if o.MaxQueries <= 0 {
		o.MaxQueries = 1_000_000
	}
	o.Parallelism = fanout.Workers(o.Parallelism)
	return o
}

// Server is the HTTP slice server. It holds no generated data beyond
// its two bounded caches: jobs are specs, and slices are recomputed
// deterministically on demand. Safe for concurrent use.
type Server struct {
	// Request counters come first so the struct layout satisfies the
	// repo's atomic-alignment rule.
	requests      atomic.Int64
	slicesServed  atomic.Int64
	bytesServed   atomic.Int64
	columnIndexes atomic.Int64

	opt     Options
	mux     *http.ServeMux
	slices  *lruCache[sliceKey, []byte]
	columns *lruCache[columnsKey, predEdges]

	mu      sync.Mutex
	jobs    map[string]*job
	jobList []string // registration order, for stable listings
}

// New returns a Server ready to be passed to http.Serve (or driven
// directly through ServeHTTP in tests).
func New(opt Options) *Server {
	opt = opt.defaults()
	columnsBudget := opt.CacheBytes / sliceColumnsShare
	s := &Server{
		opt:     opt,
		mux:     http.NewServeMux(),
		jobs:    make(map[string]*job),
		slices:  newLRUCache[sliceKey](opt.CacheBytes-columnsBudget, func(b []byte) int64 { return int64(len(b)) }, nil, nil),
		columns: newLRUCache[columnsKey](columnsBudget, predEdges.bytes, predEdges.resident, predEdges.dropIndex),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleRegister)
	s.mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/jobs/{id}/graph/{predicate}/{range}", s.handleGraphSlice)
	s.mux.HandleFunc("GET /v1/jobs/{id}/workload", s.handleWorkload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Stats is the /statsz payload.
type Stats struct {
	// Requests counts every request the server has seen.
	Requests int64 `json:"requests"`
	// SlicesServed counts successfully served graph and workload
	// slices.
	SlicesServed int64 `json:"slices_served"`
	// BytesServed totals the payload bytes of served slices.
	BytesServed int64 `json:"bytes_served"`
	// Jobs is the number of registered jobs.
	Jobs int `json:"jobs"`
	// Cache reports the slice cache counters; X-Gmark-Cache on a
	// response is the same cache's disposition of that request.
	Cache CacheStats `json:"cache"`
	// Emissions counts whole-predicate generations: lookups of the
	// columns cache that found nothing resident or in flight.
	Emissions int64 `json:"emissions"`
	// ColumnHits counts slice computations cut from resident columns
	// or from an emission another request had in flight.
	ColumnHits int64 `json:"column_hits"`
	// ColumnBytes is the current size of the resident columns: their
	// packed words and block heads at capacity, and their cut indexes.
	ColumnBytes int64 `json:"column_bytes"`
	// ColumnEvictions counts predicates' columns dropped to stay under
	// their share of the budget.
	ColumnEvictions int64 `json:"column_evictions"`
	// ColumnIndexes counts cut indexes built: resident columns cut a
	// second time, with the index's bytes free in their share.
	ColumnIndexes int64 `json:"column_indexes"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	cols := s.columns.stats()
	return Stats{
		Requests:        s.requests.Load(),
		SlicesServed:    s.slicesServed.Load(),
		BytesServed:     s.bytesServed.Load(),
		Jobs:            jobs,
		Cache:           s.slices.stats(),
		Emissions:       cols.Misses,
		ColumnHits:      cols.Hits,
		ColumnBytes:     cols.Bytes,
		ColumnEvictions: cols.Evictions,
		ColumnIndexes:   s.columnIndexes.Load(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON writes v as an indented JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
