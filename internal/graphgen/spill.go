package graphgen

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"gmark/internal/bitset"
	"gmark/internal/fanout"
	"gmark/internal/graph"
	"gmark/internal/schema"
)

// The CSR spill format: one binary file per (predicate, direction,
// node-range shard), each self-delimiting —
//
//	magic  "GMKCSR1\n"                    (8 bytes)
//	nLocal uint32                         nodes covered by the shard
//	edges  uint32                         adjacency entries
//	off    (nLocal+1) x uint32            shard-local offsets (off[0]=0)
//	adj    edges x uint32                 global neighbor ids, sorted
//
// — all little-endian, plus one csr-index.json manifest describing the
// layout and every shard file. An out-of-core evaluator can answer
// Out(v)/In(v) by touching only the one shard file whose node range
// contains v.
//
// The manifest also names one active-domain bitmap file per
// (predicate, direction) —
//
//	magic  "GMKDOM1\n"                    (8 bytes)
//	words  uint32                         ceil(nodes/64) 64-bit words
//	bits   words x uint64                 bit v set iff node v has an edge
//
// — so schema-level pruning (which nodes carry a predicate at all) is
// answered without touching any shard file. Shards, bitmaps and
// manifest together are format_version 2, the oldest generation
// readers accept.
//
// Since format_version 3 shard files may instead carry the compressed
// layout ("GMKCSR2\n" magic): a codec flag byte, the same counts, and
// a delta-varint payload — offsets as gap sequences, adjacency rows as
// per-row deltas — optionally wrapped per shard in a DEFLATE frame
// when that shrinks it (see encoding.go). A third shard layout
// ("GMKCSR3\n", -spill-compress=raw) keeps the fixed-width arrays
// behind a page-padded header, 8-byte aligned, so a reader can serve
// adjacency straight out of a memory-mapped shard file with no decode
// at all. Readers accept format_version 2 and 3 and dispatch on each
// shard's magic. OpenCSRSpill validates the whole manifest against the
// grid the writers emit, so a spill that opens is one a writer could
// have produced. docs/FORMATS.md specifies every layout for external
// readers.
const (
	csrMagic        = "GMKCSR1\n"
	csrMagicV3      = "GMKCSR2\n"
	csrMagicRaw     = "GMKCSR3\n"
	domMagic        = "GMKDOM1\n"
	csrManifestFile = "csr-index.json"

	// csrFormatVersion is the newest manifest version this package
	// reads and writes, csrMinFormatVersion the oldest. Version 2 is
	// raw ("GMKCSR1\n") shards with active-domain bitmaps; version 3
	// adds the varint ("GMKCSR2\n") and mappable ("GMKCSR3\n") shard
	// files. Writers record 2 when configured for the raw legacy layout
	// and 3 otherwise; readers accept exactly these two. Version 1 (or
	// the field absent) predates the bitmaps and is rejected.
	csrFormatVersion    = 3
	csrMinFormatVersion = 2

	// defaultCSRShardNodes is the node-range width of one spill shard
	// when the sink is created with shardNodes = 0.
	defaultCSRShardNodes = 1 << 20
)

// DefaultCSRShardNodes is the node-range width of one CSR spill shard
// when the caller does not choose one (the shardNodes = 0 default of
// NewCSRSpillSinkWith). The slice server uses it to compute the same range
// boundaries a batch spill run would.
const DefaultCSRShardNodes = defaultCSRShardNodes

// CSRManifest is the JSON manifest of a CSR spill directory. Encoding
// (format_version >= 3) records the writer's shard-compression
// setting — "varint" or "deflate" — as a hint for tooling; readers
// must still dispatch on each shard file's magic and codec byte, which
// are authoritative per shard.
type CSRManifest struct {
	FormatVersion int                 `json:"format_version,omitempty"`
	Nodes         int                 `json:"nodes"`
	ShardNodes    int                 `json:"shard_nodes"`
	Edges         int                 `json:"edges"`
	Encoding      string              `json:"encoding,omitempty"`
	Types         []PartitionType     `json:"types"`
	Predicates    []CSRSpillPredicate `json:"predicates"`
}

// manifestVersionFor maps a compression setting to the manifest
// format_version it produces: the raw legacy layout stays exactly
// format_version 2 (byte-identical to pre-v3 writers), everything else
// is 3.
func manifestVersionFor(comp SpillCompression) int {
	if comp == SpillCompressNone {
		return csrMinFormatVersion
	}
	return csrFormatVersion
}

// manifestEncodingFor is the Encoding field value for a compression
// setting; empty for the legacy layout, which predates the field.
func manifestEncodingFor(comp SpillCompression) string {
	if comp == SpillCompressNone {
		return ""
	}
	return comp.String()
}

// CSRSpillPredicate lists one predicate's shard files per direction,
// plus its active-domain bitmap files: FwdDomain marks nodes with at
// least one outgoing edge of the predicate, BwdDomain nodes with at
// least one incoming edge. OpenCSRSpill refuses a manifest that leaves
// either empty.
type CSRSpillPredicate struct {
	Name      string     `json:"name"`
	Fwd       []CSRShard `json:"fwd"`
	Bwd       []CSRShard `json:"bwd"`
	FwdDomain string     `json:"fwd_domain,omitempty"`
	BwdDomain string     `json:"bwd_domain,omitempty"`
}

// CSRShard locates one (predicate, direction, node-range) file.
type CSRShard struct {
	File  string `json:"file"`
	Lo    int    `json:"lo"` // first node id covered (inclusive)
	Hi    int    `json:"hi"` // last node id covered (exclusive)
	Edges int    `json:"edges"`
}

// csrSpillBufferEdges is the number of edges the spill sink buffers
// in memory before draining every buffered cell to the run files. Each
// buffered edge is one (src, dst) pair, 8 bytes, that both of its
// directions read, so the default bounds the buffers near 16 MiB. The
// same number caps the pairs Flush's units hold in flight. A variable
// so tests can force drains on small inputs.
var csrSpillBufferEdges = 1 << 21

// csrRunDir is the temp subdirectory holding raw per-range edge runs
// during emission; it is removed by Flush and Abort.
const csrRunDir = "runs-tmp"

// spillLayout is the unit grid of one CSR spill: every (predicate,
// direction, node-range) triple is one unit — one shard file, built
// and written independently of every other — numbered
//
//	u = (p*2 + d)*nRanges + r        d = 0 forward, 1 backward
//
// so a (predicate, direction) group is nRanges consecutive units and
// the manifest's shard lists are consecutive slices of one array
// indexed by u. Both spill writers (CSRSpillSink.Flush and
// WriteCSRSpillFromGraphWith) are a layout plus a function producing a
// unit's CSR; writeUnits is the one place shards, domain bitmaps and
// the manifest entries come from.
type spillLayout struct {
	dir        string
	comp       SpillCompression
	numNodes   int
	shardNodes int
	nRanges    int
	predNames  []string
}

// newSpillLayout resolves the shard width (0 selects the default) and
// the range count; an empty instance still has one range, so it still
// writes one shard per (predicate, direction).
func newSpillLayout(dir string, comp SpillCompression, numNodes, shardNodes int, predNames []string) spillLayout {
	if shardNodes <= 0 {
		shardNodes = defaultCSRShardNodes
	}
	return spillLayout{
		dir:        dir,
		comp:       comp,
		numNodes:   numNodes,
		shardNodes: shardNodes,
		nRanges:    max(1, (numNodes+shardNodes-1)/shardNodes),
		predNames:  predNames,
	}
}

// units is the number of units of the grid.
func (l *spillLayout) units() int { return len(l.predNames) * 2 * l.nRanges }

// unit decodes a unit index into its predicate, direction tag ("f" or
// "b"), range index and node range [lo, hi).
func (l *spillLayout) unit(u int) (p int, tag string, r, lo, hi int) {
	r = u % l.nRanges
	p, tag = u/l.nRanges/2, "f"
	if u/l.nRanges%2 == 1 {
		tag = "b"
	}
	lo = r * l.shardNodes
	return p, tag, r, lo, min(lo+l.shardNodes, l.numNodes)
}

// unitPool admits the units of a grid, which fanout.Each claims in
// index order, only while the pairs of the admitted, unfinished units
// stay within limit — the memory bound of a parallel flush. limit is
// at least the largest unit, so a unit can always run alone. Units are
// admitted strictly in index order: the claimant of the next unit
// waits for room while the units behind it wait for their turn, so a
// large unit cannot be starved by small ones.
type unitPool struct {
	mu       sync.Mutex
	room     sync.Cond // signalled when a unit is admitted or finishes
	weights  []int     // pairs held by each unit while it is in flight
	next     int       // the next unit to admit
	limit    int
	inflight int // pairs of admitted, unfinished units
	peak     int // high-water mark of inflight
	stopped  bool
}

func newUnitPool(budget int, weights []int) *unitPool {
	q := &unitPool{weights: weights, limit: budget}
	q.room.L = &q.mu
	for _, w := range weights {
		q.limit = max(q.limit, w)
	}
	return q
}

// admit waits until unit u is the next in index order and its pairs
// fit; it is false once a unit has failed.
func (q *unitPool) admit(u int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.stopped && (q.next != u || q.inflight+q.weights[u] > q.limit) {
		q.room.Wait()
	}
	if q.stopped {
		return false
	}
	q.next++
	q.inflight += q.weights[u]
	q.peak = max(q.peak, q.inflight)
	q.room.Broadcast()
	return true
}

// release returns a finished unit's pairs; a failed unit stops every
// further admission (units already admitted run to completion).
func (q *unitPool) release(w int, failed bool) {
	q.mu.Lock()
	q.inflight -= w
	q.stopped = q.stopped || failed
	q.mu.Unlock()
	q.room.Broadcast()
}

// domainGroup accumulates one (predicate, direction) active-domain
// bitmap from its units. The bitmap exists from the group's first
// finished unit to its last, which writes the file; units are claimed
// in index order, so at most one group per worker is live at a time.
type domainGroup struct {
	mu   sync.Mutex
	dom  *bitset.Set
	left int // units of the group not yet finished
}

// writeUnits runs every unit of the grid — build(u) yields the CSR of
// the unit's node range (len(off) == hi-lo+1, not necessarily rebased;
// adj the array off indexes into), which is encoded, written as the
// unit's shard file and ORed into its group's domain bitmap — on
// GOMAXPROCS workers (fanout.Each) admitted through unitPool (weights[u]
// is the pairs unit u holds while it runs, budget caps the pairs in
// flight). Results are stored by unit index, so the returned shard
// entries, every shard file and every domain file are the same at any
// worker count. When units fail, no further unit is admitted and the
// error returned is the lowest-index one's. No goroutine outlives the
// call. peak is the pool's in-flight high-water mark.
func (l *spillLayout) writeUnits(budget int, weights []int, build func(u int) (off, adj []int32, err error)) (shards []CSRShard, peak int, err error) {
	n := len(weights)
	shards = make([]CSRShard, n)
	groups := make([]domainGroup, n/l.nRanges)
	for i := range groups {
		groups[i].left = l.nRanges
	}
	pool := newUnitPool(budget, weights)
	imgs := make([][]byte, min(runtime.GOMAXPROCS(0), n)) // each worker's encode buffer, reused across units
	err = fanout.Each(n, len(imgs), func(w, u int, _ *atomic.Bool) error {
		if !pool.admit(u) {
			return nil
		}
		var err error
		imgs[w], err = l.writeUnit(u, imgs[w][:0], &shards[u], &groups[u/l.nRanges], build)
		pool.release(weights[u], err != nil)
		return err
	})
	if err != nil {
		return nil, pool.peak, err
	}
	return shards, pool.peak, nil
}

// writeUnit builds, encodes and writes one unit into img, returning
// the buffer for the worker's next unit.
func (l *spillLayout) writeUnit(u int, img []byte, sh *CSRShard, g *domainGroup, build func(u int) (off, adj []int32, err error)) ([]byte, error) {
	p, tag, r, lo, hi := l.unit(u)
	off, adj, err := build(u)
	if err != nil {
		return img, err
	}
	if img, err = appendCSRShard(img, off, adj, l.comp); err != nil {
		return img, err
	}
	name := fmt.Sprintf("csr-%s-%03d-%06d.bin", tag, p, r)
	if err := os.WriteFile(filepath.Join(l.dir, name), img, 0o644); err != nil {
		return img, err
	}
	*sh = CSRShard{File: name, Lo: lo, Hi: hi, Edges: int(off[len(off)-1] - off[0])}

	g.mu.Lock()
	if g.dom == nil {
		g.dom = bitset.New(l.numNodes)
	}
	domainFromOffsets(g.dom, lo, off)
	g.left--
	last := g.left == 0
	g.mu.Unlock()
	if !last {
		return img, nil
	}
	err = writeDomainFile(l.dir, tag, p, g.dom)
	g.dom = nil
	return img, err
}

// manifest assembles the spill's manifest from the unit-indexed shard
// entries writeUnits returned.
func (l *spillLayout) manifest(edges int, types []PartitionType, shards []CSRShard) *CSRManifest {
	m := &CSRManifest{
		FormatVersion: manifestVersionFor(l.comp),
		Nodes:         l.numNodes,
		ShardNodes:    l.shardNodes,
		Edges:         edges,
		Encoding:      manifestEncodingFor(l.comp),
		Types:         types,
	}
	for p, name := range l.predNames {
		fwd := shards[2*p*l.nRanges:][:l.nRanges:l.nRanges]
		bwd := shards[(2*p+1)*l.nRanges:][:l.nRanges:l.nRanges]
		m.Predicates = append(m.Predicates, CSRSpillPredicate{
			Name: name, Fwd: fwd, Bwd: bwd,
			FwdDomain: domainFileName("f", p), BwdDomain: domainFileName("b", p),
		})
	}
	return m
}

// CSRSpillSink writes the generated edges as node-range-sharded binary
// CSR files (both directions) for out-of-core query evaluation. The
// writer is incremental: during emission each edge is buffered once,
// as one (src, dst) pair, in the cell of its (predicate, source range,
// target range) — the forward unit of the source range reads the
// cell's row, the backward unit of the target range its column — and
// when the cells reach a fixed budget of edges they are drained,
// encoded once each, to raw per-(predicate, direction, range) run
// files on disk. Flush then treats every (predicate, direction, range)
// as an independent unit — build the range's CSR from the unit's
// decoded run and its cells, through the same counting build Freeze
// uses, with no concatenated copy (graph.BuildAdjacencyParts), encode,
// write the shard — and drains the units on a pool of GOMAXPROCS
// workers that admits a unit only while the pairs in flight stay within
// the same budget (or one unit, when one alone is larger). A cell is
// freed as soon as both of its units are built. Peak writer memory is
// therefore bounded by the buffer budget plus the units that budget
// admits, never by the whole instance: producing a spill does not need
// Generate-sized memory. The shard, bitmap and manifest bytes are the
// same at any GOMAXPROCS and identical to WriteCSRSpillFromGraphWith's
// (test-pinned).
type CSRSpillSink struct {
	spillLayout
	types []PartitionType

	// rows[p*nRanges+f] is the cell row of predicate p and source range
	// f — cell t holds the buffered edges from range f into range t —
	// or nil before the row's first edge since the last drain.
	rows     [][]spillCell
	cells    int   // cells of the allocated rows
	buffered int   // edges currently buffered across all cells
	disk     []int // disk[u]: pairs of unit u in its run file

	maxBuffered int // high-water mark of buffered (memory-bound tests)
	maxCells    int // high-water mark of cells (same)
	maxInflight int // high-water mark of Flush's in-flight pairs (same)
	drains      int // drains so far: run files exist iff drains > 0

	edges    int
	aborted  bool
	flushed  bool
	flushErr error // the first Flush's outcome, replayed by later calls
}

// spillCell buffers the edges of one (predicate, source range, target
// range). built counts the cell's two units — the forward unit of its
// source range, the backward unit of its target range — whose shards
// Flush has built; the second frees the columns.
type spillCell struct {
	src, dst []int32
	built    atomic.Int32
}

// NewCSRSpillSinkWith creates dir (and parents) and returns a spill
// sink for the configuration. shardNodes is the node-range width of
// one shard file; 0 selects the default (1M nodes). comp selects the
// shard layout: SpillCompressNone reproduces the legacy raw
// format_version 2 layout byte for byte, SpillCompressVarint (the
// default) and SpillCompressDeflate write format_version 3.
func NewCSRSpillSinkWith(dir string, cfg *schema.GraphConfig, shardNodes int, comp SpillCompression) (*CSRSpillSink, error) {
	if err := checkSpillCompression(comp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	typeNames, typeCounts, predNames := resolveLayout(cfg)
	sink := &CSRSpillSink{}
	numNodes := 0
	for i, name := range typeNames {
		sink.types = append(sink.types, PartitionType{Name: name, Count: typeCounts[i]})
		numNodes += typeCounts[i]
	}
	sink.spillLayout = newSpillLayout(dir, comp, numNodes, shardNodes, predNames)
	sink.rows = make([][]spillCell, len(predNames)*sink.nRanges)
	sink.disk = make([]int, sink.units())
	return sink, nil
}

// AddEdgeBatch implements EdgeSink: every edge of the batch is
// buffered once, in its cell (see route). The batch is cut where the
// buffered edges reach the budget and the cells are drained there, so
// buffered never exceeds csrSpillBufferEdges. An edge with a node id
// or predicate outside the configuration's layout is refused and
// aborts the sink — it has no range to be routed to, and a spill
// missing edges its manifest counts must not be finalized.
func (s *CSRSpillSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	if err := checkBatch(srcs, dsts); err != nil {
		return err
	}
	if s.aborted || s.flushed {
		return fmt.Errorf("graphgen: CSRSpillSink: edge added after Flush or Abort")
	}
	if pred < 0 || int(pred) >= len(s.predNames) {
		s.Abort()
		return fmt.Errorf("graphgen: CSRSpillSink: predicate %d outside the schema's %d predicates", pred, len(s.predNames))
	}
	for len(srcs) > 0 {
		n := min(len(srcs), max(1, csrSpillBufferEdges-s.buffered))
		m, err := s.route(pred, srcs[:n], dsts[:n])
		if err != nil {
			return err
		}
		srcs, dsts = srcs[m:], dsts[m:]
		s.buffered += m
		s.edges += m
		s.maxBuffered = max(s.maxBuffered, s.buffered)
		if s.buffered >= csrSpillBufferEdges || m < n {
			if err := s.drainRuns(); err != nil {
				return err
			}
		}
	}
	return nil
}

// csrCellEdges is the buffer room one cell takes, in edges: the
// allocated rows may hold at most csrSpillBufferEdges/csrCellEdges
// cells (or one row, when a row alone is more) before a drain is due.
// A cell's header — two slice headers and a counter — is the size of
// seven buffered pairs, so a grid of many narrow ranges, whose rows are
// nRanges cells each, stays within the buffer's memory too.
const csrCellEdges = 8

// route buffers edges in their cells and returns how many it took: all
// of them, unless the next one needs a row the grid has no room for
// (see csrCellEdges). Consecutive edges of one cell — emission walks
// sources in ascending order, and a unit's targets often stay in one
// range — are appended with one append per column.
func (s *CSRSpillSink) route(pred graph.PredID, srcs, dsts []int32) (int, error) {
	rows := s.rows[int(pred)*s.nRanges:][:s.nRanges]
	for i := 0; i < len(srcs); {
		f, sLo, sWidth, okS := s.rangeOf(srcs[i])
		t, dLo, dWidth, okD := s.rangeOf(dsts[i])
		if !okS || !okD {
			return i, s.reject(pred, srcs[i], dsts[i], okS)
		}
		j := i + 1
		for j < len(srcs) && uint32(srcs[j]-sLo) < sWidth && uint32(dsts[j]-dLo) < dWidth {
			j++
		}
		if rows[f] == nil {
			if s.cells > 0 && s.cells+s.nRanges > csrSpillBufferEdges/csrCellEdges {
				return i, nil
			}
			rows[f] = make([]spillCell, s.nRanges)
			s.cells += s.nRanges
			s.maxCells = max(s.maxCells, s.cells)
		}
		c := &rows[f][t]
		c.src = append(c.src, srcs[i:j]...)
		c.dst = append(c.dst, dsts[i:j]...)
		i = j
	}
	return len(srcs), nil
}

// rangeOf returns the node range holding v — its index, first node and
// width — and false when v is negative or past the last node.
func (l *spillLayout) rangeOf(v int32) (r int, lo int32, width uint32, ok bool) {
	if v < 0 || int(v) >= l.numNodes {
		return 0, 0, 0, false
	}
	r = int(v) / l.shardNodes
	lo = int32(r * l.shardNodes)
	return r, lo, uint32(min(l.shardNodes, l.numNodes-int(lo))), true
}

// reject aborts the sink over an edge with an endpoint that has no
// node range (the source unless srcOK) and returns the error naming
// the edge.
func (s *CSRSpillSink) reject(pred graph.PredID, src, dst int32, srcOK bool) error {
	s.Abort()
	bad := src
	if srcOK {
		bad = dst
	}
	return fmt.Errorf("graphgen: CSRSpillSink: edge (%d %s %d): node id %d outside [0, %d)", src, s.predNames[pred], dst, bad, s.numNodes)
}

// runPath names the run file of a unit.
func (s *CSRSpillSink) runPath(u int) string {
	p, tag, r, _, _ := s.unit(u)
	return filepath.Join(s.dir, csrRunDir, fmt.Sprintf("run-%s-%03d-%06d.bin", tag, p, r))
}

// drainRuns appends every buffered cell to the run files of both of
// its units and drops the cells. Each non-empty cell is encoded once,
// as one self-delimiting delta-varint block of its (src, dst) pairs
// (see appendPairBlock). A predicate's cells are encoded row by row
// into one buffer, so a row's blocks lie contiguous there and go to
// its forward unit's file in one append, while a column's blocks are
// gathered into a second buffer for its backward unit's file: one
// append per unit run file per drain. Capacities are dropped, not
// kept, because retained high-water capacity would otherwise
// accumulate across all cells and grow with the range count, exactly
// the unbounded footprint the incremental writer exists to avoid. Runs
// are temporary spill state, but they set the disk high-water mark of
// a constant-memory streaming run — delta-varint keeps them severalfold
// below the raw 8-bytes-per-pair layout, since emission walks sources
// in ascending order and the deltas stay small. Run files are opened,
// appended and closed per drain so the sink never holds more than one
// descriptor.
func (s *CSRSpillSink) drainRuns() error {
	if err := os.MkdirAll(filepath.Join(s.dir, csrRunDir), 0o755); err != nil {
		return err
	}
	var enc, col []byte
	var live, ends []int // a predicate's allocated rows; where each of their cells' blocks ends in enc
	for p := range s.predNames {
		rows := s.rows[p*s.nRanges:][:s.nRanges]
		live, ends, enc = live[:0], ends[:0], enc[:0]
		for f, row := range rows {
			if row == nil {
				continue
			}
			live = append(live, f)
			for t := range row {
				if c := &row[t]; len(c.src) > 0 {
					enc = appendPairBlock(enc, c.src, c.dst)
				}
				ends = append(ends, len(enc))
			}
		}
		// cellBytes returns the blocks of cells i..j-1 of the live rows,
		// cell t of the k-th live row being cell k*nRanges+t.
		cellBytes := func(i, j int) []byte {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			return enc[start:ends[j-1]]
		}
		for k, f := range live {
			pairs := 0
			for t := range rows[f] {
				pairs += len(rows[f][t].src)
			}
			if err := s.appendRun(2*p*s.nRanges+f, cellBytes(k*s.nRanges, (k+1)*s.nRanges), pairs); err != nil {
				return err
			}
		}
		for t := 0; t < s.nRanges; t++ {
			col = col[:0]
			pairs := 0
			for k, f := range live {
				col = append(col, cellBytes(k*s.nRanges+t, k*s.nRanges+t+1)...)
				pairs += len(rows[f][t].src)
			}
			if err := s.appendRun((2*p+1)*s.nRanges+t, col, pairs); err != nil {
				return err
			}
		}
		clear(rows)
	}
	s.cells = 0
	s.buffered = 0
	s.drains++
	return nil
}

// appendRun appends the blocks of pairs pairs to unit u's run file;
// nothing when pairs is 0.
func (s *CSRSpillSink) appendRun(u int, blocks []byte, pairs int) error {
	if pairs == 0 {
		return nil
	}
	if err := appendFile(s.runPath(u), blocks); err != nil {
		return err
	}
	s.disk[u] += pairs
	return nil
}

// appendFile appends data to the file at path, creating it if needed.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRunPairs loads a run file — a concatenation of delta-varint
// blocks of (src, dst) pairs, one per cell per drain — back into src
// and dst columns allocated once, at pairs (what the sink drained into
// the file). It is only called for units that spilled, so a missing
// file, or one holding another number of pairs, means the run data was
// lost (temp dir deleted externally) — that must fail the Flush, never
// silently write a spill with fewer edges than its manifest claims.
func readRunPairs(path string, pairs int) (src, dst []int32, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	src, dst, err = decodePairBlocks(data, pairs)
	if err == nil && len(src) != pairs {
		err = fmt.Errorf("holds %d pairs, the sink drained %d", len(src), pairs)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("graphgen: %s: corrupt run file: %w", path, err)
	}
	return src, dst, nil
}

// Abort implements AbortableEdgeSink: a failed run drops the buffers
// and temp runs and writes nothing — no shard files, no manifest — so
// a downstream OpenCSRSpill cannot mistake partial output for a spill.
func (s *CSRSpillSink) Abort() {
	s.aborted = true
	s.rows = nil
	s.buffered = 0
	os.RemoveAll(filepath.Join(s.dir, csrRunDir))
}

// Flush implements EdgeSink: builds each unit — disk run plus the
// still-buffered cells — into its final CSR shard file on the unit
// pool (see CSRSpillSink), removes the temp runs, and writes the
// manifest last, so a Flush that fails leaves no manifest behind. The
// sink is finished afterwards: a second Flush does nothing and returns
// the first one's result, as does a Flush after Abort (nil).
func (s *CSRSpillSink) Flush() error {
	if s.aborted || s.flushed {
		return s.flushErr
	}
	s.flushed = true
	s.flushErr = s.flush()
	return s.flushErr
}

func (s *CSRSpillSink) flush() error {
	weights := make([]int, s.units())
	for u := range weights {
		weights[u] = s.disk[u]
		for _, c := range s.unitCells(u) {
			weights[u] += len(c.src)
		}
	}
	shards, peak, err := s.writeUnits(csrSpillBufferEdges, weights, s.buildUnit)
	s.maxInflight = peak
	s.rows = nil
	if rmErr := os.RemoveAll(filepath.Join(s.dir, csrRunDir)); err == nil {
		err = rmErr
	}
	if err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(s.dir, csrManifestFile), s.manifest(s.edges, s.types, shards))
}

// unitCells returns the cells unit u reads: its row when it is a
// forward unit, its column when it is a backward one.
func (s *CSRSpillSink) unitCells(u int) []*spillCell {
	p, tag, r, _, _ := s.unit(u)
	rows := s.rows[p*s.nRanges:][:s.nRanges]
	var cells []*spillCell
	if tag == "f" {
		for t := range rows[r] {
			cells = append(cells, &rows[r][t])
		}
		return cells
	}
	for _, row := range rows {
		if row != nil {
			cells = append(cells, &row[r])
		}
	}
	return cells
}

// buildUnit is the sink's unit producer: the unit's pairs — its
// decoded run and its cells, keyed by source (forward) or target
// (backward) — become the CSR of its range, built from those parts
// without concatenating them; the part order never shows, since the
// built lists are sorted. A cell is freed once both of its units are
// built. The build is sequential: the parallelism is the pool's, and
// nesting both would oversubscribe the cores and double the build's
// scratch.
func (s *CSRSpillSink) buildUnit(u int) (off, adj []int32, err error) {
	_, tag, _, lo, hi := s.unit(u)
	part := func(src, dst []int32) graph.Part {
		if tag == "b" {
			return graph.Part{Keys: dst, Vals: src}
		}
		return graph.Part{Keys: src, Vals: dst}
	}
	cells := s.unitCells(u)
	parts := make([]graph.Part, 0, len(cells)+1)
	if s.disk[u] > 0 {
		src, dst, err := readRunPairs(s.runPath(u), s.disk[u])
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, part(src, dst))
	}
	for _, c := range cells {
		if len(c.src) > 0 {
			parts = append(parts, part(c.src, c.dst))
		}
	}
	off, adj = graph.BuildAdjacencyParts(hi-lo, int32(lo), parts)
	for _, c := range cells {
		if c.built.Add(1) == 2 {
			c.src, c.dst = nil, nil
		}
	}
	return off, adj, nil
}

// domainFromOffsets marks, in dom, every node of the range starting at
// lo whose offset span is non-empty (the node has at least one edge in
// the direction off describes): the active-domain predicate the
// bitmap files record.
func domainFromOffsets(dom *bitset.Set, lo int, off []int32) {
	for i := 0; i+1 < len(off); i++ {
		if off[i+1] > off[i] {
			dom.Add(int32(lo + i))
		}
	}
}

// domainFileName names the active-domain bitmap file of (predicate,
// direction).
func domainFileName(tag string, p int) string {
	return fmt.Sprintf("dom-%s-%03d.bin", tag, p)
}

// writeDomainFile writes one direction's active-domain bitmap under
// its manifest-relative name, domainFileName(tag, p).
func writeDomainFile(dir, tag string, p int, dom *bitset.Set) error {
	words := dom.Words()
	buf := make([]byte, len(domMagic)+4+8*len(words))
	copy(buf, domMagic)
	binary.LittleEndian.PutUint32(buf[len(domMagic):], uint32(len(words)))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[len(domMagic)+4+8*i:], w)
	}
	return os.WriteFile(filepath.Join(dir, domainFileName(tag, p)), buf, 0o644)
}

// readDomainFile loads an active-domain bitmap file back as a set of
// capacity nodes. The file must hold exactly the ceil(nodes/64) words
// the writers emit: a shorter bitmap would read as a smaller domain and
// silently drop nodes from every count it prunes.
func readDomainFile(path string, nodes int) (*bitset.Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !hasMagic(data, domMagic) || len(data) < len(domMagic)+4 {
		return nil, fmt.Errorf("graphgen: %s: not an active-domain bitmap file", path)
	}
	body := data[len(domMagic):]
	words := int(binary.LittleEndian.Uint32(body[0:4]))
	body = body[4:]
	if want := (nodes + 63) / 64; words != want {
		return nil, fmt.Errorf("graphgen: %s: bitmap holds %d words, %d nodes need %d", path, words, nodes, want)
	}
	if len(body) != 8*words {
		return nil, fmt.Errorf("graphgen: %s: truncated bitmap (%d bytes, want %d)", path, len(body), 8*words)
	}
	w := make([]uint64, words)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return bitset.FromWords(nodes, w), nil
}

// WriteCSRSpillFromGraphWith spills an already-frozen graph into dir
// in the exact layout OpenCSRSpill reads, reusing the adjacency Freeze
// already built instead of buffering edges and rebuilding it — the
// cheap path when a materialized instance exists (cmd/gmark's
// default). shardNodes 0 selects the default node-range width; comp
// selects the shard layout, and the shard bytes stay identical to a
// CSRSpillSink configured the same way (test-pinned). It runs the
// same units on the same pool as the sink's Flush — its units are
// slices of the frozen adjacency, so they have no build step and hold
// no pairs.
func WriteCSRSpillFromGraphWith(dir string, g *graph.Graph, shardNodes int, comp SpillCompression) error {
	if err := checkSpillCompression(comp); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	predNames := make([]string, g.NumPredicates())
	for p := range predNames {
		predNames[p] = g.PredName(int32(p))
	}
	var types []PartitionType
	for t := 0; t < g.NumTypes(); t++ {
		types = append(types, PartitionType{Name: g.TypeName(t), Count: g.TypeCount(t)})
	}
	l := newSpillLayout(dir, comp, g.NumNodes(), shardNodes, predNames)
	shards, _, err := l.writeUnits(0, make([]int, l.units()), func(u int) (off, adj []int32, err error) {
		p, tag, _, lo, hi := l.unit(u)
		off, adj = g.Adjacency(int32(p), tag == "b")
		return off[lo : hi+1], adj, nil
	})
	if err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, csrManifestFile), l.manifest(g.NumEdges(), types, shards))
}

// CSRSpill is an opened spill directory: the manifest plus shard
// loading. It holds no file handles between loads — the point of the
// format is that an evaluator touches only the shards it needs.
type CSRSpill struct {
	dir      string
	Manifest CSRManifest
}

// OpenCSRSpill reads and validates the manifest of a CSR spill
// directory. It is the one place that knows what a valid spill looks
// like: a manifest opens only if some writer of this package could
// have produced it (see checkCSRManifest), so every later lookup can
// trust the manifest's counts and ranges. format_version 1 (or absent)
// predates active-domain bitmaps and is rejected with a request to
// spill the instance again; manifests newer than this package's writer
// are rejected rather than misinterpreted.
func OpenCSRSpill(dir string) (*CSRSpill, error) {
	data, err := os.ReadFile(filepath.Join(dir, csrManifestFile))
	if err != nil {
		return nil, err
	}
	var m CSRManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("graphgen: csr manifest: %w", err)
	}
	if err := checkCSRManifest(&m); err != nil {
		return nil, fmt.Errorf("graphgen: csr manifest: %w", err)
	}
	return &CSRSpill{dir: dir, Manifest: m}, nil
}

// checkCSRManifest checks, in one pass, everything a reader relies on:
// a version some writer records, node and edge counts in range, type
// counts summing to the node count, and per (predicate, direction)
// exactly the shard grid newSpillLayout gives the writers, with edge
// totals matching the manifest's and every file a plain name inside
// the spill directory. Each error names the offending field.
func checkCSRManifest(m *CSRManifest) error {
	switch {
	case m.FormatVersion > csrFormatVersion:
		return fmt.Errorf("format_version %d is newer than this reader (max %d)", m.FormatVersion, csrFormatVersion)
	case m.FormatVersion < csrMinFormatVersion:
		return fmt.Errorf("format_version %d predates active-domain bitmaps (readers accept %d to %d); spill the instance again",
			m.FormatVersion, csrMinFormatVersion, csrFormatVersion)
	case m.Nodes < 0 || m.Nodes > math.MaxInt32:
		return fmt.Errorf("nodes %d outside [0, %d]", m.Nodes, math.MaxInt32)
	case m.ShardNodes <= 0:
		return fmt.Errorf("shard_nodes %d is not positive", m.ShardNodes)
	case m.Edges < 0:
		return fmt.Errorf("edges %d is negative", m.Edges)
	}
	typed := 0
	for _, t := range m.Types {
		if t.Count < 0 || t.Count > m.Nodes-typed {
			return fmt.Errorf("types: %q count %d does not fit the %d nodes", t.Name, t.Count, m.Nodes)
		}
		typed += t.Count
	}
	if typed != m.Nodes {
		return fmt.Errorf("types: counts sum to %d, nodes is %d", typed, m.Nodes)
	}
	l := newSpillLayout("", 0, m.Nodes, m.ShardNodes, make([]string, len(m.Predicates)))
	var sums [2]int // edges listed per direction, across predicates
	for p := range m.Predicates {
		pr := &m.Predicates[p]
		for d, shards := range [2][]CSRShard{pr.Fwd, pr.Bwd} {
			field := [2]string{"fwd", "bwd"}[d]
			if len(shards) != l.nRanges {
				return fmt.Errorf("predicate %q: %s lists %d shards, the grid has %d", pr.Name, field, len(shards), l.nRanges)
			}
			for r, sh := range shards {
				_, _, _, lo, hi := l.unit((2*p+d)*l.nRanges + r)
				switch {
				case sh.Lo != lo || sh.Hi != hi:
					return fmt.Errorf("predicate %q: %s shard %d has lo %d, hi %d; the grid has [%d, %d)",
						pr.Name, field, r, sh.Lo, sh.Hi, lo, hi)
				case sh.Edges < 0 || sh.Edges > m.Edges-sums[d]:
					return fmt.Errorf("predicate %q: %s shard %d edges %d exceed the manifest's %d",
						pr.Name, field, r, sh.Edges, m.Edges)
				case !plainFileName(sh.File):
					return fmt.Errorf("predicate %q: %s shard %d file %q is not a plain name", pr.Name, field, r, sh.File)
				}
				sums[d] += sh.Edges
			}
		}
		for _, name := range []string{pr.FwdDomain, pr.BwdDomain} {
			if !plainFileName(name) {
				return fmt.Errorf("predicate %q: domain file %q is missing or not a plain name", pr.Name, name)
			}
		}
	}
	if sums[0] != m.Edges || sums[1] != m.Edges {
		return fmt.Errorf("edges %d, but the fwd shards list %d and the bwd shards %d", m.Edges, sums[0], sums[1])
	}
	return nil
}

// plainFileName reports whether name names a file directly inside a
// spill or partition directory: non-empty, no separator, not "." or
// "..".
func plainFileName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
}

// LoadDomain reads one (predicate, direction) active-domain bitmap:
// the set of nodes with at least one outgoing (inverse false) or
// incoming (inverse true) edge of the predicate.
func (c *CSRSpill) LoadDomain(pred int, inverse bool) (*bitset.Set, error) {
	if pred < 0 || pred >= len(c.Manifest.Predicates) {
		return nil, fmt.Errorf("graphgen: spill has no predicate %d", pred)
	}
	name := c.Manifest.Predicates[pred].FwdDomain
	if inverse {
		name = c.Manifest.Predicates[pred].BwdDomain
	}
	return readDomainFile(filepath.Join(c.dir, name), c.Manifest.Nodes)
}

// LoadShardSized reads one shard file back, with its on-disk byte
// size, so callers can account compressed disk traffic separately from
// the decoded bytes they hold resident. off is shard-local (off[0] ==
// 0, one entry per covered node plus one), adj holds global neighbor
// ids sorted ascending per node; every shard layout decodes to the
// same slices. A shard whose node or edge count disagrees with its
// manifest entry is corrupt and returns an error.
func (c *CSRSpill) LoadShardSized(sh CSRShard) (off, adj []int32, diskBytes int64, err error) {
	data, err := os.ReadFile(filepath.Join(c.dir, sh.File))
	if err != nil {
		return nil, nil, 0, err
	}
	off, adj, err = decodeCSRShard(data)
	if err == nil && (len(off) != sh.Hi-sh.Lo+1 || len(adj) != sh.Edges) {
		err = fmt.Errorf("holds %d nodes and %d edges, the manifest says %d and %d",
			len(off)-1, len(adj), sh.Hi-sh.Lo, sh.Edges)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("graphgen: %s: %w", sh.File, err)
	}
	return off, adj, int64(len(data)), nil
}

// ShardPath returns the absolute path of one shard file, the single
// integration point for readers — such as the evaluator's mmap loader
// — that interpret the shard file in place instead of going through
// LoadShardSized's read-and-decode.
func (c *CSRSpill) ShardPath(sh CSRShard) string {
	return filepath.Join(c.dir, sh.File)
}
