package graphgen

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"gmark/internal/bitset"
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
// Since format_version 2 the manifest also names one active-domain
// bitmap file per (predicate, direction) —
//
//	magic  "GMKDOM1\n"                    (8 bytes)
//	words  uint32                         number of 64-bit words
//	bits   words x uint64                 bit v set iff node v has an edge
//
// — so schema-level pruning (which nodes carry a predicate at all) is
// answered without touching any shard file.
//
// Since format_version 3 shard files may instead carry the compressed
// layout ("GMKCSR2\n" magic): a codec flag byte, the same counts, and
// a delta-varint payload — offsets as gap sequences, adjacency rows as
// per-row deltas — optionally wrapped per shard in a DEFLATE frame
// when that shrinks it (see encoding.go). A third shard layout
// ("GMKCSR3\n", -spill-compress=raw) keeps the fixed-width arrays
// behind a page-padded header, 8-byte aligned, so a reader can serve
// adjacency straight out of a memory-mapped shard file with no decode
// at all. Readers dispatch on the shard magic, so v1/v2 spills keep
// decoding unchanged. docs/FORMATS.md specifies every layout for
// external readers.
const (
	csrMagic        = "GMKCSR1\n"
	csrMagicV3      = "GMKCSR2\n"
	csrMagicRaw     = "GMKCSR3\n"
	domMagic        = "GMKDOM1\n"
	csrManifestFile = "csr-index.json"

	// csrFormatVersion is the newest manifest version this package
	// reads and writes. Version 1 (or the field absent) is the
	// original layout without active-domain bitmaps; version 2 adds
	// them; version 3 adds compressed ("GMKCSR2\n") shard files.
	// Writers record 2 when configured for the raw legacy layout and 3
	// otherwise; readers accept every version up to this one and
	// reject newer manifests.
	csrFormatVersion = 3

	// defaultCSRShardNodes is the node-range width of one spill shard
	// when the sink is created with shardNodes = 0.
	defaultCSRShardNodes = 1 << 20
)

// DefaultCSRShardNodes is the node-range width of one CSR spill shard
// when the caller does not choose one (the shardNodes = 0 default of
// NewCSRSpillSink). The slice server uses it to compute the same range
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
		return 2
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
// plus (format_version >= 2) its active-domain bitmap files: FwdDomain
// marks nodes with at least one outgoing edge of the predicate,
// BwdDomain nodes with at least one incoming edge. Empty fields mean a
// legacy spill; readers must fall back to scanning the shards.
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

// csrSpillBufferEdges is the total number of (from, to) pairs the
// spill sink buffers in memory before spilling every buffered run to
// its per-(predicate, direction, node-range) temp file. Each routed
// edge occupies two pairs (one per direction), 8 bytes each, so the
// default bounds the buffers near 16 MiB. A variable so tests can
// force spilling on small inputs.
var csrSpillBufferEdges = 1 << 21

// csrRunDir is the temp subdirectory holding raw per-range edge runs
// during emission; it is removed by Flush and Abort.
const csrRunDir = "runs-tmp"

// CSRSpillSink writes the generated edges as node-range-sharded binary
// CSR files (both directions) for out-of-core query evaluation. The
// writer is incremental: during emission each edge is routed to its
// forward (by source) and backward (by destination) node range and
// buffered; when the buffers exceed a fixed budget they are appended
// to raw per-(predicate, direction, range) run files on disk. Flush
// merges one range at a time — read its run, build the range's CSR
// through the same graph.BuildAdjacency code path Freeze uses, write
// the shard — so peak writer memory is bounded by the buffer budget
// plus a single node-range's edges, never by the whole instance:
// producing a spill no longer needs Generate-sized memory. The shard
// bytes are identical to WriteCSRSpillFromGraph's (test-pinned).
type CSRSpillSink struct {
	dir        string
	shardNodes int
	nRanges    int
	comp       SpillCompression
	typeNames  []string
	typeCounts []int
	predNames  []string
	numNodes   int

	// bufs[(p*2+dir)*nRanges + r] buffers the pairs of predicate p,
	// direction dir (0 forward, keyed by source; 1 backward, keyed by
	// destination), node range r. from is the range-owning endpoint.
	bufs     []csrRunBuf
	buffered int // pairs currently buffered across all bufs

	maxBuffered int  // high-water mark of buffered (memory-bound tests)
	spilledRuns bool // whether any run file was written

	edges   int
	aborted bool
}

// csrRunBuf is one (predicate, direction, node-range) buffer plus
// whether part of its run already lives on disk.
type csrRunBuf struct {
	from, to []int32
	onDisk   bool
}

// NewCSRSpillSink creates dir (and parents) and returns a spill sink
// for the configuration, writing the default delta-varint
// (format_version 3) shard layout. shardNodes is the node-range width
// of one shard file; 0 selects the default (1M nodes).
func NewCSRSpillSink(dir string, cfg *schema.GraphConfig, shardNodes int) (*CSRSpillSink, error) {
	return NewCSRSpillSinkWith(dir, cfg, shardNodes, SpillCompressVarint)
}

// NewCSRSpillSinkWith is NewCSRSpillSink with an explicit shard
// compression setting: SpillCompressNone reproduces the legacy raw
// format_version 2 layout byte for byte, SpillCompressVarint (the
// default) and SpillCompressDeflate write format_version 3.
func NewCSRSpillSinkWith(dir string, cfg *schema.GraphConfig, shardNodes int, comp SpillCompression) (*CSRSpillSink, error) {
	if err := checkSpillCompression(comp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if shardNodes <= 0 {
		shardNodes = defaultCSRShardNodes
	}
	typeNames, typeCounts, predNames := resolveLayout(cfg)
	sink := &CSRSpillSink{
		dir:        dir,
		shardNodes: shardNodes,
		comp:       comp,
		typeNames:  typeNames,
		typeCounts: typeCounts,
		predNames:  predNames,
	}
	for _, c := range typeCounts {
		sink.numNodes += c
	}
	sink.nRanges = (sink.numNodes + shardNodes - 1) / shardNodes
	if sink.nRanges == 0 {
		sink.nRanges = 1 // an empty instance still writes one shard
	}
	sink.bufs = make([]csrRunBuf, len(predNames)*2*sink.nRanges)
	return sink, nil
}

// bufIndex addresses the buffer of (pred, direction, range).
func (s *CSRSpillSink) bufIndex(pred graph.PredID, backward bool, rng int) int {
	d := 0
	if backward {
		d = 1
	}
	return (int(pred)*2+d)*s.nRanges + rng
}

// route buffers one pair into its owning range, spilling all buffers
// to run files when the budget is exceeded.
func (s *CSRSpillSink) route(pred graph.PredID, backward bool, from, to int32) error {
	b := &s.bufs[s.bufIndex(pred, backward, int(from)/s.shardNodes)]
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	s.buffered++
	if s.buffered > s.maxBuffered {
		s.maxBuffered = s.buffered
	}
	if s.buffered >= csrSpillBufferEdges {
		return s.drainRuns()
	}
	return nil
}

// AddEdge implements EdgeSink.
func (s *CSRSpillSink) AddEdge(src graph.NodeID, pred graph.PredID, dst graph.NodeID) error {
	if err := s.route(pred, false, src, dst); err != nil {
		return err
	}
	if err := s.route(pred, true, dst, src); err != nil {
		return err
	}
	s.edges++
	return nil
}

// AddEdgeBatch implements BatchEdgeSink.
func (s *CSRSpillSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	if err := checkBatch(srcs, dsts); err != nil {
		return err
	}
	for i := range srcs {
		if err := s.AddEdge(srcs[i], pred, dsts[i]); err != nil {
			return err
		}
	}
	return nil
}

// runPath names the run file of (pred, direction, range).
func (s *CSRSpillSink) runPath(pred int, backward bool, rng int) string {
	tag := "f"
	if backward {
		tag = "b"
	}
	return filepath.Join(s.dir, csrRunDir, fmt.Sprintf("run-%s-%03d-%06d.bin", tag, pred, rng))
}

// drainRuns appends every non-empty buffer to its run file and
// releases the buffer storage — capacities are dropped, not kept,
// because retained high-water capacity would otherwise accumulate
// across all (predicate, direction, range) buffers and grow with the
// range count, exactly the unbounded footprint the incremental writer
// exists to avoid. Run files are opened, appended and closed per drain
// so the sink never holds more than one descriptor.
func (s *CSRSpillSink) drainRuns() error {
	if err := os.MkdirAll(filepath.Join(s.dir, csrRunDir), 0o755); err != nil {
		return err
	}
	for p := range s.predNames {
		for _, backward := range []bool{false, true} {
			for r := 0; r < s.nRanges; r++ {
				b := &s.bufs[s.bufIndex(graph.PredID(p), backward, r)]
				if len(b.from) == 0 {
					continue
				}
				if err := appendRunPairs(s.runPath(p, backward, r), b.from, b.to); err != nil {
					return err
				}
				b.onDisk = true
				b.from, b.to = nil, nil
			}
		}
	}
	s.buffered = 0
	s.spilledRuns = true
	return nil
}

// appendRunPairs appends (from, to) pairs as one self-delimiting
// delta-varint block (see appendPairBlock). Runs are temporary spill
// state, but they set the disk high-water mark of a constant-memory
// streaming run — delta-varint keeps them severalfold below the raw
// 8-bytes-per-pair layout, since emission walks sources in ascending
// order and the deltas stay small.
func appendRunPairs(path string, from, to []int32) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	block := appendPairBlock(make([]byte, 0, 3*len(from)+8), from, to)
	if _, err := f.Write(block); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRunPairs loads a run file — a concatenation of delta-varint
// blocks, one per drain — back into (from, to) slices. It is only
// called for buffers that spilled, so a missing file means the run
// data was lost (temp dir deleted externally, Flush run twice) — that
// must fail the Flush, never silently write a spill with fewer edges
// than its manifest claims.
func readRunPairs(path string) (from, to []int32, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	from, to, err = decodePairBlocks(data)
	if err != nil {
		return nil, nil, fmt.Errorf("graphgen: %s: corrupt run file: %w", path, err)
	}
	return from, to, nil
}

// Abort implements AbortableEdgeSink: a failed run drops the buffers
// and temp runs and writes nothing — no shard files, no manifest — so
// a downstream OpenCSRSpill cannot mistake partial output for a spill.
func (s *CSRSpillSink) Abort() {
	s.aborted = true
	s.bufs = nil
	s.buffered = 0
	os.RemoveAll(filepath.Join(s.dir, csrRunDir))
}

// Flush implements EdgeSink: merges each (predicate, direction,
// node-range) run — disk runs plus the still-buffered tail — into its
// final CSR shard file and writes the manifest. Only one range's edges
// are resident at a time. After Abort it is a no-op.
func (s *CSRSpillSink) Flush() error {
	if s.aborted {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	m := CSRManifest{
		FormatVersion: manifestVersionFor(s.comp),
		Nodes:         s.numNodes,
		ShardNodes:    s.shardNodes,
		Edges:         s.edges,
		Encoding:      manifestEncodingFor(s.comp),
	}
	for i, name := range s.typeNames {
		m.Types = append(m.Types, PartitionType{Name: name, Count: s.typeCounts[i]})
	}
	for p, name := range s.predNames {
		entry := CSRSpillPredicate{Name: name}
		var err error
		entry.Fwd, entry.FwdDomain, err = s.flushDirection(p, false, workers)
		if err != nil {
			return err
		}
		entry.Bwd, entry.BwdDomain, err = s.flushDirection(p, true, workers)
		if err != nil {
			return err
		}
		m.Predicates = append(m.Predicates, entry)
	}
	if err := os.RemoveAll(filepath.Join(s.dir, csrRunDir)); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(s.dir, csrManifestFile), &m)
}

// flushDirection merges one direction's ranges into shard files and
// writes the direction's active-domain bitmap, accumulated from the
// per-range offsets as each range is built (no extra pass).
func (s *CSRSpillSink) flushDirection(p int, backward bool, workers int) ([]CSRShard, string, error) {
	tag := "f"
	if backward {
		tag = "b"
	}
	dom := bitset.New(s.numNodes)
	var shards []CSRShard
	for r := 0; r < s.nRanges; r++ {
		lo := r * s.shardNodes
		hi := lo + s.shardNodes
		if hi > s.numNodes {
			hi = s.numNodes
		}
		b := &s.bufs[s.bufIndex(graph.PredID(p), backward, r)]
		from, to := b.from, b.to
		if b.onDisk {
			var err error
			// Disk runs first, then the buffered tail: emission order is
			// preserved, though BuildAdjacency's per-node sort makes the
			// shard bytes order-independent anyway.
			from, to, err = readRunPairs(s.runPath(p, backward, r))
			if err != nil {
				return nil, "", err
			}
			from = append(from, b.from...)
			to = append(to, b.to...)
		}
		// Rebase the owning endpoint to the range-local id space; the
		// built offsets then match the shard format (off[0] == 0).
		for i := range from {
			from[i] -= int32(lo)
		}
		off, adj := graph.BuildAdjacency(hi-lo, from, to, workers)
		DomainFromOffsets(dom, lo, off)
		b.from, b.to = nil, nil // release before the next range
		sh, err := writeShardFile(s.dir, tag, p, r, lo, hi, off, adj, s.comp)
		if err != nil {
			return nil, "", err
		}
		shards = append(shards, sh)
	}
	domFile, err := writeDomainFile(s.dir, tag, p, dom)
	if err != nil {
		return nil, "", err
	}
	return shards, domFile, nil
}

// DomainFromOffsets marks, in dom, every node of the range starting at
// lo whose offset span is non-empty (the node has at least one edge in
// the direction off describes). It is the single definition of the
// active-domain predicate, shared by the spill writers here and by the
// evaluator's legacy-spill rebuild, so the bitmap semantics cannot
// drift between writer and reader.
func DomainFromOffsets(dom *bitset.Set, lo int, off []int32) {
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

// writeDomainFile writes one direction's active-domain bitmap and
// returns its manifest-relative filename.
func writeDomainFile(dir, tag string, p int, dom *bitset.Set) (string, error) {
	name := domainFileName(tag, p)
	words := dom.Words()
	buf := make([]byte, len(domMagic)+4+8*len(words))
	copy(buf, domMagic)
	binary.LittleEndian.PutUint32(buf[len(domMagic):], uint32(len(words)))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[len(domMagic)+4+8*i:], w)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		return "", err
	}
	return name, nil
}

// readDomainFile loads an active-domain bitmap file back as a set of
// capacity nodes.
func readDomainFile(path string, nodes int) (*bitset.Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(domMagic)+4 || string(data[:len(domMagic)]) != domMagic {
		return nil, fmt.Errorf("graphgen: %s: not an active-domain bitmap file", path)
	}
	body := data[len(domMagic):]
	words := int(binary.LittleEndian.Uint32(body[0:4]))
	body = body[4:]
	if len(body) != 8*words {
		return nil, fmt.Errorf("graphgen: %s: truncated bitmap (%d bytes, want %d)", path, len(body), 8*words)
	}
	w := make([]uint64, words)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return bitset.FromWords(nodes, w), nil
}

// Edges returns the number of edges consumed so far.
func (s *CSRSpillSink) Edges() int { return s.edges }

// Dir returns the spill directory.
func (s *CSRSpillSink) Dir() string { return s.dir }

// WriteCSRSpillFromGraph spills an already-frozen graph into dir in
// the exact layout OpenCSRSpill reads, reusing the adjacency Freeze
// already built instead of buffering edges and rebuilding it — the
// cheap path when a materialized instance exists (cmd/gmark's
// default). shardNodes 0 selects the default node-range width; the
// shards use the default delta-varint (format_version 3) layout.
func WriteCSRSpillFromGraph(dir string, g *graph.Graph, shardNodes int) error {
	return WriteCSRSpillFromGraphWith(dir, g, shardNodes, SpillCompressVarint)
}

// WriteCSRSpillFromGraphWith is WriteCSRSpillFromGraph with an
// explicit shard compression setting; the shard bytes stay identical
// to a CSRSpillSink configured the same way (test-pinned).
func WriteCSRSpillFromGraphWith(dir string, g *graph.Graph, shardNodes int, comp SpillCompression) error {
	if err := checkSpillCompression(comp); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if shardNodes <= 0 {
		shardNodes = defaultCSRShardNodes
	}
	m := CSRManifest{
		FormatVersion: manifestVersionFor(comp),
		Nodes:         g.NumNodes(),
		ShardNodes:    shardNodes,
		Edges:         g.NumEdges(),
		Encoding:      manifestEncodingFor(comp),
	}
	for t := 0; t < g.NumTypes(); t++ {
		m.Types = append(m.Types, PartitionType{Name: g.TypeName(t), Count: g.TypeCount(t)})
	}
	for p := 0; p < g.NumPredicates(); p++ {
		entry := CSRSpillPredicate{Name: g.PredName(int32(p))}
		for _, tag := range []string{"f", "b"} {
			off, adj := g.Adjacency(int32(p), tag == "b")
			shards, err := writeCSRDirection(dir, shardNodes, g.NumNodes(), p, tag, off, adj, comp)
			if err != nil {
				return err
			}
			dom := bitset.New(g.NumNodes())
			DomainFromOffsets(dom, 0, off)
			domFile, err := writeDomainFile(dir, tag, p, dom)
			if err != nil {
				return err
			}
			if tag == "f" {
				entry.Fwd, entry.FwdDomain = shards, domFile
			} else {
				entry.Bwd, entry.BwdDomain = shards, domFile
			}
		}
		m.Predicates = append(m.Predicates, entry)
	}
	return writeJSONFile(filepath.Join(dir, csrManifestFile), &m)
}

// writeShardFile writes one (predicate, direction, range) shard and
// returns its manifest entry; shared by the from-graph writer and the
// incremental sink's Flush so the filename format and manifest shape
// cannot drift between the two byte-identical paths.
func writeShardFile(dir, tag string, p, r, lo, hi int, off, adj []int32, comp SpillCompression) (CSRShard, error) {
	name := fmt.Sprintf("csr-%s-%03d-%06d.bin", tag, p, r)
	edges, err := writeCSRShard(filepath.Join(dir, name), off, adj, comp)
	if err != nil {
		return CSRShard{}, err
	}
	return CSRShard{File: name, Lo: lo, Hi: hi, Edges: edges}, nil
}

// writeCSRDirection writes one direction's node-range shard files
// from a built CSR.
func writeCSRDirection(dir string, shardNodes, numNodes, p int, tag string, off, adj []int32, comp SpillCompression) ([]CSRShard, error) {
	var shards []CSRShard
	for lo := 0; lo < numNodes || (lo == 0 && numNodes == 0); lo += shardNodes {
		hi := lo + shardNodes
		if hi > numNodes {
			hi = numNodes
		}
		sh, err := writeShardFile(dir, tag, p, lo/shardNodes, lo, hi, off[lo:hi+1], adj, comp)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
		if hi == numNodes {
			break
		}
	}
	return shards, nil
}

// writeCSRShard writes one shard file in the layout comp selects. off
// is the global offset slice of the shard's node range (hi-lo+1
// entries); offsets are rebased so the stored off[0] is 0 and adj
// holds only the shard's entries. All byte layouts are defined by
// EncodeCSRShard, which the slice server also serves through.
func writeCSRShard(path string, off []int32, adj []int32, comp SpillCompression) (int, error) {
	img, err := EncodeCSRShard(off, adj, comp)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		return 0, err
	}
	return int(off[len(off)-1] - off[0]), nil
}

// CSRSpill is an opened spill directory: the manifest plus shard
// loading. It holds no file handles between loads — the point of the
// format is that an evaluator touches only the shards it needs.
type CSRSpill struct {
	dir      string
	Manifest CSRManifest
}

// OpenCSRSpill reads the manifest of a CSR spill directory. Legacy
// manifests (format_version absent or 1, written before active-domain
// bitmaps existed) open normally — readers needing a domain see the
// absence through LoadDomain and rebuild it from the shards. Manifests
// newer than this package's writer are rejected rather than
// misinterpreted.
func OpenCSRSpill(dir string) (*CSRSpill, error) {
	data, err := os.ReadFile(filepath.Join(dir, csrManifestFile))
	if err != nil {
		return nil, err
	}
	var m CSRManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("graphgen: csr manifest: %w", err)
	}
	if m.FormatVersion > csrFormatVersion {
		return nil, fmt.Errorf("graphgen: csr manifest format_version %d is newer than this reader (max %d)",
			m.FormatVersion, csrFormatVersion)
	}
	return &CSRSpill{dir: dir, Manifest: m}, nil
}

// LoadDomain reads one (predicate, direction) active-domain bitmap:
// the set of nodes with at least one outgoing (inverse false) or
// incoming (inverse true) edge of the predicate. ok is false when the
// spill predates the bitmaps (legacy format_version) — the caller must
// then derive the domain from the shards itself.
func (c *CSRSpill) LoadDomain(pred int, inverse bool) (dom *bitset.Set, ok bool, err error) {
	if pred < 0 || pred >= len(c.Manifest.Predicates) {
		return nil, false, fmt.Errorf("graphgen: spill has no predicate %d", pred)
	}
	name := c.Manifest.Predicates[pred].FwdDomain
	if inverse {
		name = c.Manifest.Predicates[pred].BwdDomain
	}
	if name == "" {
		return nil, false, nil
	}
	dom, err = readDomainFile(filepath.Join(c.dir, name), c.Manifest.Nodes)
	if err != nil {
		return nil, false, err
	}
	return dom, true, nil
}

// LoadShard reads one shard file back: off is shard-local (off[0] ==
// 0, one entry per covered node plus one), adj holds global neighbor
// ids sorted ascending per node. Both shard generations decode
// transparently — the raw "GMKCSR1\n" layout and the varint
// "GMKCSR2\n" layout (with or without a compression frame) return the
// same slices.
func (c *CSRSpill) LoadShard(sh CSRShard) (off, adj []int32, err error) {
	off, adj, _, err = c.LoadShardSized(sh)
	return off, adj, err
}

// LoadShardSized is LoadShard plus the shard's on-disk byte size, so
// callers can account compressed disk traffic separately from the
// decoded bytes they hold resident.
func (c *CSRSpill) LoadShardSized(sh CSRShard) (off, adj []int32, diskBytes int64, err error) {
	data, err := os.ReadFile(filepath.Join(c.dir, sh.File))
	if err != nil {
		return nil, nil, 0, err
	}
	off, adj, err = decodeCSRShard(data)
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

// ShardFor returns the shard of a direction's shard list covering
// node v, or an error when v is out of range.
func (c *CSRSpill) ShardFor(shards []CSRShard, v graph.NodeID) (CSRShard, error) {
	if c.Manifest.ShardNodes > 0 {
		i := int(v) / c.Manifest.ShardNodes
		if i >= 0 && i < len(shards) && int(v) >= shards[i].Lo && int(v) < shards[i].Hi {
			return shards[i], nil
		}
	}
	return CSRShard{}, fmt.Errorf("graphgen: node %d outside spill range", v)
}
