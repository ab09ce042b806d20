package graphgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"gmark/internal/fanout"
	"gmark/internal/graph"
	"gmark/internal/schema"
)

// PartitionIndex is the JSON index a PartitionedSink writes next to
// its per-predicate edge files. Downstream loaders read it to discover
// the node layout and to fan file reads out in parallel — the layout
// Xirogiannopoulos & Deshpande's hidden-graph extraction and
// predicate-partitioned triple stores both load from.
//
// FormatVersion absent (or 1) is the original all-text layout;
// version 2 adds per-predicate binary edge files, each marked by its
// entry's Encoding field. Readers reject newer versions.
type PartitionIndex struct {
	FormatVersion int                  `json:"format_version,omitempty"`
	Nodes         int                  `json:"nodes"`
	Edges         int                  `json:"edges"`
	Types         []PartitionType      `json:"types"`
	Predicates    []PartitionPredicate `json:"predicates"`
}

// PartitionType is one node type of the layout.
type PartitionType struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// PartitionPredicate describes one predicate's edge file. Encoding is
// empty for the text "src dst"-per-line layout and "varint" for the
// binary delta-varint pair layout (format_version 2).
type PartitionPredicate struct {
	Name     string `json:"name"`
	File     string `json:"file"`
	Edges    int    `json:"edges"`
	Encoding string `json:"encoding,omitempty"`
}

// partitionIndexFile is the index filename inside a partition
// directory.
const partitionIndexFile = "index.json"

// partitionFormatVersion is the newest partition-index version this
// package reads and writes: 1 (or absent) is all-text, 2 adds binary
// edge files. Text sinks keep writing the legacy version-less index.
const partitionFormatVersion = 2

// partitionVarintEncoding is the Encoding value of binary delta-varint
// edge files.
const partitionVarintEncoding = "varint"

// partitionEdgeMagic heads every binary partition edge file.
const partitionEdgeMagic = "GMKPRT1\n"

// PartitionedSink writes one edge file per predicate under a
// directory, plus a JSON index describing the node layout and the
// per-predicate files. Because the predicate is fixed per file, each
// entry is just the (src, dst) pair — smaller than the monolithic
// edge list and loadable predicate-parallel (see LoadPartitioned).
// The default mode writes text "src dst" lines; the binary mode
// (NewBinaryPartitionedSink) writes delta-varint pairs instead, which
// are severalfold smaller again. The pipeline delivers edges to the
// sink in a deterministic order for any worker count — emission
// shards arrive in shard order, sources ascending within a shard — so
// both modes are byte-deterministic at any parallelism, and the
// binary deltas stay small by construction.
type PartitionedSink struct {
	dir        string
	binary     bool
	typeNames  []string
	typeCounts []int
	predNames  []string
	nodes      int // the layout's node count: ids are in [0, nodes)

	files    []io.WriteCloser
	ws       []*bufio.Writer
	per      []int
	edges    int
	prevs    []int64 // binary mode: previous src per predicate
	prevd    []int64 // binary mode: previous dst per predicate
	aborted  bool
	flushed  bool  // Flush already ran; its result is sticky
	flushErr error // the first Flush's result, replayed on reuse
}

// NewPartitionedSink creates dir (and parents) and opens one text edge
// file per predicate of the configuration's schema.
func NewPartitionedSink(dir string, cfg *schema.GraphConfig) (*PartitionedSink, error) {
	typeNames, typeCounts, predNames := resolveLayout(cfg)
	return newPartitionedSink(dir, typeNames, typeCounts, predNames, false, nil)
}

// NewBinaryPartitionedSink is NewPartitionedSink in binary mode: each
// predicate's edges are written as delta-varint (src, dst) pairs (the
// format_version 2 partition layout) instead of text lines.
func NewBinaryPartitionedSink(dir string, cfg *schema.GraphConfig) (*PartitionedSink, error) {
	typeNames, typeCounts, predNames := resolveLayout(cfg)
	return newPartitionedSink(dir, typeNames, typeCounts, predNames, true, nil)
}

// newPartitionedSink is the shared constructor. create opens one edge
// file; nil selects os.Create. Tests inject failing writers through it
// to exercise the full-disk/short-write error paths.
func newPartitionedSink(dir string, typeNames []string, typeCounts []int, predNames []string, binaryMode bool, create func(string) (io.WriteCloser, error)) (*PartitionedSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if create == nil {
		create = func(path string) (io.WriteCloser, error) { return os.Create(path) }
	}
	ps := &PartitionedSink{
		dir:        dir,
		binary:     binaryMode,
		typeNames:  typeNames,
		typeCounts: typeCounts,
		predNames:  predNames,
		files:      make([]io.WriteCloser, len(predNames)),
		ws:         make([]*bufio.Writer, len(predNames)),
		per:        make([]int, len(predNames)),
	}
	for _, c := range typeCounts {
		ps.nodes += c
	}
	if binaryMode {
		ps.prevs = make([]int64, len(predNames))
		ps.prevd = make([]int64, len(predNames))
	}
	for i := range predNames {
		f, err := create(filepath.Join(dir, partitionFileName(i, predNames[i], binaryMode)))
		if err != nil {
			ps.closeAll()
			return nil, err
		}
		ps.files[i] = f
		ps.ws[i] = bufio.NewWriterSize(f, 1<<18)
		if binaryMode {
			if _, err := ps.ws[i].WriteString(partitionEdgeMagic); err != nil {
				ps.closeAll()
				return nil, err
			}
		}
	}
	return ps, nil
}

// partitionFileName builds a collision-free filename for one
// predicate's edges: the index keeps names unique even when
// sanitizing maps two predicates to the same text.
func partitionFileName(i int, name string, binary bool) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	ext := "txt"
	if binary {
		ext = "bin"
	}
	return fmt.Sprintf("edges-%03d-%s.%s", i, b.String(), ext)
}

// textEdge is the "src dst" line of the text partition layout: the
// predicate-less form of the module's one line encoder.
var textEdge = graph.NewEdgeLine("")

// appendVarintEdge appends one binary delta-varint pair — the zigzag
// deltas of src and dst against the running previous pair — updating
// the previous-pair state in place.
func appendVarintEdge(b []byte, prevs, prevd *int64, src, dst graph.NodeID) []byte {
	b = appendUvarint(b, zigzag(int64(src)-*prevs))
	b = appendUvarint(b, zigzag(int64(dst)-*prevd))
	*prevs, *prevd = int64(src), int64(dst)
	return b
}

// EncodePartitionedEdges renders the complete byte content of one
// predicate's partition edge file from its edges in emission order:
// "src dst" text lines, or — in binary mode — the magic-headed
// delta-varint pair stream of the format_version 2 layout. Both modes
// go through the exact appenders PartitionedSink writes with, so a
// slice served from re-emitted edges is byte-identical to the batch
// file by construction.
func EncodePartitionedEdges(srcs, dsts []graph.NodeID, binaryMode bool) []byte {
	if binaryMode {
		out := make([]byte, 0, len(partitionEdgeMagic)+4*len(srcs)+16)
		out = append(out, partitionEdgeMagic...)
		var prevs, prevd int64
		for i := range srcs {
			out = appendVarintEdge(out, &prevs, &prevd, srcs[i], dsts[i])
		}
		return out
	}
	out := make([]byte, 0, 8*len(srcs)+16)
	for i := range srcs {
		out = textEdge.Append(out, srcs[i], dsts[i])
	}
	return out
}

// AddEdgeBatch implements EdgeSink. A batch outside the layout is
// refused whole (checkEdges). Each edge is rendered straight into the
// predicate writer's free space, where Write finds it in place: a text
// line, or a binary pair — the zigzag deltas of src and dst against the
// predicate's previous pair.
func (ps *PartitionedSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	if err := checkEdges("PartitionedSink", pred, srcs, dsts, len(ps.predNames), ps.nodes); err != nil {
		return err
	}
	ps.per[pred] += len(srcs)
	ps.edges += len(srcs)
	w := ps.ws[pred]
	for i := range srcs {
		var b []byte
		if ps.binary {
			b = appendVarintEdge(w.AvailableBuffer(), &ps.prevs[pred], &ps.prevd[pred], srcs[i], dsts[i])
		} else {
			b = textEdge.Append(w.AvailableBuffer(), srcs[i], dsts[i])
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// edgeLines implements renderingSink: text mode renders every
// predicate's file with the same predicate-less line; binary mode's
// deltas depend on the previous edge, so it takes batches.
func (ps *PartitionedSink) edgeLines(preds, nodes int) []graph.EdgeLine {
	if ps.binary || preds > len(ps.predNames) || nodes > ps.nodes {
		return nil
	}
	lines := make([]graph.EdgeLine, len(ps.predNames))
	for i := range lines {
		lines[i] = textEdge
	}
	return lines
}

// addRendered implements renderingSink.
func (ps *PartitionedSink) addRendered(pred graph.PredID, edges int, chunks [][]byte) error {
	ps.per[pred] += edges
	ps.edges += edges
	for _, c := range chunks {
		if _, err := ps.ws[pred].Write(c); err != nil {
			return err
		}
	}
	return nil
}

// Abort implements AbortableEdgeSink: a failed run must still close
// the edge files, but must NOT write the index — a partition
// directory without index.json is visibly incomplete, so
// LoadPartitioned refuses it instead of loading a truncated graph.
func (ps *PartitionedSink) Abort() { ps.aborted = true }

// Flush implements EdgeSink: it drains and closes every edge file and
// writes the JSON index (unless the run was aborted). Flush is
// idempotent and its result sticky: a second call replays the first
// outcome instead of re-walking the (now closed) files — a failed
// first Flush must never let a retry finalize index.json over the
// partial output it just reported.
func (ps *PartitionedSink) Flush() error {
	if ps.flushed {
		return ps.flushErr
	}
	ps.flushed = true
	var firstErr error
	for i, w := range ps.ws {
		if ps.files[i] == nil {
			continue
		}
		if err := w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := ps.files[i].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		ps.files[i] = nil
	}
	if firstErr != nil || ps.aborted {
		ps.flushErr = firstErr
		return firstErr
	}
	idx := PartitionIndex{Edges: ps.edges}
	if ps.binary {
		idx.FormatVersion = partitionFormatVersion
	}
	for i, name := range ps.typeNames {
		idx.Nodes += ps.typeCounts[i]
		idx.Types = append(idx.Types, PartitionType{Name: name, Count: ps.typeCounts[i]})
	}
	for i, name := range ps.predNames {
		p := PartitionPredicate{
			Name:  name,
			File:  partitionFileName(i, name, ps.binary),
			Edges: ps.per[i],
		}
		if ps.binary {
			p.Encoding = partitionVarintEncoding
		}
		idx.Predicates = append(idx.Predicates, p)
	}
	ps.flushErr = writeJSONFile(filepath.Join(ps.dir, partitionIndexFile), &idx)
	return ps.flushErr
}

func (ps *PartitionedSink) closeAll() {
	for _, f := range ps.files {
		if f != nil {
			f.Close()
		}
	}
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPartitionIndex reads a partition directory's JSON index,
// rejecting indexes newer than this reader rather than guessing at
// their layout, negative edge counts, which no writer records, and
// edge files that are not plain names inside dir.
func ReadPartitionIndex(dir string) (*PartitionIndex, error) {
	data, err := os.ReadFile(filepath.Join(dir, partitionIndexFile))
	if err != nil {
		return nil, err
	}
	var idx PartitionIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("graphgen: partition index: %w", err)
	}
	if idx.FormatVersion > partitionFormatVersion {
		return nil, fmt.Errorf("graphgen: partition index format_version %d is newer than this reader (max %d)",
			idx.FormatVersion, partitionFormatVersion)
	}
	if idx.Edges < 0 {
		return nil, fmt.Errorf("graphgen: partition index edges %d is negative", idx.Edges)
	}
	for _, p := range idx.Predicates {
		if p.Edges < 0 {
			return nil, fmt.Errorf("graphgen: partition index: predicate %q edges %d is negative", p.Name, p.Edges)
		}
		if !plainFileName(p.File) {
			return nil, fmt.Errorf("graphgen: partition index: predicate %q file %q is not a plain file name", p.Name, p.File)
		}
	}
	return &idx, nil
}

// LoadPartitioned reads a PartitionedSink directory back into a frozen
// in-memory graph, parsing the per-predicate files on GOMAXPROCS
// workers — the loading pattern the partitioned layout exists for.
// A failure reports the lowest-index failing predicate, whatever the
// interleaving.
func LoadPartitioned(dir string) (*graph.Graph, error) {
	idx, err := ReadPartitionIndex(dir)
	if err != nil {
		return nil, err
	}
	typeNames := make([]string, len(idx.Types))
	typeCounts := make([]int, len(idx.Types))
	for i, t := range idx.Types {
		typeNames[i] = t.Name
		typeCounts[i] = t.Count
	}
	predNames := make([]string, len(idx.Predicates))
	for i, p := range idx.Predicates {
		predNames[i] = p.Name
	}
	g, err := graph.New(typeNames, typeCounts, predNames)
	if err != nil {
		return nil, err
	}

	srcs := make([][]int32, len(idx.Predicates))
	dsts := make([][]int32, len(idx.Predicates))
	err = fanout.Each(len(idx.Predicates), runtime.GOMAXPROCS(0), func(_, i int, _ *atomic.Bool) error {
		p := idx.Predicates[i]
		var err error
		switch p.Encoding {
		case "":
			srcs[i], dsts[i], err = readEdgePairs(filepath.Join(dir, p.File), p.Edges, g.NumNodes())
		case partitionVarintEncoding:
			srcs[i], dsts[i], err = readEdgePairsBinary(filepath.Join(dir, p.File), p.Edges, g.NumNodes())
		default:
			err = fmt.Errorf("unknown edge-file encoding %q", p.Encoding)
		}
		if err != nil {
			return fmt.Errorf("graphgen: partition %q: %w", p.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range srcs {
		if err := g.AddEdgeBatch(graph.PredID(i), srcs[i], dsts[i]); err != nil {
			return nil, err
		}
	}
	g.Freeze()
	return g, nil
}

// readEdgePairs parses one "src dst"-per-line partition file holding
// exactly expect edges, the index's count: a file that runs short or
// long is rejected rather than silently loaded in part, as the binary
// reader does.
func readEdgePairs(path string, expect, numNodes int) (srcs, dsts []int32, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	// A line takes at least 4 bytes ("0 0\n"), so the file's size caps
	// what a hostile count can make the reader preallocate.
	capacity := min(int64(expect), info.Size()/4)
	srcs = make([]int32, 0, capacity)
	dsts = make([]int32, 0, capacity)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		sStr, dStr, ok := strings.Cut(text, " ")
		if !ok {
			return nil, nil, fmt.Errorf("line %d: expected 'src dst', got %q", line, text)
		}
		s, err := strconv.Atoi(sStr)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad source %q", line, sStr)
		}
		d, err := strconv.Atoi(strings.TrimSpace(dStr))
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad target %q", line, dStr)
		}
		if s < 0 || s >= numNodes || d < 0 || d >= numNodes {
			return nil, nil, fmt.Errorf("line %d: node id out of range", line)
		}
		srcs = append(srcs, int32(s))
		dsts = append(dsts, int32(d))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(srcs) != expect {
		return nil, nil, fmt.Errorf("holds %d edges, the index says %d", len(srcs), expect)
	}
	return srcs, dsts, nil
}

// readEdgePairsBinary parses one binary delta-varint partition file:
// the magic header followed by exactly expect zigzag-delta (src, dst)
// pairs. The index's edge count delimits the stream, so a file that
// runs short, runs long, or decodes an out-of-range node is rejected
// rather than silently truncated.
func readEdgePairsBinary(path string, expect, numNodes int) (srcs, dsts []int32, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < len(partitionEdgeMagic) || string(data[:len(partitionEdgeMagic)]) != partitionEdgeMagic {
		return nil, nil, fmt.Errorf("bad magic (want %q)", partitionEdgeMagic)
	}
	r := &byteReader{buf: data[len(partitionEdgeMagic):]}
	// A pair takes at least two bytes, so the file's size caps what a
	// hostile count can make the reader preallocate.
	capacity := min(expect, r.rest()/2)
	srcs = make([]int32, 0, capacity)
	dsts = make([]int32, 0, capacity)
	if srcs, dsts, err = r.pairs(srcs, dsts, expect, int64(numNodes)); err != nil {
		return nil, nil, err
	}
	if r.rest() != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after %d pairs", r.rest(), expect)
	}
	return srcs, dsts, nil
}
