package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// instance is one use case at one size.
type instance struct {
	usecase string
	nodes   int
	cfg     *schema.GraphConfig
}

func newInstance(usecase string, nodes int) (instance, error) {
	cfg, err := usecases.ByName(usecase, nodes)
	return instance{usecase: usecase, nodes: nodes, cfg: cfg}, err
}

func (in instance) String() string { return fmt.Sprintf("%s@%d", in.usecase, in.nodes) }

// discardSink counts edges and drops them: emission cost with no sink
// cost. It takes whole batches, like every real sink.
type discardSink struct{ edges int }

func (d *discardSink) AddEdge(graph.NodeID, graph.PredID, graph.NodeID) error {
	d.edges++
	return nil
}

func (d *discardSink) AddEdgeBatch(_ graph.PredID, srcs, _ []graph.NodeID) error {
	d.edges += len(srcs)
	return nil
}

func (d *discardSink) Flush() error { return nil }

// abortableBatchSink is what the storage sinks are: the flush timer
// below must keep every one of these methods visible to Emit.
type abortableBatchSink interface {
	graphgen.BatchEdgeSink
	Abort()
}

// flushTimedSink times the inner sink's Flush and passes everything
// else straight through.
type flushTimedSink struct {
	abortableBatchSink
	flush time.Duration
}

func (f *flushTimedSink) Flush() error {
	t := time.Now()
	err := f.abortableBatchSink.Flush()
	f.flush = time.Since(t)
	return err
}

// seconds runs f and returns how long it took.
func seconds(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

// bestOf returns the fastest of n runs of f: the isolated probes want
// the cost of the code, not of whatever else the machine did meanwhile.
func bestOf(n int, f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		s, err := seconds(f)
		if err != nil {
			return 0, err
		}
		if i == 0 || s < best {
			best = s
		}
	}
	return best, nil
}

// over is a minus b, floored at 0: the cost a sink adds on top of bare
// emission is the difference of two timings, and when the sink is
// nearly free the noise of either can exceed it.
func over(a, b float64) float64 {
	if a < b {
		return 0
	}
	return a - b
}

// emitDiscard emits an instance into a discardSink and returns the edges.
func emitDiscard(in instance, seed int64, par int) (int, error) {
	return graphgen.Emit(in.cfg, graphgen.Options{Seed: seed, Parallelism: par}, &discardSink{})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ---- gen-stream ----

// genStream is the emission-bound workload: every use case streamed as
// an edge list into a CRC, no disk.
type genStream struct {
	instances []instance
	refCRC    []uint32
	refEdges  []int
}

func (g *genStream) setup(e *env) error {
	g.instances, g.refCRC, g.refEdges = nil, nil, nil
	for _, s := range []struct {
		usecase string
		nodes   int
	}{{"bib", 1_000_000}, {"lsn", 500_000}, {"sp", 500_000}, {"wd", 100_000}} {
		in, err := newInstance(s.usecase, e.size(s.nodes, 2000))
		if err != nil {
			return err
		}
		// The sequential emission is the reference every parallel pass
		// must reproduce byte for byte.
		crc, edges, err := g.stream(in, e.seed, 1)
		if err != nil {
			return err
		}
		g.instances = append(g.instances, in)
		g.refCRC = append(g.refCRC, crc)
		g.refEdges = append(g.refEdges, edges)
		e.check("gen-stream.crc."+in.String(), fmt.Sprintf("%08x", crc))
		e.check("gen-stream.edges."+in.String(), fmt.Sprint(edges))
	}
	return nil
}

// stream emits one instance as a text edge list into a CRC32.
func (g *genStream) stream(in instance, seed int64, par int) (uint32, int, error) {
	crc := crc32.NewIEEE()
	sink, err := graphgen.NewWriterSink(crc, in.cfg)
	if err != nil {
		return 0, 0, err
	}
	edges, err := graphgen.Emit(in.cfg, graphgen.Options{Seed: seed, Parallelism: par}, sink)
	return crc.Sum32(), edges, err
}

func (g *genStream) pass(e *env, root int) (int64, error) {
	var total int64
	for i, in := range g.instances {
		sp := e.tr.begin("graphgen.Emit>WriterSink", root)
		crc, edges, err := g.stream(in, e.seed, e.w)
		e.tr.end(sp)
		if err != nil {
			return 0, err
		}
		e.attempt(1)
		if crc != g.refCRC[i] || edges != g.refEdges[i] {
			e.failf("gen-stream %s: parallel output (crc %08x, %d edges) differs from the sequential one (crc %08x, %d edges)",
				in, crc, edges, g.refCRC[i], g.refEdges[i])
		}
		total += int64(edges)
	}
	return total, nil
}

func (g *genStream) probes(e *env) error {
	emitAll := func(par int) func() error {
		return func() error {
			for _, in := range g.instances {
				sp := e.tr.begin(fmt.Sprintf("probe.graphgen.Emit>discard.par%d", par), noSpan)
				_, err := emitDiscard(in, e.seed, par)
				e.tr.end(sp)
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	par, err := bestOf(3, emitAll(e.w))
	if err != nil {
		return err
	}
	seq, err := bestOf(2, emitAll(1))
	if err != nil {
		return err
	}
	e.set("graphgen.emit_s", par)
	e.set("graphgen.emit_seq_s", seq)
	e.set("graphgen.emit_speedup", seq/par)

	for _, d := range []struct {
		name string
		d    dist.Distribution
	}{
		{"uniform", dist.NewUniform(1, 40)},
		{"gaussian", dist.NewGaussian(40, 15)},
		{"zipfian", dist.NewZipfian(1.3)},
	} {
		sampler, err := d.d.NewSampler()
		if err != nil {
			return err
		}
		const draws = 2_000_000
		rng := rand.New(rand.NewSource(e.seed))
		sum := 0
		s, _ := bestOf(2, func() error {
			for i := 0; i < draws; i++ {
				sum += sampler.Sample(rng)
			}
			return nil
		})
		if sum == 0 {
			return fmt.Errorf("dist %s: all draws were zero", d.name)
		}
		e.set("dist.sample_ns."+d.name, s*1e9/draws)
	}
	return nil
}

func (g *genStream) collect(e *env) {
	wall := median(e.tr.passSeconds("graphgen.Emit>WriterSink"))
	e.set("graphgen.writer_sink_s", over(wall, e.layer["graphgen.emit_s"]))
}

// ---- gen-store ----

// genStore is the sink- and decoder-bound workload: one instance
// written as a varint spill and a binary partition, and the spill read
// back shard by shard. The other encodings are written, sized, read
// back and checked against the same reference in the traced probes.
type genStore struct {
	in         instance
	shardNodes int
	refCRC     uint32 // of the decoded adjacency, every shard in manifest order
	refEdges   int
}

// storeRanges is the number of node ranges of gen-store's spills: few,
// so that the pass prices encoding and decoding rather than the
// creation of hundreds of small files, which on a virtual disk costs
// most of a millisecond each and varies by half from minute to minute.
const storeRanges = 4

func (g *genStore) setup(e *env) error {
	in, err := newInstance("lsn", e.size(300_000, 2000))
	if err != nil {
		return err
	}
	g.in, g.shardNodes = in, (in.nodes+storeRanges-1)/storeRanges
	dir, err := e.mkdir("store-ref-")
	if err != nil {
		return err
	}
	e.afterClock(func() { os.RemoveAll(dir) })
	edges, err := g.spill(e, dir, graphgen.SpillCompressVarint, 1, nil)
	if err != nil {
		return err
	}
	crc, decoded, _, _, err := g.readBack(dir)
	if err != nil {
		return err
	}
	if decoded != edges {
		return fmt.Errorf("gen-store reference: %d edges emitted, %d decoded", edges, decoded)
	}
	g.refCRC, g.refEdges = crc, edges
	e.check("gen-store.crc."+in.String(), fmt.Sprintf("%08x", crc))
	e.check("gen-store.edges."+in.String(), fmt.Sprint(edges))
	return nil
}

// spill emits the instance into a CSRSpillSink under dir; a non-nil
// flush receives the time the sink's Flush took.
func (g *genStore) spill(e *env, dir string, comp graphgen.SpillCompression, par int, flush *float64) (int, error) {
	sink, err := graphgen.NewCSRSpillSinkWith(dir, g.in.cfg, g.shardNodes, comp)
	if err != nil {
		return 0, err
	}
	opt := graphgen.Options{Seed: e.seed, Parallelism: par}
	if flush == nil {
		return graphgen.Emit(g.in.cfg, opt, sink)
	}
	timed := &flushTimedSink{abortableBatchSink: sink}
	edges, err := graphgen.Emit(g.in.cfg, opt, timed)
	*flush = timed.flush.Seconds()
	return edges, err
}

// readBack opens a spill and loads every shard of it, forward then
// backward per predicate, returning a CRC over the decoded arrays, the
// forward edge total, the on-disk and decoded byte totals.
func (g *genStore) readBack(dir string) (crc uint32, fwdEdges int, diskBytes, decodedBytes int64, err error) {
	sp, err := graphgen.OpenCSRSpill(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	h := crc32.NewIEEE()
	for _, p := range sp.Manifest.Predicates {
		for d, shards := range [][]graphgen.CSRShard{p.Fwd, p.Bwd} {
			for _, sh := range shards {
				off, adj, n, err := sp.LoadShardSized(sh)
				if err != nil {
					return 0, 0, 0, 0, err
				}
				hashInt32s(h, off)
				hashInt32s(h, adj)
				diskBytes += n
				decodedBytes += 4 * int64(len(off)+len(adj))
				if d == 0 {
					fwdEdges += len(adj)
				}
			}
		}
	}
	if fwdEdges != sp.Manifest.Edges {
		return 0, 0, 0, 0, fmt.Errorf("spill %s: manifest says %d edges, shards decode to %d", dir, sp.Manifest.Edges, fwdEdges)
	}
	return h.Sum32(), fwdEdges, diskBytes, decodedBytes, nil
}

// hashInt32s feeds xs to h as little-endian words.
func hashInt32s(h hash.Hash32, xs []int32) {
	var buf [4096]byte
	for len(xs) > 0 {
		n := len(xs)
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
		}
		h.Write(buf[:4*n])
		xs = xs[n:]
	}
}

func (g *genStore) pass(e *env, root int) (int64, error) {
	dir, err := e.mkdir("store-")
	if err != nil {
		return 0, err
	}
	e.afterClock(func() { os.RemoveAll(dir) })
	sub := filepath.Join(dir, "spill")
	sp := e.tr.begin("graphgen.Emit>CSRSpillSink.varint", root)
	total, err := g.spill(e, sub, graphgen.SpillCompressVarint, e.w, nil)
	e.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = e.tr.begin("graphgen.LoadShards.varint", root)
	crc, decoded, _, _, err := g.readBack(sub)
	e.tr.end(sp)
	if err != nil {
		return 0, err
	}
	e.attempt(1)
	if total != g.refEdges || decoded != g.refEdges || crc != g.refCRC {
		e.failf("gen-store spill: emitted %d, decoded %d (crc %08x); reference %d (crc %08x)", total, decoded, crc, g.refEdges, g.refCRC)
	}
	sp = e.tr.begin("graphgen.Emit>PartitionedSink.binary", root)
	sink, err := graphgen.NewBinaryPartitionedSink(filepath.Join(dir, "part"), g.in.cfg)
	if err != nil {
		return 0, err
	}
	edges, err := graphgen.Emit(g.in.cfg, graphgen.Options{Seed: e.seed, Parallelism: e.w}, sink)
	e.tr.end(sp)
	if err != nil {
		return 0, err
	}
	e.attempt(1)
	if idx, err := graphgen.ReadPartitionIndex(filepath.Join(dir, "part")); err != nil || idx.Edges != g.refEdges || edges != g.refEdges {
		e.failf("gen-store partition: emitted %d edges, index %+v (%v); reference %d", edges, idx, err, g.refEdges)
	}
	return int64(total + edges), nil
}

func (g *genStore) probes(e *env) error {
	dir, err := e.mkdir("store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	edges := float64(g.refEdges)
	emit, err := bestOf(3, func() error { _, err := emitDiscard(g.in, e.seed, e.w); return err })
	if err != nil {
		return err
	}
	e.set("graphgen.emit_s", emit)

	for _, c := range []graphgen.SpillCompression{
		graphgen.SpillCompressVarint, graphgen.SpillCompressRaw, graphgen.SpillCompressDeflate, graphgen.SpillCompressNone,
	} {
		name := c.String()
		sub := filepath.Join(dir, "spill-"+name)
		var flush float64
		write, err := seconds(func() error { _, err := g.spill(e, sub, c, e.w, &flush); return err })
		if err != nil {
			return err
		}
		bytes, err := dirBytes(sub)
		if err != nil {
			return err
		}
		e.set("graphgen.spill_bytes_per_edge."+name, float64(bytes)/edges)
		if c == graphgen.SpillCompressNone {
			continue // the legacy layout is sized, not timed
		}
		e.set("graphgen.spill_write_s."+name, over(write, emit))
		if c != graphgen.SpillCompressDeflate {
			e.set("graphgen.spill_flush_s."+name, flush)
		}
		open, err := bestOf(3, func() error { _, err := graphgen.OpenCSRSpill(sub); return err })
		if err != nil {
			return err
		}
		if c == graphgen.SpillCompressVarint {
			e.set("graphgen.spill_open_s", open)
		}
		var decoded int64
		load, err := bestOf(2, func() error {
			crc, n, _, d, err := g.readBack(sub)
			decoded = d
			if err == nil && (crc != g.refCRC || n != g.refEdges) {
				e.failf("gen-store %s spill decodes to crc %08x, %d edges; the varint reference to %08x, %d", name, crc, n, g.refCRC, g.refEdges)
			}
			return err
		})
		e.attempt(1)
		if err != nil {
			return err
		}
		e.set("graphgen.shard_load_s."+name, load-open)
		e.set("graphgen.shard_load_mb_per_s."+name, float64(decoded)/(1<<20)/(load-open))
	}

	for _, binaryMode := range []bool{false, true} {
		name, mk := "text", graphgen.NewPartitionedSink
		if binaryMode {
			name, mk = "binary", graphgen.NewBinaryPartitionedSink
		}
		sub := filepath.Join(dir, "part-"+name)
		write, err := seconds(func() error {
			sink, err := mk(sub, g.in.cfg)
			if err != nil {
				return err
			}
			_, err = graphgen.Emit(g.in.cfg, graphgen.Options{Seed: e.seed, Parallelism: e.w}, sink)
			return err
		})
		if err != nil {
			return err
		}
		bytes, err := dirBytes(sub)
		if err != nil {
			return err
		}
		e.set("graphgen.partition_write_s."+name, over(write, emit))
		e.set("graphgen.partition_bytes_per_edge."+name, float64(bytes)/edges)
	}

	// The in-memory route: GraphSink, then Freeze; and one predicate's
	// adjacency built outside a graph, the way the spill sink and the
	// slice server do it.
	var gs *graphgen.GraphSink
	sinkS, err := bestOf(2, func() (err error) {
		if gs, err = graphgen.NewGraphSinkFor(g.in.cfg); err != nil {
			return err
		}
		_, err = graphgen.Emit(g.in.cfg, graphgen.Options{Seed: e.seed, Parallelism: e.w}, gs)
		return err
	})
	if err != nil {
		return err
	}
	e.set("graphgen.graph_sink_s", over(sinkS, emit))
	freeze, _ := seconds(func() error { gs.Graph().Freeze(); return nil })
	e.set("graph.freeze_s", freeze)
	return probeBuildAdjacency(e, gs.Graph())
}

// probeBuildAdjacency times graph.BuildAdjacency over the columns of
// the graph's largest predicate.
func probeBuildAdjacency(e *env, g *graph.Graph) error {
	best := graph.PredID(0)
	for p := graph.PredID(0); int(p) < g.NumPredicates(); p++ {
		if g.PredEdgeCount(p) > g.PredEdgeCount(best) {
			best = p
		}
	}
	var from, to []int32
	g.Edges(func(ed graph.Edge) {
		if ed.Pred == best {
			from = append(from, ed.Src)
			to = append(to, ed.Dst)
		}
	})
	s, err := bestOf(3, func() error {
		off, adj := graph.BuildAdjacency(g.NumNodes(), from, to, e.w)
		if len(off) != g.NumNodes()+1 || len(adj) != len(from) {
			return fmt.Errorf("BuildAdjacency: %d offsets, %d neighbours for %d nodes, %d edges", len(off), len(adj), g.NumNodes(), len(from))
		}
		return nil
	})
	e.set("graph.build_adjacency_s", s)
	return err
}

func (g *genStore) collect(e *env) {}
