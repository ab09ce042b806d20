package graphgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"gmark/internal/graph"
	"gmark/internal/usecases"
)

// dirBytes concatenates a directory's files as "name\n<content>" in
// name order: two partition directories are identical iff these are.
func dirBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var out []byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e.Name()...)
		out = append(out, '\n')
		out = append(out, data...)
	}
	return out
}

// TestRenderingSinksByteIdentical is the contract of the rendering seam:
// WriterSink and the text PartitionedSink produce the same bytes whether
// the emit workers render (direct, at any parallelism) or the sink
// renders whole batches (behind a MultiEdgeSink), at every shard
// granularity, for every use case.
func TestRenderingSinksByteIdentical(t *testing.T) {
	for _, name := range usecases.Names {
		cfg, err := usecases.ByName(name, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, shardEdges := range []int{1, 7, 0} {
			var refStream, refParts []byte
			for _, par := range []int{1, 2, 8} {
				for _, via := range []string{"direct", "batch"} {
					id := fmt.Sprintf("%s shard=%d par=%d via=%s", name, shardEdges, par, via)
					opt := Options{Seed: 11, Parallelism: par, ShardEdges: shardEdges}
					var sb bytes.Buffer
					ws, err := NewWriterSink(&sb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					dir := filepath.Join(t.TempDir(), "parts")
					ps, err := NewPartitionedSink(dir, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, sink := range []EdgeSink{ws, ps} {
						if via == "batch" {
							sink = MultiEdgeSink(sink, &countingSink{})
						}
						if _, err := Emit(cfg, opt, sink); err != nil {
							t.Fatalf("%s: %v", id, err)
						}
					}
					parts := dirBytes(t, dir)
					// Every line but the three "#" header lines is an edge.
					if lines := bytes.Count(sb.Bytes(), []byte("\n")) - 3; lines == 0 || lines != ps.edges {
						t.Fatalf("%s: WriterSink wrote %d edge lines, PartitionedSink counted %d edges", id, lines, ps.edges)
					}
					if refStream == nil {
						refStream, refParts = sb.Bytes(), parts
						continue
					}
					if !bytes.Equal(refStream, sb.Bytes()) {
						t.Errorf("%s: edge list differs from the sequential one", id)
					}
					if !bytes.Equal(refParts, parts) {
						t.Errorf("%s: partition directory differs from the sequential one", id)
					}
				}
			}
		}
	}
}

// TestRenderedShardsSpanChunks runs shards whose text is many chunks
// long, so chunk boundaries fall inside shards: the bytes must still be
// the sequential ones, and they must still parse.
func TestRenderedShardsSpanChunks(t *testing.T) {
	cfg, err := usecases.ByName("bib", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	refStats, err := stream(cfg, Options{Seed: 5, Parallelism: 1}, &ref)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() < 8*renderChunkSize {
		t.Fatalf("instance renders to %d bytes, too small to span chunks", ref.Len())
	}
	var got bytes.Buffer
	stats, err := stream(cfg, Options{Seed: 5, Parallelism: 3}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if stats != refStats || !bytes.Equal(ref.Bytes(), got.Bytes()) {
		t.Fatalf("parallel stream (%+v) differs from the sequential one (%+v)", stats, refStats)
	}
	g, err := graph.ReadEdgeList(&got)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != stats.Edges {
		t.Fatalf("parsed %d edges, streamed %d", g.NumEdges(), stats.Edges)
	}
}

// TestWriterSinkMatchesFmt pins the edge list WriterSink streams, its
// header and every line, to the fmt formatting of the layout and of the
// edges Emit delivers, in delivery order; read back, it is the instance
// Generate materializes.
func TestWriterSinkMatchesFmt(t *testing.T) {
	cfg, err := usecases.ByName("bib", 3000)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 17}
	var delivered edgeListSink
	if _, err := Emit(cfg, opt, &delivered); err != nil {
		t.Fatal(err)
	}
	typeNames, typeCounts, predNames := Layout(cfg)
	nodes := 0
	for _, c := range typeCounts {
		nodes += c
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "# gmark graph nodes=%d\n# types", nodes)
	for i, name := range typeNames {
		fmt.Fprintf(&want, " %s:%d", name, typeCounts[i])
	}
	want.WriteString("\n# predicates")
	for _, name := range predNames {
		fmt.Fprintf(&want, " %s", name)
	}
	want.WriteByte('\n')
	for i, src := range delivered.srcs {
		fmt.Fprintf(&want, "%d %s %d\n", src, predNames[delivered.preds[i]], delivered.dsts[i])
	}
	var streamed bytes.Buffer
	if _, err := stream(cfg, opt, &streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatal("WriterSink differs from the fmt formatting")
	}
	back, err := graph.ReadEdgeList(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphText(back), graphText(g)) {
		t.Fatal("ReadEdgeList(WriterSink output) is not Generate's instance")
	}
}

// edgesCounted returns the number of edges a sink has taken in: the
// count a graph, partition index or spill manifest would publish, or
// the sum over a MultiEdgeSink's members.
func edgesCounted(s EdgeSink) int {
	switch s := s.(type) {
	case *GraphSink:
		return s.g.NumEdges()
	case *PartitionedSink:
		return s.edges
	case *CSRSpillSink:
		return s.edges
	case *countingSink:
		return s.edges
	case *WriterSink:
		return bytes.Count(s.buf, []byte{'\n'}) // the header is written at construction
	case multiEdgeSink:
		n := 0
		for _, m := range s {
			n += edgesCounted(m)
		}
		return n
	}
	return 0
}

// TestMismatchedBatchRefused: every sink answers a batch whose columns
// do not pair up, or whose predicate lies outside its layout, with an
// error naming it — never a panic, never a partial write. Every sink
// also refuses node ids outside [0, nodes). A MultiEdgeSink
// must refuse a mismatched batch before its first member, a countingSink
// that checks nothing, counts a single edge; a batch outside the layout
// reaches that member and is refused by the next.
func TestMismatchedBatchRefused(t *testing.T) {
	cfg, err := usecases.ByName("bib", 300)
	if err != nil {
		t.Fatal(err)
	}
	_, typeCounts, predNames := Layout(cfg)
	nodes := 0
	for _, c := range typeCounts {
		nodes += c
	}
	srcs, dsts := []graph.NodeID{1, 2, 3}, []graph.NodeID{4, 5}
	sinks := map[string]func(t *testing.T) EdgeSink{
		"GraphSink": func(t *testing.T) EdgeSink {
			s, err := NewGraphSinkFor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"WriterSink": func(t *testing.T) EdgeSink {
			s, err := NewWriterSink(&bytes.Buffer{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"PartitionedSink/text": func(t *testing.T) EdgeSink {
			s, err := NewPartitionedSink(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"PartitionedSink/binary": func(t *testing.T) EdgeSink {
			s, err := NewBinaryPartitionedSink(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"CSRSpillSink": func(t *testing.T) EdgeSink {
			s, err := NewCSRSpillSinkWith(t.TempDir(), cfg, 0, SpillCompressVarint)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"MultiEdgeSink": func(t *testing.T) EdgeSink {
			s, err := NewPartitionedSink(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return MultiEdgeSink(&countingSink{}, s)
		},
	}
	for name, mk := range sinks {
		t.Run(name, func(t *testing.T) {
			for _, swap := range []bool{false, true} {
				a, b := srcs, dsts
				if swap {
					a, b = dsts, srcs
				}
				sink := mk(t)
				if err := sink.AddEdgeBatch(0, a, b); err == nil {
					t.Errorf("AddEdgeBatch accepted %d sources with %d targets", len(a), len(b))
				}
				abortSink(sink)
				if err := sink.Flush(); err != nil {
					t.Errorf("flush after a refused batch: %v", err)
				}
				if n := edgesCounted(sink); n != 0 {
					t.Errorf("refused batch still counted %d edges", n)
				}
			}
			type outside struct {
				pred       graph.PredID
				src, dst   graph.NodeID
				mentioning string
			}
			cases := []outside{
				{-1, 1, 2, "predicate -1"},
				{graph.PredID(len(predNames)), 1, 2, fmt.Sprintf("predicate %d", len(predNames))},
				{0, -5, 2, "node id -5"},
				{0, 1, 1 << 30, fmt.Sprintf("node id %d", 1<<30)},
				{0, graph.NodeID(nodes), 2, fmt.Sprintf("node id %d", nodes)},
			}
			for _, c := range cases {
				sink := mk(t)
				a, b := []graph.NodeID{0, c.src, 3}, []graph.NodeID{4, c.dst, 5}
				err := sink.AddEdgeBatch(c.pred, a, b)
				if err == nil || !strings.Contains(err.Error(), c.mentioning) {
					t.Errorf("pred %d, edge (%d, %d): got error %v, want one naming %s", c.pred, c.src, c.dst, err, c.mentioning)
				}
				abortSink(sink)
				if err := sink.Flush(); err != nil {
					t.Errorf("flush after a refused batch: %v", err)
				}
				want := 0
				if name == "MultiEdgeSink" {
					want = len(a)
				}
				if n := edgesCounted(sink); n != want {
					t.Errorf("pred %d, edge (%d, %d): refused batch counted %d edges, want %d", c.pred, c.src, c.dst, n, want)
				}
			}
		})
	}
}

// TestEmitIntoForeignLayoutRefused emits lsn into sinks laid out for
// bib, whose schema has fewer predicates: the run must end with an
// error, not a panic, and a partition directory must be left without
// index.json.
func TestEmitIntoForeignLayoutRefused(t *testing.T) {
	bib, err := usecases.ByName("bib", 200)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := usecases.ByName("lsn", 200)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bibPreds := Layout(bib)
	_, _, lsnPreds := Layout(lsn)
	if len(lsnPreds) <= len(bibPreds) {
		t.Fatalf("lsn has %d predicates, bib %d: no foreign predicate to emit", len(lsnPreds), len(bibPreds))
	}
	for _, mode := range []string{"writer", "text", "binary"} {
		for _, par := range []int{1, 4} {
			dir := t.TempDir()
			var sink EdgeSink
			switch mode {
			case "writer":
				sink, err = NewWriterSink(io.Discard, bib)
			case "text":
				sink, err = NewPartitionedSink(dir, bib)
			case "binary":
				sink, err = NewBinaryPartitionedSink(dir, bib)
			}
			if err != nil {
				t.Fatal(err)
			}
			n, err := Emit(lsn, Options{Seed: 3, Parallelism: par}, sink)
			if err == nil || !strings.Contains(err.Error(), "outside") {
				t.Errorf("%s, par %d: Emit returned %d edges and error %v, want a layout error", mode, par, n, err)
			}
			if _, err := os.Stat(filepath.Join(dir, partitionIndexFile)); !os.IsNotExist(err) {
				t.Errorf("%s, par %d: index.json exists after a refused run (%v)", mode, par, err)
			}
		}
	}
}

var errInjected = errors.New("injected: write refused")

// failOnWrite succeeds until its k-th Write, which fails; it keeps what
// it accepted and counts the writes that arrive after the failure.
type failOnWrite struct {
	k        int
	calls    int
	accepted bytes.Buffer
	after    int
}

func (w *failOnWrite) Write(p []byte) (int, error) {
	w.calls++
	switch {
	case w.calls < w.k:
		return w.accepted.Write(p)
	case w.calls == w.k:
		return 0, errInjected
	}
	w.after++
	return 0, errInjected
}

// flushCounter counts Flush calls on its way through to the sink.
type flushCounter struct {
	EdgeSink
	flushes int
}

func (f *flushCounter) Flush() error {
	f.flushes++
	return f.EdgeSink.Flush()
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%d goroutines left running, %d before the run", runtime.NumGoroutine(), base)
}

// TestFailingWriterStopsTheRun: a writer that fails on its k-th Write
// makes Emit and streaming return exactly that error, at any parallelism;
// nothing reaches the writer afterwards (no later slot's chunk, no
// retried flush), what it accepted before is a prefix of the true
// output, every worker is joined and every chunk comes home.
func TestFailingWriterStopsTheRun(t *testing.T) {
	cfg, err := usecases.ByName("bib", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	const shardEdges = 4000 // ~1.3 chunks a shard, some forty shards
	var ref bytes.Buffer
	refStats, err := stream(cfg, Options{Seed: 9, Parallelism: 1, ShardEdges: shardEdges}, &ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		opt := Options{Seed: 9, Parallelism: par, ShardEdges: shardEdges}
		for _, k := range []int{2, 3, 7} {
			id := fmt.Sprintf("par=%d k=%d", par, k)
			base := runtime.NumGoroutine()

			w := &failOnWrite{k: k}
			if _, err := stream(cfg, opt, w); !errors.Is(err, errInjected) {
				t.Errorf("%s: streaming returned %v, want the writer's error", id, err)
			}
			if w.after != 0 {
				t.Errorf("%s: streaming wrote %d more times after the failure", id, w.after)
			}
			if !bytes.HasPrefix(ref.Bytes(), w.accepted.Bytes()) || w.accepted.Len() == 0 {
				t.Errorf("%s: the %d bytes streaming delivered are not a prefix of the output", id, w.accepted.Len())
			}

			w = &failOnWrite{k: k}
			p, err := newPlan(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := NewWriterSink(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.emitInto(sink); !errors.Is(err, errInjected) {
				t.Errorf("%s: emitInto returned %v, want the writer's error", id, err)
			}
			if w.after != 0 {
				t.Errorf("%s: %d writes after the failure", id, w.after)
			}
			if !bytes.HasPrefix(ref.Bytes(), w.accepted.Bytes()) {
				t.Errorf("%s: delivered bytes are not a prefix of the output", id)
			}
			if p.chunks != nil && p.chunks.outstanding.Load() != 0 {
				t.Errorf("%s: %d chunks never returned to the pool", id, p.chunks.outstanding.Load())
			}
			if p.emitted >= refStats.Edges {
				t.Errorf("%s: all %d edges were delivered despite the failure", id, p.emitted)
			}

			// Behind a wrapper the sink renders per edge into its own
			// buffer: the header is write 1, the flush write 2.
			w = &failOnWrite{k: 2}
			ws, err := NewWriterSink(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			counted := &flushCounter{EdgeSink: ws}
			if _, err := Emit(cfg, opt, counted); !errors.Is(err, errInjected) {
				t.Errorf("%s: Emit returned %v, want the writer's error", id, err)
			}
			if counted.flushes != 1 || w.after != 0 {
				t.Errorf("%s: Emit flushed %d times, %d writes after the failure; want 1 and 0", id, counted.flushes, w.after)
			}
			settleGoroutines(t, base)
		}
	}
}

// TestEmissionErrorStillFlushes: when emission itself fails, the one
// sequencing path behind Emit and streaming still flushes the sink — the
// edges of the shards that did complete reach the writer.
func TestEmissionErrorStillFlushes(t *testing.T) {
	cfg, err := usecases.ByName("bib", 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		p, err := newPlan(cfg, Options{Seed: 1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		last := &p.constraints[len(p.constraints)-1]
		last.out, last.in = nil, nil // no side to draw
		var buf bytes.Buffer
		sink, err := NewWriterSink(&buf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		header := buf.Len()
		counted := &flushCounter{EdgeSink: sink}
		if _, err := p.emitInto(counted); err == nil {
			t.Fatalf("par=%d: broken constraint did not fail the run", par)
		}
		if counted.flushes != 1 {
			t.Errorf("par=%d: sink flushed %d times, want 1", par, counted.flushes)
		}
		if buf.Len() <= header || buf.Bytes()[buf.Len()-1] != '\n' {
			t.Errorf("par=%d: the completed shards' edges were not flushed (%d bytes past the header)", par, buf.Len()-header)
		}
	}
}

// poolProbe is a rendering sink that samples the plan's chunk pool at
// every delivery — the moments in-flight chunks peak, since chunks only
// come home right after one.
type poolProbe struct {
	*WriterSink
	p        *plan
	peak     int32
	maxEdges int
}

func (s *poolProbe) addRendered(pred graph.PredID, edges int, chunks [][]byte) error {
	s.peak = max(s.peak, s.p.chunks.outstanding.Load())
	s.maxEdges = max(s.maxEdges, edges)
	for _, c := range chunks {
		if cap(c) != renderChunkSize {
			return fmt.Errorf("chunk of capacity %d, want %d", cap(c), renderChunkSize)
		}
	}
	return s.WriterSink.addRendered(pred, edges, chunks)
}

// TestRenderChunksBounded: the free list holds at most its capacity,
// and the rendered bytes in flight never exceed workers x one shard.
func TestRenderChunksBounded(t *testing.T) {
	cfg, err := usecases.ByName("bib", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	p, err := newPlan(cfg, Options{Seed: 2, Parallelism: workers, ShardEdges: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWriterSink(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &poolProbe{WriterSink: ws, p: p}
	if _, err := p.emitInto(probe); err != nil {
		t.Fatal(err)
	}
	pool := p.chunks
	if pool == nil {
		t.Fatal("the run did not take the rendering path")
	}
	if cap(pool.free) != renderChunksPerWorker*workers || len(pool.free) > cap(pool.free) {
		t.Errorf("free list holds %d of %d chunks, want capacity %d", len(pool.free), cap(pool.free), renderChunksPerWorker*workers)
	}
	if len(pool.free) == 0 {
		t.Error("no chunk was recycled")
	}
	if n := pool.outstanding.Load(); n != 0 {
		t.Errorf("%d chunks outstanding after the run", n)
	}
	// A shard of e edges needs at most e*maxLine/(chunk-maxLine)+1 chunks.
	maxLine := ws.maxLine
	perShard := probe.maxEdges*maxLine/(renderChunkSize-maxLine) + 1
	if probe.peak == 0 || int(probe.peak) > workers*perShard {
		t.Errorf("%d chunks in flight at peak; bound is %d workers x %d chunks per shard", probe.peak, workers, perShard)
	}
	if perShard < 4 {
		t.Fatalf("shards render to %d chunks: too small to test the bound", perShard)
	}
}
