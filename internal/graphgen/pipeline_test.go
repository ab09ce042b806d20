package graphgen

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// graphText renders a frozen graph's layout and its edges, in
// Graph.Edges order, as text: two frozen graphs hold the same instance
// iff their texts are equal.
func graphText(g *graph.Graph) []byte {
	b := fmt.Appendf(nil, "nodes=%d edges=%d\ntypes", g.NumNodes(), g.NumEdges())
	for i := 0; i < g.NumTypes(); i++ {
		b = fmt.Appendf(b, " %s:%d", g.TypeName(i), g.TypeCount(i))
	}
	b = append(b, "\npredicates"...)
	for p := 0; p < g.NumPredicates(); p++ {
		b = fmt.Appendf(b, " %s", g.PredName(graph.PredID(p)))
	}
	b = append(b, '\n')
	g.Edges(func(e graph.Edge) { b = fmt.Appendf(b, "%d %d %d\n", e.Src, e.Pred, e.Dst) })
	return b
}

// TestGenerateStreamByteIdentical is the pipeline-equivalence
// contract: for the same seed, the graph materialized by Generate and
// the graph parsed back from the streamed output are the same frozen
// instance (graphText).
func TestGenerateStreamByteIdentical(t *testing.T) {
	cfg, err := usecases.ByName("bib", 4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		opt := Options{Seed: 77, Parallelism: par}
		g, err := Generate(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		if _, err := stream(cfg, opt, &streamed); err != nil {
			t.Fatal(err)
		}
		parsed, err := graph.ReadEdgeList(bytes.NewReader(streamed.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(graphText(g), graphText(parsed)) {
			t.Fatalf("parallelism %d: Generate and streaming disagree", par)
		}
	}
}

// TestParallelismInvariance checks the hard determinism requirement:
// identical output for a given seed regardless of worker count, on
// both the materialized and the streaming path.
func TestParallelismInvariance(t *testing.T) {
	cfg, err := usecases.ByName("lsn", 3000)
	if err != nil {
		t.Fatal(err)
	}
	var refGraph []byte
	var refStream []byte
	for _, par := range []int{1, 2, 3, 8} {
		opt := Options{Seed: 99, Parallelism: par}
		g, err := Generate(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		gl := graphText(g)
		var sb bytes.Buffer
		if _, err := stream(cfg, opt, &sb); err != nil {
			t.Fatal(err)
		}
		if refGraph == nil {
			refGraph, refStream = gl, sb.Bytes()
			continue
		}
		if !bytes.Equal(refGraph, gl) {
			t.Errorf("parallelism %d: materialized graph differs from parallelism 1", par)
		}
		if !bytes.Equal(refStream, sb.Bytes()) {
			t.Errorf("parallelism %d: streamed bytes differ from parallelism 1", par)
		}
	}
}

// TestParallelismInvarianceAllUseCases sweeps every built-in schema at
// a smaller size; each exercises a different mix of distribution kinds
// and constraint counts.
func TestParallelismInvarianceAllUseCases(t *testing.T) {
	for _, name := range usecases.Names {
		cfg, err := usecases.ByName(name, 1000)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Generate(cfg, Options{Seed: 5, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := Generate(cfg, Options{Seed: 5, Parallelism: 0}) // GOMAXPROCS
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(graphText(seq), graphText(par)) {
			t.Errorf("%s: sequential and parallel graphs differ", name)
		}
	}
}

// TestEmitCustomSink checks the public sink extension point: a
// user-provided sink sees exactly the edges the built-in sinks see.
func TestEmitCustomSink(t *testing.T) {
	cfg := twoTypeConfig(1000, dist.NewGaussian(2, 1), dist.NewGaussian(2, 1))
	g, err := Generate(cfg, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var sink countingSink
	n, err := Emit(cfg, Options{Seed: 13}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumEdges() || sink.edges != g.NumEdges() {
		t.Errorf("Emit delivered %d/%d edges, Generate made %d", n, sink.edges, g.NumEdges())
	}
}

// countingSink discards edges and counts them.
type countingSink struct{ edges int }

func (s *countingSink) AddEdgeBatch(_ graph.PredID, srcs, _ []graph.NodeID) error {
	s.edges += len(srcs)
	return nil
}

func (s *countingSink) Flush() error { return nil }

// errorSink fails on the batch that holds edge after+1, to exercise
// error propagation through the ordered flusher.
type errorSink struct {
	after int
	seen  int
}

func (s *errorSink) AddEdgeBatch(_ graph.PredID, srcs, _ []graph.NodeID) error {
	s.seen += len(srcs)
	if s.seen > s.after {
		return fmt.Errorf("sink full after %d edges", s.after)
	}
	return nil
}

func (s *errorSink) Flush() error { return nil }

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 7 [running]:").
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}

// batchRecorder is a sink that records the size of every batch and
// where each call ran.
type batchRecorder struct {
	caller, goroutines int // the caller's goroutine id, the count before the run
	batches            []int
	elsewhere          int // calls off the caller's goroutine or beside another
}

func (s *batchRecorder) AddEdgeBatch(_ graph.PredID, srcs, dsts []graph.NodeID) error {
	if goid() != s.caller || runtime.NumGoroutine() > s.goroutines {
		s.elsewhere++
	}
	s.batches = append(s.batches, len(srcs))
	return checkBatch(srcs, dsts)
}

func (s *batchRecorder) Flush() error { return nil }

// TestSequentialRunDeliversShards: at Parallelism 1 a sink gets each
// non-empty shard as one AddEdgeBatch, in shard order, on the caller's
// goroutine, with no goroutine started.
func TestSequentialRunDeliversShards(t *testing.T) {
	cfg := twoTypeConfig(3000, dist.NewZipfian(2.5), dist.NewUniform(0, 2))
	for _, shardEdges := range []int{1, 300, 0} {
		opt := Options{Seed: 3, Parallelism: 1, ShardEdges: shardEdges}
		p, err := newPlan(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		total := 0
		for i := range p.shards {
			r := p.shards[i].collect(newShardScratch(), new(atomic.Bool))
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.edges > 0 {
				want = append(want, r.edges)
				total += r.edges
			}
		}
		sink := &batchRecorder{caller: goid(), goroutines: runtime.NumGoroutine()}
		n, err := Emit(cfg, opt, sink)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("shard=%d (%d shards, %d non-empty)", shardEdges, len(p.shards), len(want))
		if fmt.Sprint(sink.batches) != fmt.Sprint(want) {
			t.Errorf("%s: batches of %v edges, want %v", id, sink.batches, want)
		}
		if sink.elsewhere != 0 {
			t.Errorf("%s: %d batches off the caller's goroutine or beside another", id, sink.elsewhere)
		}
		if n == 0 || n != total {
			t.Errorf("%s: Emit reports %d edges, the shards hold %d", id, n, total)
		}
	}
}

func TestEmitPropagatesSinkErrors(t *testing.T) {
	// bib has four constraints, so Parallelism > 1 exercises the
	// ordered flusher with several workers.
	cfg, err := usecases.ByName("bib", 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		if _, err := Emit(cfg, Options{Seed: 1, Parallelism: par}, &errorSink{after: 10}); err == nil {
			t.Errorf("parallelism %d: sink error not propagated", par)
		}
	}
}

func TestStreamToFailedWriter(t *testing.T) {
	cfg := twoTypeConfig(500, dist.NewUniform(1, 1), dist.NewUniform(1, 1))
	if _, err := stream(cfg, Options{Seed: 1}, failingWriter{}); err == nil {
		t.Error("write failure not surfaced")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriterSinkHeader pins the header format ReadEdgeList depends on.
func TestWriterSinkHeader(t *testing.T) {
	cfg := twoTypeConfig(100, dist.NewUniform(1, 1), dist.NewUniform(1, 1))
	var buf bytes.Buffer
	sink, err := NewWriterSink(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Nodes() != 100 {
		t.Errorf("header nodes = %d", sink.Nodes())
	}
	want := "# gmark graph nodes=100\n# types src:50 trg:50\n# predicates p\n"
	if buf.String() != want {
		t.Errorf("header = %q, want %q", buf.String(), want)
	}
}

// renamedBib is bib at 300 nodes with one type or predicate renamed,
// its constraints following.
func renamedBib(t *testing.T, from, to string) *schema.GraphConfig {
	t.Helper()
	cfg, err := usecases.ByName("bib", 300)
	if err != nil {
		t.Fatal(err)
	}
	s := &cfg.Schema
	for i := range s.Types {
		if s.Types[i].Name == from {
			s.Types[i].Name = to
		}
	}
	for i := range s.Predicates {
		if s.Predicates[i].Name == from {
			s.Predicates[i].Name = to
		}
	}
	for i := range s.Constraints {
		c := &s.Constraints[i]
		for _, f := range []*string{&c.Source, &c.Target, &c.Predicate} {
			if *f == from {
				*f = to
			}
		}
	}
	return cfg
}

// writeEdgeListVia emits cfg through a WriterSink on the workers'
// rendering path and returns the edge list.
func writeEdgeListVia(cfg *schema.GraphConfig) ([]byte, error) {
	var buf bytes.Buffer
	sink, err := NewWriterSink(&buf, cfg)
	if err != nil {
		return nil, err
	}
	_, err = Emit(cfg, Options{Seed: 3, Parallelism: 2}, sink)
	return buf.Bytes(), err
}

// TestWhitespaceNameRefused: a predicate named "authored by" would emit
// "125 authored by 150", a line ReadEdgeList cannot split back, so the
// run must fail before emitting anything.
func TestWhitespaceNameRefused(t *testing.T) {
	for _, c := range [][2]string{{"authors", "authored by"}, {"researcher", "senior\tresearcher"}} {
		out, err := writeEdgeListVia(renamedBib(t, c[0], c[1]))
		if err == nil {
			_, rerr := graph.ReadEdgeList(bytes.NewReader(out))
			t.Fatalf("%q: emitted an edge list ReadEdgeList reads as %v", c[1], rerr)
		}
		if !strings.Contains(err.Error(), "whitespace") {
			t.Errorf("%q: error %q does not name the whitespace", c[1], err)
		}
	}
}

// TestPrefixedTypeNameRoundTrip: an RDF-style type name such as
// "ex:researcher" keeps its colon in the "# types" header, whose
// entries ReadEdgeList cuts at the count's colon, the last one.
func TestPrefixedTypeNameRoundTrip(t *testing.T) {
	cfg := renamedBib(t, "researcher", "ex:researcher")
	out, err := writeEdgeListVia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.ReadEdgeList(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if ti := parsed.TypeIndex("ex:researcher"); ti < 0 || parsed.TypeCount(ti) != cfg.TypeCount("ex:researcher") {
		t.Fatalf("type ex:researcher read back as index %d", ti)
	}
	g, err := Generate(cfg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphText(g), graphText(parsed)) {
		t.Fatal("the edge list read back differs from the generated graph")
	}
}

// TestNTriplesBytes pins Graph.WriteNTriples on bib@500 to the
// per-edge fmt.Fprintf rendering it replaced, kept here as the
// reference, and to that rendering's CRC32, recorded from it.
func TestNTriplesBytes(t *testing.T) {
	cfg, err := usecases.ByName("bib", 500)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(cfg, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		base, ref string
		crc       uint32
	}{
		{"", "http://gmark.example.org/", 0xb09c098c},
		{"urn:x:", "urn:x:", 0x0923a314},
	} {
		var got, want bytes.Buffer
		if err := g.WriteNTriples(&got, c.base); err != nil {
			t.Fatal(err)
		}
		g.Edges(func(e graph.Edge) {
			fmt.Fprintf(&want, "<%snode/%s/%d> <%spred/%s> <%snode/%s/%d> .\n",
				c.ref, g.TypeName(g.TypeOf(e.Src)), e.Src,
				c.ref, g.PredName(e.Pred),
				c.ref, g.TypeName(g.TypeOf(e.Dst)), e.Dst)
		})
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("base %q: N-Triples differ from the fmt rendering", c.base)
		}
		if crc := crc32.ChecksumIEEE(got.Bytes()); crc != c.crc {
			t.Errorf("base %q: crc %08x, want %08x", c.base, crc, c.crc)
		}
	}
}
