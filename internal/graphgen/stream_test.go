package graphgen

import (
	"bytes"
	"io"
	"math"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// streamStats is what a streamed run reports: the header's node count
// and the number of edges written.
type streamStats struct{ Nodes, Edges int }

// stream generates cfg straight to w in edge-list form, without
// materializing it: Emit into a WriterSink, as cmd/gmark writes graph.txt.
func stream(cfg *schema.GraphConfig, opt Options, w io.Writer) (streamStats, error) {
	ws, err := NewWriterSink(w, cfg)
	if err != nil {
		return streamStats{}, err
	}
	n, err := Emit(cfg, opt, ws)
	return streamStats{Nodes: ws.Nodes(), Edges: n}, err
}

func TestStreamMatchesGenerate(t *testing.T) {
	// The same configuration and seed must produce the identical edge
	// multiset via the in-memory and streaming paths.
	cfg := twoTypeConfig(1500, dist.NewGaussian(2, 1), dist.NewGaussian(2, 1))
	inMem, err := Generate(cfg, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stats, err := stream(cfg, Options{Seed: 21}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != inMem.NumEdges() {
		t.Fatalf("edge counts: stream %d, in-memory %d", stats.Edges, inMem.NumEdges())
	}
	if stats.Nodes != inMem.NumNodes() {
		t.Fatalf("node counts: stream %d, in-memory %d", stats.Nodes, inMem.NumNodes())
	}
	// The streamed file parses back into an identical graph.
	parsed, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2 []graph.Edge
	inMem.Edges(func(e graph.Edge) { e1 = append(e1, e) })
	parsed.Edges(func(e graph.Edge) { e2 = append(e2, e) })
	if len(e1) != len(e2) {
		t.Fatalf("edge lists differ in length")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestStreamAllUseCases(t *testing.T) {
	for _, name := range usecases.Names {
		cfg, err := usecases.ByName(name, 3000)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := stream(cfg, Options{Seed: 5}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Edges == 0 {
			t.Errorf("%s: streamed no edges", name)
		}
	}
}

func TestStreamValidatesConfig(t *testing.T) {
	cfg := twoTypeConfig(0, dist.NewUniform(1, 1), dist.NewUniform(1, 1))
	if _, err := stream(cfg, Options{}, io.Discard); err == nil {
		t.Fatal("zero-node config should fail")
	}
}

func TestExpectedEdges(t *testing.T) {
	// 1000 nodes: 500 sources x mean 2 out, 500 targets x mean 2 in:
	// min side = 1000.
	cfg := twoTypeConfig(1000, dist.NewGaussian(2, 0.5), dist.NewGaussian(2, 0.5))
	want := 1000.0
	if got := ExpectedPredicateEdges(cfg, "p"); math.Abs(float64(got)-want) > 1 {
		t.Errorf("ExpectedPredicateEdges = %d, want ~%g", got, want)
	}
	// Against a real run: within 10%.
	g, err := Generate(cfg, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	est := float64(ExpectedPredicateEdges(cfg, "p"))
	if math.Abs(est-float64(g.NumEdges()))/est > 0.10 {
		t.Errorf("estimate %g vs actual %d", est, g.NumEdges())
	}
	// Half-specified constraints use the specified side.
	cfg2 := twoTypeConfig(1000, dist.Unspecified(), dist.NewUniform(3, 3))
	if got := ExpectedPredicateEdges(cfg2, "p"); got != 1500 {
		t.Errorf("half-specified estimate = %d, want 1500", got)
	}
}

func TestStreamDeterministic(t *testing.T) {
	cfg := twoTypeConfig(800, dist.NewZipfian(1.5), dist.NewGaussian(2, 1))
	var b1, b2 bytes.Buffer
	if _, err := stream(cfg, Options{Seed: 33}, &b1); err != nil {
		t.Fatal(err)
	}
	if _, err := stream(cfg, Options{Seed: 33}, &b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("streaming output not deterministic")
	}
}
