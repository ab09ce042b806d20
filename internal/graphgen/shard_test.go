package graphgen

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// singleConstraintConfig models the schemas the sharding refactor
// exists for: one dominant Zipfian-heavy constraint that used to
// serialize the whole pipeline on a single worker.
func singleConstraintConfig(n int) *schema.GraphConfig {
	return &schema.GraphConfig{
		Nodes: n,
		Schema: schema.Schema{
			Types:      []schema.NodeType{{Name: "user", Occurrence: schema.Proportion(1)}},
			Predicates: []schema.Predicate{{Name: "knows", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "user", Target: "user", Predicate: "knows",
					In: dist.NewZipfian(2.0), Out: dist.NewGaussian(3, 1)},
			},
		},
	}
}

// TestShardBoundaryDeterminism is the acceptance contract of the
// sharded pipeline: for a fixed seed and a fixed ShardEdges override
// (1, 7 and the default), the streamed edge-list bytes and the
// materialized graph are identical across parallelism 1/2/8 for every
// built-in use case.
func TestShardBoundaryDeterminism(t *testing.T) {
	for _, name := range usecases.Names {
		cfg, err := usecases.ByName(name, 400)
		if err != nil {
			t.Fatal(err)
		}
		for _, shardEdges := range []int{1, 7, 0} {
			var refStream, refGraph []byte
			for _, par := range []int{1, 2, 8} {
				opt := Options{Seed: 11, Parallelism: par, ShardEdges: shardEdges}
				var sb bytes.Buffer
				if _, err := stream(cfg, opt, &sb); err != nil {
					t.Fatalf("%s shard=%d par=%d: %v", name, shardEdges, par, err)
				}
				g, err := Generate(cfg, opt)
				if err != nil {
					t.Fatalf("%s shard=%d par=%d: %v", name, shardEdges, par, err)
				}
				gl := graphText(g)
				if refStream == nil {
					refStream, refGraph = sb.Bytes(), gl
					continue
				}
				if !bytes.Equal(refStream, sb.Bytes()) {
					t.Errorf("%s shard=%d par=%d: streamed bytes differ from parallelism 1", name, shardEdges, par)
				}
				if !bytes.Equal(refGraph, gl) {
					t.Errorf("%s shard=%d par=%d: materialized graph differs from parallelism 1", name, shardEdges, par)
				}
			}
		}
	}
}

// TestSingleDominantConstraintShards checks that a one-constraint
// schema actually fans out: the plan must hold more shards than
// constraints once the expected edge count exceeds the shard target,
// and emission must stay deterministic across worker counts.
func TestSingleDominantConstraintShards(t *testing.T) {
	cfg := singleConstraintConfig(3000)
	opt := Options{Seed: 3, ShardEdges: 64}
	p, err := newPlan(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.constraints) != 1 {
		t.Fatalf("constraints = %d, want 1", len(p.constraints))
	}
	if len(p.shards) < 8 {
		t.Fatalf("shards = %d, want >= 8 for a dominant constraint", len(p.shards))
	}

	var ref []byte
	for _, par := range []int{1, 2, 8} {
		g, err := Generate(cfg, Options{Seed: 3, Parallelism: par, ShardEdges: 64})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() == 0 {
			t.Fatal("no edges generated")
		}
		gl := graphText(g)
		if ref == nil {
			ref = gl
			continue
		}
		if !bytes.Equal(ref, gl) {
			t.Errorf("parallelism %d: sharded output differs", par)
		}
	}
}

// TestShardPlanTiling checks the shard boundary invariants directly:
// sub-ranges tile both partitioned sides with no gaps or overlaps, and
// a single-shard constraint keeps the constraint seed (byte
// compatibility with the unsharded pipeline).
func TestShardPlanTiling(t *testing.T) {
	cfg := twoTypeConfig(1000, dist.NewGaussian(2, 1), dist.NewGaussian(2, 1))
	p, err := newPlan(cfg, Options{Seed: 9, ShardEdges: 50})
	if err != nil {
		t.Fatal(err)
	}
	cp := &p.constraints[0]
	if cp.shards < 2 {
		t.Fatalf("expected a multi-shard constraint, got %d shards", cp.shards)
	}
	// Source stripes tile in order; target stripes tile as a set (they
	// are rotated against the source stripes to avoid block-diagonal
	// instances).
	wantSrcLo := 0
	type span struct{ lo, hi int }
	var trg []span
	rotated := false
	for _, sp := range p.shards {
		if sp.srcLo != wantSrcLo {
			t.Fatalf("shard %d: source range [%d,%d) leaves a gap after %d",
				sp.index, sp.srcLo, sp.srcHi, wantSrcLo)
		}
		if sp.srcHi <= sp.srcLo || sp.trgHi <= sp.trgLo {
			t.Fatalf("shard %d: empty sub-range", sp.index)
		}
		if sp.trgLo*cp.nSrc != sp.srcLo*cp.nTrg {
			rotated = true // any stripe off the aligned diagonal
		}
		wantSrcLo = sp.srcHi
		trg = append(trg, span{sp.trgLo, sp.trgHi})
	}
	if wantSrcLo != cp.nSrc {
		t.Fatalf("source shards cover [0,%d), want [0,%d)", wantSrcLo, cp.nSrc)
	}
	slices.SortFunc(trg, func(a, b span) int { return a.lo - b.lo })
	wantTrgLo := 0
	for _, s := range trg {
		if s.lo != wantTrgLo {
			t.Fatalf("target stripes leave a gap after %d (next starts at %d)", wantTrgLo, s.lo)
		}
		wantTrgLo = s.hi
	}
	if wantTrgLo != cp.nTrg {
		t.Fatalf("target shards cover [0,%d), want [0,%d)", wantTrgLo, cp.nTrg)
	}
	if !rotated {
		t.Fatal("target stripes are aligned with source stripes; rotation missing")
	}

	single, err := newPlan(cfg, Options{Seed: 9, ShardEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.shards) != 1 || single.shards[0].seed != single.constraints[0].seed {
		t.Fatal("single-shard constraint must reuse the constraint seed")
	}
}

// TestShardRotationMixesStripes: a sharded self-loop constraint must
// not decompose into disconnected node-range blocks. The rotated
// stripe pairing is coprime to the shard count, so the stripe digraph
// is one cycle: starting from stripe 0 and repeatedly following the
// target stripe, every stripe must be reached.
func TestShardRotationMixesStripes(t *testing.T) {
	cfg := singleConstraintConfig(2000)
	p, err := newPlan(cfg, Options{Seed: 8, ShardEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.shards)
	if n < 4 {
		t.Fatalf("want several shards, got %d", n)
	}
	// Map each shard's target stripe back to the shard whose source
	// stripe it is (same type on both sides, same lattice).
	next := make(map[int]int, n)
	for _, sp := range p.shards {
		trgShard := -1
		for _, other := range p.shards {
			if other.srcLo == sp.trgLo && other.srcHi == sp.trgHi {
				trgShard = other.index
				break
			}
		}
		if trgShard < 0 {
			t.Fatalf("shard %d: target stripe [%d,%d) is not a source stripe", sp.index, sp.trgLo, sp.trgHi)
		}
		if trgShard == sp.index {
			t.Fatalf("shard %d: pairs with its own stripe (block-diagonal)", sp.index)
		}
		next[sp.index] = trgShard
	}
	seen := map[int]bool{}
	for at := 0; !seen[at]; at = next[at] {
		seen[at] = true
	}
	if len(seen) != n {
		t.Fatalf("stripe cycle visits %d of %d stripes; rotation not coprime", len(seen), n)
	}

	// Instance-level: with one Zipfian constraint sharded finely, edges
	// must leave their source stripe (the unsharded algorithm mixes
	// globally; the sharded one must at least mix across stripes).
	g, err := Generate(cfg, Options{Seed: 8, ShardEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	stripe := func(v int32) int {
		for _, sp := range p.shards {
			if int(v) >= sp.srcLo && int(v) < sp.srcHi {
				return sp.index
			}
		}
		return -1
	}
	cross := 0
	total := 0
	g.Edges(func(e graph.Edge) {
		total++
		if stripe(e.Src) != stripe(e.Dst) {
			cross++
		}
	})
	if total == 0 || cross == 0 {
		t.Fatalf("%d/%d edges cross stripes; sharded instance is block-diagonal", cross, total)
	}
}

// TestShardingPreservesSpecifiedSide: sharding partitions the
// specified side's nodes, so a degenerate out-distribution (exactly
// one edge per source, in side unspecified) must survive any shard
// granularity exactly.
func TestShardingPreservesSpecifiedSide(t *testing.T) {
	in, out := dist.Unspecified(), dist.NewUniform(1, 1)
	cfg := twoTypeConfig(1000, in, out)
	for _, shardEdges := range []int{1, 7, 0, -1} {
		g, err := Generate(cfg, Options{Seed: 2, ShardEdges: shardEdges})
		if err != nil {
			t.Fatal(err)
		}
		stats := g.OutDegreeStats(0, 0)
		if stats.EdgeSum != 500 {
			t.Errorf("shardEdges=%d: edges = %d, want 500", shardEdges, stats.EdgeSum)
		}
		for j, d := range stats.Degrees {
			if d != 1 {
				t.Fatalf("shardEdges=%d: node %d out-degree = %d, want 1", shardEdges, j, d)
			}
		}
	}
}

// TestShardGranularityEdgeCountStable: different shard granularities
// select different (equally valid) instances; the per-shard
// min-truncation must not visibly depress the edge count at sane
// granularities.
func TestShardGranularityEdgeCountStable(t *testing.T) {
	cfg := twoTypeConfig(20000, dist.NewGaussian(3, 1), dist.NewGaussian(3, 1))
	ref, err := Generate(cfg, Options{Seed: 6, ShardEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shardEdges := range []int{0, 4096} {
		g, err := Generate(cfg, Options{Seed: 6, ShardEdges: shardEdges})
		if err != nil {
			t.Fatal(err)
		}
		drift := math.Abs(float64(g.NumEdges()-ref.NumEdges())) / float64(ref.NumEdges())
		if drift > 0.05 {
			t.Errorf("shardEdges=%d: edge count %d drifts %.1f%% from unsharded %d",
				shardEdges, g.NumEdges(), 100*drift, ref.NumEdges())
		}
		stats := g.OutDegreeStats(0, 0)
		if math.Abs(stats.Mean-3) > 0.3 {
			t.Errorf("shardEdges=%d: out-degree mean %g, want ~3", shardEdges, stats.Mean)
		}
	}
}

// TestPartitionedSinkRoundTrip: generating into a partitioned
// directory and loading it back must reproduce the materialized graph
// byte for byte.
func TestPartitionedSinkRoundTrip(t *testing.T) {
	cfg, err := usecases.ByName("bib", 2000)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 21, Parallelism: 4}
	g, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "parts")
	sink, err := NewPartitionedSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Emit(cfg, opt, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumEdges() {
		t.Fatalf("partitioned sink saw %d edges, Generate made %d", n, g.NumEdges())
	}

	idx, err := ReadPartitionIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Edges != n || idx.Nodes != g.NumNodes() {
		t.Fatalf("index reports %d nodes / %d edges, want %d / %d", idx.Nodes, idx.Edges, g.NumNodes(), n)
	}
	perPred := 0
	for _, p := range idx.Predicates {
		perPred += p.Edges
	}
	if perPred != n {
		t.Fatalf("per-predicate counts sum to %d, want %d", perPred, n)
	}

	loaded, err := LoadPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphText(g), graphText(loaded)) {
		t.Fatal("loaded partitioned graph differs from the generated one")
	}
}

// TestCSRSpillRoundTrip: the spilled node-range CSR shards must
// reassemble into exactly the adjacency the in-memory Freeze builds,
// in both directions, across shard-file boundaries.
func TestCSRSpillRoundTrip(t *testing.T) {
	cfg, err := usecases.ByName("bib", 1200)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 33}
	g, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := NewCSRSpillSinkWith(dir, cfg, 100, SpillCompressVarint) // tiny shards: many files
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, opt, sink); err != nil {
		t.Fatal(err)
	}

	spill, err := OpenCSRSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	if spill.Manifest.Nodes != g.NumNodes() || spill.Manifest.Edges != g.NumEdges() {
		t.Fatalf("manifest %d/%d, want %d/%d",
			spill.Manifest.Nodes, spill.Manifest.Edges, g.NumNodes(), g.NumEdges())
	}
	if len(spill.Manifest.Predicates[0].Fwd) < 2 {
		t.Fatalf("expected multiple shards per direction, got %d", len(spill.Manifest.Predicates[0].Fwd))
	}
	for p, entry := range spill.Manifest.Predicates {
		for dirIdx, shards := range [][]CSRShard{entry.Fwd, entry.Bwd} {
			for _, sh := range shards {
				off, adj, _, err := spill.LoadShardSized(sh)
				if err != nil {
					t.Fatalf("pred %d dir %d: %v", p, dirIdx, err)
				}
				for v := sh.Lo; v < sh.Hi; v++ {
					local := adj[off[v-sh.Lo]:off[v-sh.Lo+1]]
					var want []int32
					if dirIdx == 0 {
						want = g.Out(int32(v), int32(p))
					} else {
						want = g.In(int32(v), int32(p))
					}
					if !slices.Equal(local, want) {
						t.Fatalf("pred %d dir %d node %d: spill %v, graph %v", p, dirIdx, v, local, want)
					}
				}
			}
		}
	}
}

// TestMultiEdgeSink: one pass feeds several sinks identically.
func TestMultiEdgeSink(t *testing.T) {
	cfg := twoTypeConfig(800, dist.NewGaussian(2, 1), dist.NewGaussian(2, 1))
	var a, b countingSink
	n, err := Emit(cfg, Options{Seed: 4}, MultiEdgeSink(&a, &b))
	if err != nil {
		t.Fatal(err)
	}
	if a.edges != n || b.edges != n || n == 0 {
		t.Fatalf("multi sink fan-out: %d/%d of %d edges", a.edges, b.edges, n)
	}
}

// TestAbortedRunWritesNoIndexes: when emission fails, sinks that
// finalize durable indexes must not leave a complete-looking
// index/manifest over partial output.
func TestAbortedRunWritesNoIndexes(t *testing.T) {
	cfg, err := usecases.ByName("bib", 2000)
	if err != nil {
		t.Fatal(err)
	}
	partDir := filepath.Join(t.TempDir(), "parts")
	csrDir := filepath.Join(t.TempDir(), "csr")
	ps, err := NewPartitionedSink(partDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCSRSpillSinkWith(csrDir, cfg, 0, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		sink := MultiEdgeSink(&errorSink{after: 10}, ps, cs)
		if _, err := Emit(cfg, Options{Seed: 1, Parallelism: par}, sink); err == nil {
			t.Fatal("sink error not propagated")
		}
	}
	if _, err := ReadPartitionIndex(partDir); err == nil {
		t.Error("aborted run left a partition index.json")
	}
	if _, err := LoadPartitioned(partDir); err == nil {
		t.Error("aborted partition directory loaded as a graph")
	}
	if _, err := OpenCSRSpill(csrDir); err == nil {
		t.Error("aborted run left a csr manifest")
	}
}

// TestWriteCSRSpillFromGraph: spilling an already-frozen graph must
// produce byte-identical shard files and an equivalent manifest to
// the CSRSpillSink fed by the pipeline (same edges, both directions
// sorted).
func TestWriteCSRSpillFromGraph(t *testing.T) {
	cfg, err := usecases.ByName("bib", 1200)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 33}
	g, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	sinkDir := filepath.Join(t.TempDir(), "sink")
	fromGraphDir := filepath.Join(t.TempDir(), "frozen")
	sink, err := NewCSRSpillSinkWith(sinkDir, cfg, 100, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, opt, sink); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSRSpillFromGraphWith(fromGraphDir, g, 100, SpillCompressVarint); err != nil {
		t.Fatal(err)
	}

	a, err := OpenCSRSpill(sinkDir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenCSRSpill(fromGraphDir)
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Nodes != b.Manifest.Nodes || a.Manifest.Edges != b.Manifest.Edges ||
		len(a.Manifest.Predicates) != len(b.Manifest.Predicates) {
		t.Fatalf("manifests disagree: %+v vs %+v", a.Manifest, b.Manifest)
	}
	for p := range a.Manifest.Predicates {
		for _, pair := range [][2][]CSRShard{
			{a.Manifest.Predicates[p].Fwd, b.Manifest.Predicates[p].Fwd},
			{a.Manifest.Predicates[p].Bwd, b.Manifest.Predicates[p].Bwd},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("pred %d: shard counts differ", p)
			}
			for i := range pair[0] {
				fa, err := os.ReadFile(filepath.Join(sinkDir, pair[0][i].File))
				if err != nil {
					t.Fatal(err)
				}
				fb, err := os.ReadFile(filepath.Join(fromGraphDir, pair[1][i].File))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fa, fb) {
					t.Fatalf("pred %d shard %s: bytes differ between sink and from-graph spill", p, pair[0][i].File)
				}
			}
		}
	}
}
