package graphgen

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/prng"
	"gmark/internal/schema"
)

func twoTypeConfig(n int, in, out dist.Distribution) *schema.GraphConfig {
	return &schema.GraphConfig{
		Nodes: n,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "src", Occurrence: schema.Proportion(0.5)},
				{Name: "trg", Occurrence: schema.Proportion(0.5)},
			},
			Predicates: []schema.Predicate{{Name: "p", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "src", Target: "trg", Predicate: "p", In: in, Out: out},
			},
		},
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	cfg := twoTypeConfig(0, dist.NewUniform(1, 1), dist.NewUniform(1, 1))
	if _, err := Generate(cfg, Options{}); err == nil {
		t.Fatal("zero-node config should fail")
	}
}

// TestNonFiniteDistributionFailsGenerate pins the regression where a
// NaN or infinite parameter passed validation and then panicked inside
// an emit worker, where no caller can recover it (Mu NaN or +Inf, S
// NaN), or silently emitted no edges (Sigma NaN).
func TestNonFiniteDistributionFailsGenerate(t *testing.T) {
	for _, d := range []dist.Distribution{
		dist.NewGaussian(math.NaN(), 1),
		dist.NewGaussian(math.Inf(1), 1),
		dist.NewGaussian(3, math.NaN()),
		dist.NewGaussian(3, math.Inf(1)),
		dist.NewZipfian(math.NaN()),
	} {
		for _, par := range []int{1, 2} {
			cfg := twoTypeConfig(1000, d, dist.NewUniform(1, 3))
			if _, err := Generate(cfg, Options{Seed: 1, Parallelism: par}); err == nil {
				t.Errorf("%v at parallelism %d: Generate accepted it", d, par)
			}
		}
	}
}

// TestOversizedDistributionFailsGenerate pins the parameters that
// passed validation and then crashed generation: a uniform [0, MaxInt]
// overflowed its span and panicked in rng.Intn, a Zipfian over 2^40
// ranks died allocating its table, a Gaussian of mean 1e12 grew an
// occurrence vector until the process was killed.
func TestOversizedDistributionFailsGenerate(t *testing.T) {
	oversized := []dist.Distribution{dist.NewGaussian(1e12, 1)}
	if strconv.IntSize == 64 { // a 32-bit int cannot hold these
		past := int64(1) << 40
		oversized = append(oversized,
			dist.NewUniform(0, math.MaxInt),
			dist.Distribution{Kind: dist.Zipfian, S: 2, N: int(past)})
	}
	for _, d := range oversized {
		for _, par := range []int{1, 2} {
			cfg := twoTypeConfig(50, d, dist.NewUniform(1, 3))
			if _, err := Generate(cfg, Options{Seed: 1, Parallelism: par}); err == nil {
				t.Errorf("%v at parallelism %d: Generate accepted it", d, par)
			}
		}
	}
}

// degreeScript is a sampler that returns its entries in turn.
type degreeScript struct {
	k []int
	i int
}

func (s *degreeScript) Sample(*rand.Rand) int {
	k := s.k[s.i%len(s.k)]
	s.i++
	return k
}

// TestDegreeDrawStopsAtInt32 checks that a side whose degrees add up
// past math.MaxInt32 occurrences fails in the degree draw, before any
// occurrence buffer exists: one node of degree 1, then one of degree
// MaxInt32.
func TestDegreeDrawStopsAtInt32(t *testing.T) {
	cfg := twoTypeConfig(4, dist.NewUniform(1, 1), dist.NewUniform(1, 1))
	p, err := newPlan(cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := &p.shards[0]
	sp.cp.out = &degreeScript{k: []int{1, math.MaxInt32}}
	s := newShardScratch()
	if m, err := sp.draw(s); err == nil || !strings.Contains(err.Error(), "more than 2147483647 occurrences") {
		t.Fatalf("draw returned %d edges and error %v, want the MaxInt32 error", m, err)
	}
	if s.long != nil {
		t.Errorf("an occurrence buffer of %d entries exists after the error", cap(s.long))
	}
}

// TestWarmShardEmitAllocatesNothing pins the worker scratch and the
// plan-time samplers: once a worker's scratch has emitted a shard (its
// edges counted through pair's run callback), emitting it again
// allocates nothing — no RNG, no sampler, no occurrence or partner
// buffer — on every pairing path: both sides specified with the long
// side written whole (dense) or replayed over its paired prefix
// (sparse), and either side non-specified.
func TestWarmShardEmitAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ in, out dist.Distribution }{
		{dist.NewZipfian(2.5), dist.NewGaussian(3, 1)},
		{dist.NewUniform(1, 1), dist.NewUniform(20, 20)},
		{dist.NewUniform(1, 3), dist.Unspecified()},
		{dist.Unspecified(), dist.NewUniform(0, 4)},
	} {
		p, err := newPlan(twoTypeConfig(40_000, c.in, c.out), Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sp := &p.shards[0]
		s := newShardScratch()
		edges := 0
		count := func(_ graph.NodeID, partners []int32, _ int32) error {
			edges += len(partners)
			return nil
		}
		emit := func() {
			m, err := sp.draw(s)
			if err == nil {
				err = sp.pair(s, m, count)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		emit()
		if allocs := testing.AllocsPerRun(20, emit); allocs != 0 {
			t.Errorf("in %v, out %v: a warm shard allocates %v times, want 0", c.in, c.out, allocs)
		}
		if edges == 0 {
			t.Errorf("in %v, out %v: no edges", c.in, c.out)
		}
	}
}

func TestNodeCountsHonored(t *testing.T) {
	cfg := &schema.GraphConfig{
		Nodes: 1000,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "a", Occurrence: schema.Proportion(0.6)},
				{Name: "b", Occurrence: schema.Proportion(0.2)},
				{Name: "c", Occurrence: schema.Fixed(37)},
			},
			Predicates: []schema.Predicate{{Name: "p", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "a", Target: "b", Predicate: "p",
					In: dist.Unspecified(), Out: dist.NewUniform(1, 1)},
			},
		},
	}
	g, err := Generate(cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TypeCount(0); got != 600 {
		t.Errorf("type a count = %d, want 600", got)
	}
	if got := g.TypeCount(1); got != 200 {
		t.Errorf("type b count = %d, want 200", got)
	}
	if got := g.TypeCount(2); got != 37 {
		t.Errorf("type c count = %d, want 37", got)
	}
	if g.NumNodes() != 837 {
		t.Errorf("total nodes = %d", g.NumNodes())
	}
}

func TestExactlyOneOutDegree(t *testing.T) {
	// The "1" macro: every source node has exactly one outgoing edge.
	in, out := dist.Unspecified(), dist.NewUniform(1, 1)
	cfg := twoTypeConfig(1000, in, out)
	g, err := Generate(cfg, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats := g.OutDegreeStats(0, 0)
	if stats.EdgeSum != 500 {
		t.Errorf("edges = %d, want 500", stats.EdgeSum)
	}
	for j, d := range stats.Degrees {
		if d != 1 {
			t.Fatalf("node %d out-degree = %d, want 1", j, d)
		}
	}
}

func TestForbiddenProducesNoEdges(t *testing.T) {
	// The "0" macro.
	in, out := dist.Unspecified(), dist.NewUniform(0, 0)
	cfg := twoTypeConfig(500, in, out)
	g, err := Generate(cfg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("forbidden constraint generated %d edges", g.NumEdges())
	}
}

func TestOptionalOutDegree(t *testing.T) {
	// The "?" macro.
	in, out := dist.Unspecified(), dist.NewUniform(0, 1)
	cfg := twoTypeConfig(2000, in, out)
	g, err := Generate(cfg, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats := g.OutDegreeStats(0, 0)
	if stats.Max > 1 {
		t.Errorf("optional out-degree max = %d", stats.Max)
	}
	// Expect roughly half the sources to emit an edge.
	frac := float64(stats.NonZero) / float64(stats.Count)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("optional edge fraction = %g", frac)
	}
}

func TestEdgeEndpointTypes(t *testing.T) {
	cfg := twoTypeConfig(600, dist.NewGaussian(2, 1), dist.NewGaussian(2, 1))
	g, err := Generate(cfg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g.Edges(func(e graph.Edge) {
		if g.TypeOf(e.Src) != 0 {
			t.Fatalf("edge source %d has type %d", e.Src, g.TypeOf(e.Src))
		}
		if g.TypeOf(e.Dst) != 1 {
			t.Fatalf("edge target %d has type %d", e.Dst, g.TypeOf(e.Dst))
		}
	})
}

func TestDeterminism(t *testing.T) {
	cfg := twoTypeConfig(800, dist.NewZipfian(1.5), dist.NewGaussian(3, 1))
	g1, err := Generate(cfg, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	var e1, e2 []graph.Edge
	g1.Edges(func(e graph.Edge) { e1 = append(e1, e) })
	g2.Edges(func(e graph.Edge) { e2 = append(e2, e) })
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	g3, err := Generate(cfg, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := g1.NumEdges() == g3.NumEdges()
	if same {
		var e3 []graph.Edge
		g3.Edges(func(e graph.Edge) { e3 = append(e3, e) })
		identical := true
		for i := range e1 {
			if e1[i] != e3[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestGaussianDegreeShape(t *testing.T) {
	cfg := twoTypeConfig(4000, dist.Unspecified(), dist.NewGaussian(4, 1))
	g, err := Generate(cfg, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	stats := g.OutDegreeStats(0, 0)
	if math.Abs(stats.Mean-4) > 0.3 {
		t.Errorf("gaussian(4,1) out-degree mean = %g", stats.Mean)
	}
}

func TestZipfianSkew(t *testing.T) {
	cfg := twoTypeConfig(4000, dist.Unspecified(), dist.NewZipfian(1.6))
	g, err := Generate(cfg, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stats := g.OutDegreeStats(0, 0)
	// Heavy tail: the max degree should far exceed the mean.
	if float64(stats.Max) < 5*stats.Mean {
		t.Errorf("zipfian max %d vs mean %g: not heavy-tailed", stats.Max, stats.Mean)
	}
}

// TestTrimmingToMinSide checks the min(|vsrc|,|vtrg|) rule: with a
// deliberately inconsistent pair (out expects 4x more edges than in),
// the generated edge count follows the smaller side.
func TestTrimmingToMinSide(t *testing.T) {
	cfg := twoTypeConfig(2000, dist.NewUniform(1, 1), dist.NewUniform(4, 4))
	g, err := Generate(cfg, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// in side: 1000 targets x 1 = 1000 occurrences; out side: 1000 x 4.
	if g.NumEdges() != 1000 {
		t.Errorf("edges = %d, want 1000 (the min side)", g.NumEdges())
	}
	// Every target should still have in-degree exactly 1 (the shorter,
	// untrimmed side).
	in := g.InDegreeStats(1, 0)
	if in.Max != 1 || in.EdgeSum != 1000 {
		t.Errorf("in side stats: %+v", in)
	}
}

// naiveShuffleGraph generates cfg with Fig. 5's pairing taken
// verbatim: each shard shuffles both occurrence vectors entirely and
// pairs their prefix of the shorter length. Every constraint of cfg
// must have both sides specified.
func naiveShuffleGraph(t *testing.T, cfg *schema.GraphConfig, seed int64) *graph.Graph {
	t.Helper()
	p, err := newPlan(cfg, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.New(p.typeNames, p.typeCounts, p.predNames)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.shards {
		sp := &p.shards[i]
		cp := sp.cp
		rng := prng.New(sp.seed)
		dsrc, nsrc, err := drawDegrees(nil, cp.out, sp.srcHi-sp.srcLo, rng)
		if err != nil {
			t.Fatal(err)
		}
		dtrg, ntrg, err := drawDegrees(nil, cp.in, sp.trgHi-sp.trgLo, rng)
		if err != nil {
			t.Fatal(err)
		}
		vsrc, vtrg := expand(nil, dsrc, nsrc), expand(nil, dtrg, ntrg)
		rng.Shuffle(len(vsrc), func(i, j int) { vsrc[i], vsrc[j] = vsrc[j], vsrc[i] })
		rng.Shuffle(len(vtrg), func(i, j int) { vtrg[i], vtrg[j] = vtrg[j], vtrg[i] })
		for k := range min(len(vsrc), len(vtrg)) {
			g.AddEdge(cp.srcOff+int32(sp.srcLo)+vsrc[k], cp.pred, cp.trgOff+int32(sp.trgLo)+vtrg[k])
		}
	}
	g.Freeze()
	return g
}

// TestNaiveShuffleEquivalentStats checks the Section 4 optimization
// against Fig. 5 verbatim: the partial shuffle and the full shuffle of
// both vectors produce graphs with matching edge counts and degree
// distributions.
func TestNaiveShuffleEquivalentStats(t *testing.T) {
	cfg := twoTypeConfig(3000, dist.NewGaussian(3, 1), dist.NewGaussian(3, 1))
	fast, err := Generate(cfg, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	naive := naiveShuffleGraph(t, cfg, 9)
	if math.Abs(float64(fast.NumEdges()-naive.NumEdges())) > 0.05*float64(fast.NumEdges()) {
		t.Errorf("edge counts diverge: %d vs %d", fast.NumEdges(), naive.NumEdges())
	}
	fs := fast.OutDegreeStats(0, 0)
	ns := naive.OutDegreeStats(0, 0)
	if math.Abs(fs.Mean-ns.Mean) > 0.2 {
		t.Errorf("mean out-degree diverges: %g vs %g", fs.Mean, ns.Mean)
	}
}

func TestNonSpecifiedInUniformTargets(t *testing.T) {
	cfg := twoTypeConfig(2000, dist.Unspecified(), dist.NewUniform(2, 2))
	g, err := Generate(cfg, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2000 {
		t.Fatalf("edges = %d, want 2000", g.NumEdges())
	}
	in := g.InDegreeStats(1, 0)
	// Uniformly random targets: mean 2, max should stay small.
	if math.Abs(in.Mean-2) > 0.01 {
		t.Errorf("in mean = %g", in.Mean)
	}
	if in.Max > 12 {
		t.Errorf("uniform targets produced a hub of degree %d", in.Max)
	}
}

func TestNonSpecifiedOutUniformSources(t *testing.T) {
	cfg := twoTypeConfig(2000, dist.NewUniform(3, 3), dist.Unspecified())
	g, err := Generate(cfg, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3000 {
		t.Fatalf("edges = %d, want 3000", g.NumEdges())
	}
	in := g.InDegreeStats(1, 0)
	if in.Max != 3 {
		t.Errorf("every target should have in-degree 3, max=%d", in.Max)
	}
}

func TestSelfLoopConstraint(t *testing.T) {
	cfg := &schema.GraphConfig{
		Nodes: 500,
		Schema: schema.Schema{
			Types:      []schema.NodeType{{Name: "user", Occurrence: schema.Proportion(1)}},
			Predicates: []schema.Predicate{{Name: "knows", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "user", Target: "user", Predicate: "knows",
					In: dist.NewZipfian(2), Out: dist.NewZipfian(2)},
			},
		},
	}
	g, err := Generate(cfg, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	g.Edges(func(e graph.Edge) {
		if g.TypeOf(e.Src) != 0 || g.TypeOf(e.Dst) != 0 {
			t.Fatal("self-type constraint produced out-of-type edge")
		}
	})
}
