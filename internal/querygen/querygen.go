// Package querygen implements gMark's query workload generation
// algorithm (paper, Fig. 6 and Section 5) as a staged, sink-based
// pipeline mirroring internal/graphgen:
//
//  1. Planning (plan.go): the workload configuration is resolved into
//     one queryUnit per query, carrying the pre-drawn workload-level
//     assignment — shape, selectivity class, arity, rule count — and a
//     deterministic RNG sub-seed derived from (Config.Seed, index)
//     with a splitmix64 mix.
//  2. Emission (pipeline.go): Options.Parallelism workers claim
//     contiguous blocks of units in ascending order (fanout.Ordered).
//     Each worker owns one RNG, re-seeded per unit, and a read-only
//     view of the shared schema analysis (the selectivity estimator,
//     the schema graph G_S, the per-window selectivity graphs G_sel
//     with their per-class walk-count tables, and the nb_path tables,
//     all frozen at New). At most ringDepth blocks per worker are
//     admitted ahead of the flusher.
//  3. Sinks (sink.go): queries flow into a QuerySink in index order.
//     SliceSink materializes the workload (Generate); ProfileSink
//     streams a workload.Profile without materializing; SyntaxDirSink
//     fans each query through internal/translate into per-language
//     files the way the original gMark tool does.
//
// Determinism is a hard invariant: a given (configuration, seed) pair
// produces an identical workload regardless of worker count, because
// every query owns an independent sub-seeded RNG and finished queries
// are flushed to the sink in ascending index.
//
// For each query the generator draws a skeleton of the requested shape
// and size, picks projection variables consistent with the arity
// constraint, and instantiates the placeholders with regular path
// expressions. For selectivity-constrained binary chain queries the
// instantiation walks the selectivity graph G_sel so that the composed
// selectivity class of the chain matches the requested class
// (Section 5.2.4); everything else uses schema-typed random walks.
//
// Like the paper's heuristic, the generator never backtracks across
// queries: when the exact constraints cannot be met it relaxes the
// path-length window and, as a last resort, drops the selectivity
// constraint, flagging the query as Relaxed.
package querygen

import (
	"fmt"
	"math/rand"
	"slices"

	"gmark/internal/prng"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/schema"
	"gmark/internal/selectivity"
)

// Config is the query workload configuration of Definition 3.5:
// Q = (G, #q, ar, f, e, p_r, t).
type Config struct {
	// Graph is the graph configuration G the workload is coupled to.
	Graph *schema.GraphConfig
	// Count is #q, the number of queries to generate.
	Count int
	// Arity is the allowed range of query arities.
	Arity query.Interval
	// Shapes lists the allowed shapes f; empty means chain only.
	Shapes []query.Shape
	// Classes lists the allowed selectivity classes e; empty disables
	// selectivity control.
	Classes []query.SelectivityClass
	// RecursionProb is p_r, the probability of a Kleene star above a
	// conjunct.
	RecursionProb float64
	// Size is the query size tuple t.
	Size query.Size
	// Seed drives all random choices.
	Seed int64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("querygen: nil graph configuration")
	}
	if err := c.Graph.Validate(); err != nil {
		return err
	}
	if c.Count < 0 {
		return fmt.Errorf("querygen: negative query count %d", c.Count)
	}
	if err := c.Arity.Validate(); err != nil {
		return fmt.Errorf("querygen: arity: %w", err)
	}
	if c.RecursionProb < 0 || c.RecursionProb > 1 {
		return fmt.Errorf("querygen: recursion probability %g outside [0,1]", c.RecursionProb)
	}
	if err := c.Size.Validate(); err != nil {
		return fmt.Errorf("querygen: size: %w", err)
	}
	if c.Size.Length.Max == 0 {
		return fmt.Errorf("querygen: maximum path length must be >= 1")
	}
	for _, class := range c.Classes {
		if class > query.Quadratic {
			return fmt.Errorf("querygen: unknown selectivity class %v", class)
		}
	}
	return nil
}

// maxRelaxation bounds how far the path-length window is widened when
// the selectivity walk fails (Section 5.2.4's relaxation).
const maxRelaxation = 3

// attemptsPerQuery bounds re-draws of the conjunct/star layout before
// the window is widened.
const attemptsPerQuery = 4

// Generator generates queries for one configuration. After New
// returns, every field except the sequential-API RNG (seq.rng) is
// read-only, so the emission pipeline may share one Generator across
// any number of workers. The stateful convenience method
// GenerateWithClass draws from the shared seq stream and is NOT safe
// for concurrent use; GenerateWith, Emit and EmitWindow are.
type Generator struct {
	cfg Config
	est *selectivity.Estimator
	sg  *selectivity.SchemaGraph
	// paths holds the nb_path tables every path-sampling call reads,
	// built once for the widest relaxation window (which contains every
	// narrower one) instead of once per sampled disjunct.
	paths *selectivity.PathCounts
	// walks holds the G_sel walk-count table of every (ladder window,
	// class) pair, to walks of Size.Conjuncts.Max edges — the longest
	// a class chain draws — so no walk rebuilds one. Built in New and
	// never written after, it is safe for concurrent reads.
	walks map[walkKey]*selectivity.ClassWalks
	// startNodes caches the G_S identity nodes that have at least one
	// outgoing edge (usable walk starts).
	startNodes []int
	// seq backs the sequential one-query-at-a-time API; it owns the
	// Config.Seed RNG stream. The pipeline never touches it.
	seq worker
}

// walkKey names one walk-count table: a length window and a class.
type walkKey struct {
	window query.Interval
	class  query.SelectivityClass
}

// New builds a generator, precomputing the schema graph, the nb_path
// tables of the widest relaxation window, and from them the
// selectivity graph of every relaxation window with its walk-count
// table for each class.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est, err := selectivity.NewEstimator(&cfg.Graph.Schema)
	if err != nil {
		return nil, err
	}
	sg := selectivity.NewSchemaGraph(est)
	g := &Generator{
		cfg:   cfg,
		est:   est,
		sg:    sg,
		walks: make(map[walkKey]*selectivity.ClassWalks),
	}
	for t := 0; t < est.NumTypes(); t++ {
		n := sg.IdentityNode(t)
		if len(sg.Out[n]) > 0 {
			g.startNodes = append(g.startNodes, n)
		}
	}
	if len(g.startNodes) == 0 {
		return nil, fmt.Errorf("querygen: schema admits no edges at all")
	}
	// The relaxation ladder only ever requests the windows
	// lengthWindow(0..maxRelaxation); building their tables here
	// freezes them before any worker can observe them.
	g.paths = sg.PathCounts(g.lengthWindow(maxRelaxation).Max)
	for relax := 0; relax <= maxRelaxation; relax++ {
		w := g.lengthWindow(relax)
		// A class step draws paths of at least one edge: an eps step
		// would leave the walk's type behind (the star draws likewise).
		gs := g.paths.Selectivity(max(w.Min, 1), w.Max)
		for c := query.Constant; c <= query.Quadratic; c++ {
			g.walks[walkKey{w, c}] = gs.ClassWalks(c, cfg.Size.Conjuncts.Max)
		}
	}
	g.seq = worker{g: g, rng: prng.New(cfg.Seed)}
	return g, nil
}

// lengthWindow returns the configured path-length window, widened by
// relax steps on both sides (never below 1 on the low side unless the
// configuration itself allows zero-length paths).
func (g *Generator) lengthWindow(relax int) query.Interval {
	l := g.cfg.Size.Length
	return query.Interval{Min: max(l.Min-relax, min(l.Min, 1)), Max: l.Max + relax}
}

// GenerateWithClass draws one binary chain query whose estimated
// selectivity class is class (Section 5.2.4), from the generator's
// sequential RNG stream. The returned query's Relaxed flag reports
// whether the class constraint had to be dropped. Not safe for
// concurrent use.
func (g *Generator) GenerateWithClass(class query.SelectivityClass) (*query.Query, error) {
	if class > query.Quadratic {
		return nil, fmt.Errorf("querygen: unknown selectivity class %v", class)
	}
	w := &g.seq
	return w.classQuery(class, w.interval(g.cfg.Size.Rules))
}

// worker is one emission context: the shared read-only generator state
// plus a private RNG. An emission worker re-seeds its RNG with each
// queryUnit's sub-seed (emitUnit); the sequential API reuses one
// long-lived worker on the Config.Seed stream.
type worker struct {
	g   *Generator
	rng *rand.Rand
}

// pickShapeFrom draws a shape from the configured list (chain when the
// list is empty).
func pickShapeFrom(rng *rand.Rand, shapes []query.Shape) query.Shape {
	if len(shapes) == 0 {
		return query.Chain
	}
	return shapes[rng.Intn(len(shapes))]
}

func (w *worker) interval(iv query.Interval) int { return drawInterval(w.rng, iv) }

// drawInterval draws a uniform value from a closed interval.
func drawInterval(rng *rand.Rand, iv query.Interval) int {
	if iv.Max <= iv.Min {
		return iv.Min
	}
	return iv.Min + rng.Intn(iv.Max-iv.Min+1)
}

// classQuery draws one binary chain query targeting a selectivity
// class, with the given number of rules.
func (w *worker) classQuery(class query.SelectivityClass, numRules int) (*query.Query, error) {
	q := &query.Query{Shape: query.Chain, HasClass: true, Class: class}
	for r := 0; r < numRules; r++ {
		rule, relax, ok := w.classChainRule(class)
		if !ok {
			// Last resort: drop the selectivity constraint for this
			// rule (the paper always outputs a result).
			rule, _, ok = w.ladder(func(window query.Interval) (query.Rule, bool) { return w.plainRule(query.Chain, window) })
			if !ok {
				return nil, fmt.Errorf("querygen: could not instantiate chain rule under schema")
			}
			rule.Head = []query.Var{rule.Body[0].Src, rule.Body[len(rule.Body)-1].Dst}
			q.HasClass, q.Relaxed = false, true
		}
		q.Relaxed = q.Relaxed || relax > 0
		q.Rules = append(q.Rules, rule)
	}
	// All rules of a query share one arity; the class machinery fixes
	// it at 2 (binary endpoints).
	return q, q.Validate()
}

// ladder runs the relaxation ladder (Section 5.2.4): up to
// attemptsPerQuery draws of build in each window lengthWindow(0),
// lengthWindow(1), ..., lengthWindow(maxRelaxation). It returns the
// first rule built and the ladder step (relax) that built it.
func (w *worker) ladder(build func(window query.Interval) (query.Rule, bool)) (query.Rule, int, bool) {
	for attempt := 0; attempt < attemptsPerQuery*(maxRelaxation+1); attempt++ {
		relax := attempt / attemptsPerQuery
		if rule, ok := build(w.g.lengthWindow(relax)); ok {
			return rule, relax, true
		}
	}
	return query.Rule{}, 0, false
}

// classChainRule draws one chain rule targeting a selectivity class
// through the relaxation ladder: a star layout, then a G_sel walk of
// the class over the unstarred conjuncts (all conjuncts, unstarred, if
// that fails), then the walk's instantiation.
func (w *worker) classChainRule(class query.SelectivityClass) (query.Rule, int, bool) {
	g := w.g
	return w.ladder(func(window query.Interval) (query.Rule, bool) {
		walks := g.walks[walkKey{window, class}]
		numConjuncts := w.interval(g.cfg.Size.Conjuncts)
		starred := make([]bool, numConjuncts)
		walkSteps := 0
		for i := range starred {
			if w.rng.Float64() < g.cfg.RecursionProb {
				starred[i] = true
			} else {
				walkSteps++
			}
		}
		walk, ok := walks.Walk(w.rng, walkSteps)
		if !ok && walkSteps != numConjuncts {
			if walk, ok = walks.Walk(w.rng, numConjuncts); ok {
				clear(starred)
			}
		}
		if !ok {
			return query.Rule{}, false
		}
		// A class step draws paths of at least one edge, like G_sel.
		window.Min = max(window.Min, 1)
		return w.instantiateChain(walk, starred, window)
	})
}

// instantiateChain converts a G_sel walk plus a star layout into a
// chain rule with head (x0, xk). Every disjunct of a walk step
// connects the exact G_S walk nodes, preserving the selectivity
// triple.
func (w *worker) instantiateChain(walk []int, starred []bool, window query.Interval) (query.Rule, bool) {
	var body []query.Conjunct
	for i, star := range starred {
		var expr regpath.Expr
		var ok bool
		if star {
			expr, ok = w.starExpr(walk[0], window)
		} else {
			a, b := walk[0], walk[1]
			expr, ok = w.disjunction(func(int) (regpath.Path, bool) {
				return w.g.paths.SampleToNode(w.rng, a, b, window.Min, window.Max)
			})
			walk = walk[1:]
		}
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: expr})
	}
	if len(body) == 0 {
		return query.Rule{}, false
	}
	return query.Rule{Head: []query.Var{0, query.Var(len(body))}, Body: body}, true
}

// disjunction instantiates one placeholder (Fig. 6, line 4): it draws
// the disjunct count from Size.Disjuncts, then that many label paths,
// sample(d) drawing the d-th, and returns them as one disjunction
// without duplicates. It stops at the first failed draw, and fails
// only when the first one fails.
func (w *worker) disjunction(sample func(d int) (regpath.Path, bool)) (regpath.Expr, bool) {
	n := w.interval(w.g.cfg.Size.Disjuncts)
	var paths []regpath.Path
	for d := 0; d < n; d++ {
		p, ok := sample(d)
		if !ok {
			break
		}
		if !slices.ContainsFunc(paths, p.Equal) {
			paths = append(paths, p)
		}
	}
	return regpath.Expr{Paths: paths}, len(paths) > 0
}

// starExpr instantiates a recursive conjunct at G_S node a: the inner
// expression loops back to the node's type, and the whole disjunction
// is starred. Starred conjuncts inherit their neighbors' types with
// the '=' selectivity operation (Section 5.2.4).
func (w *worker) starExpr(a int, window query.Interval) (regpath.Expr, bool) {
	sg := w.g.sg
	t := sg.Nodes[a].Type
	lmin := max(window.Min, 1) // an eps disjunct under a star is pointless
	expr, ok := w.disjunction(func(int) (regpath.Path, bool) {
		p, _, ok := w.g.paths.SampleToType(w.rng, sg.IdentityNode(t), t, lmin, window.Max)
		return p, ok
	})
	expr.Star = true
	return expr, ok
}
