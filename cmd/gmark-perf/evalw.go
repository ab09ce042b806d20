package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"gmark/internal/engines"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/usecases"
)

// querySeed fixes the query mix of the evaluation workloads. The run's
// -seed drives the graph instances; the queries are part of the
// workload's definition, like the schemas, because the cost of sixty
// random UCRPQs varies several-fold from one draw to the next and would
// drown any change to the evaluator (see README, "What the seed moves").
const querySeed = 2

// Tuple budgets, so a failure repeats exactly; the timeout is only a
// safety net. Sizes are chosen so that no query reaches either.
var (
	referenceBudget = eval.Budget{MaxPairs: 10_000_000, Timeout: 60 * time.Second}
	engineBudget    = eval.Budget{MaxPairs: 2_000_000, Timeout: 60 * time.Second}
)

// labeledQuery is one query of the sixty-query recipe with the workload
// kind and selectivity class it was drawn for.
type labeledQuery struct {
	kind  string
	class query.SelectivityClass
	q     *query.Query
}

func (l labeledQuery) label() string { return l.kind + "." + l.class.String() }

// recipe draws the paper's Section 6.2 protocol for one instance: for
// each workload kind (len, dis, con, rec), perClass queries of each
// selectivity class.
func recipe(in instance, perClass int) ([]labeledQuery, error) {
	var out []labeledQuery
	for _, kind := range usecases.WorkloadKinds {
		cfg, err := usecases.Workload(kind, in.cfg, querySeed)
		if err != nil {
			return nil, err
		}
		gen, err := querygen.New(cfg)
		if err != nil {
			return nil, err
		}
		for _, class := range allClasses {
			for i := 0; i < perClass; i++ {
				q, err := gen.GenerateWithClass(class)
				if err != nil {
					return nil, err
				}
				out = append(out, labeledQuery{kind, class, q})
			}
		}
	}
	return out, nil
}

// generate materializes an instance as a frozen in-memory graph.
func generate(in instance, seed int64, par int) (*graph.Graph, error) {
	return graphgen.Generate(in.cfg, graphgen.Options{Seed: seed, Parallelism: par})
}

// queriesPerClass makes the recipe sixty queries: 4 kinds x 3 classes x 5.
const queriesPerClass = 5

// evalSet is one instance with its queries and their reference counts.
type evalSet struct {
	in      instance
	g       *graph.Graph
	queries []labeledQuery
	ref     []int64
}

// newEvalSet generates the instance and its recipe and counts every
// query sequentially in memory: the reference for every other
// evaluator, worker count and storage tier. It returns the time the
// sequential counts took.
func newEvalSet(e *env, usecase string, nodes int, seed int64) (*evalSet, float64, error) {
	in, err := newInstance(usecase, e.size(nodes, 300))
	if err != nil {
		return nil, 0, err
	}
	s := &evalSet{in: in}
	if s.g, err = generate(in, seed, e.w); err != nil {
		return nil, 0, err
	}
	if s.queries, err = recipe(in, queriesPerClass); err != nil {
		return nil, 0, err
	}
	s.ref = make([]int64, len(s.queries))
	seqS, err := seconds(func() error {
		for i, lq := range s.queries {
			if s.ref[i], err = eval.CountWith(s.g, lq.q, referenceBudget, eval.EvalOptions{Workers: 1}); err != nil {
				return fmt.Errorf("reference count of %s query %d (%s): %w", in, i, lq.label(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var sum int64
	for _, c := range s.ref {
		sum += c
	}
	e.check(fmt.Sprintf("eval.count-sum.%s.seed%d", in, seed), fmt.Sprint(sum))
	return s, seqS, nil
}

// ---- eval-mem ----

// evalMem is evaluation with no storage layer: the reference evaluator
// over two in-memory instances. The traced run adds the four engines.
type evalMem struct {
	spec evalSpec
	sets []*evalSet
	seqS float64 // the sequential reference counts of sets, from set-up
}

// evalSpec asks for copies independent instances of one configuration,
// seeded one after another from the run's seed: the recipe's cost on
// one small instance swings with the hubs that instance happened to
// draw, and a few instances even that out.
type evalSpec struct {
	usecase string
	nodes   int
	copies  int
}

// seedOf is the graph seed of a spec's c-th copy.
func (s evalSpec) seedOf(seed int64, c int) int64 { return seed*int64(s.copies) + int64(c) }

func (m *evalMem) setup(e *env) error {
	m.sets, m.seqS = nil, 0
	for c := 0; c < m.spec.copies; c++ {
		set, seqS, err := newEvalSet(e, m.spec.usecase, m.spec.nodes, m.spec.seedOf(e.seed, c))
		if err != nil {
			return err
		}
		m.sets = append(m.sets, set)
		m.seqS += seqS
	}
	return nil
}

func (m *evalMem) pass(e *env, root int) (int64, error) {
	var n int64
	for _, set := range m.sets {
		for i, lq := range set.queries {
			sp := e.tr.begin("eval.CountWith."+lq.label(), root)
			got, err := eval.CountWith(set.g, lq.q, referenceBudget, eval.EvalOptions{Workers: e.w})
			e.tr.end(sp)
			e.attempt(1)
			if err != nil || got != set.ref[i] {
				e.failf("eval-mem %s query %d (%s): parallel count %d (%v), sequential %d", set.in, i, lq.label(), got, err, set.ref[i])
			}
			n++
		}
	}
	return n, nil
}

func (m *evalMem) probes(e *env) error {
	e.set("eval.count_seq_s", m.seqS)
	e.set("eval.neighbors_ns.mem", neighborsNS(m.sets[0].g, m.sets[0].g, e.seed))
	return m.probeEngines(e)
}

// probeEngines runs the recipe through P, S, G and D on a small
// instance, twice, and keeps each engine's faster pass. An engine that
// runs out of tuple budget is an outcome the paper reports too (Table
// 4), so it is counted per engine, not as a failed operation; a count
// that differs from the reference evaluator's is a failure. G is
// compared only where openCypher can express the query.
func (m *evalMem) probeEngines(e *env) error {
	set, _, err := newEvalSet(e, "bib", 1_000, e.seed)
	if err != nil {
		return err
	}
	graphDB := engines.NewGraphDB()
	var wall float64
	for _, eng := range engines.All() {
		budgetFails := 0
		s, err := bestOf(2, func() error {
			budgetFails = 0
			for i, lq := range set.queries {
				sp := e.tr.begin("probe.engines."+eng.Name(), noSpan)
				got, err := engines.EvaluateOpt(eng, set.g, lq.q, engineBudget, eval.EvalOptions{Workers: e.w})
				e.tr.end(sp)
				e.attempt(1)
				switch {
				case errors.Is(err, eval.ErrBudget):
					budgetFails++
				case err != nil:
					return fmt.Errorf("engine %s query %d: %w", eng.Name(), i, err)
				case eng.Name() == graphDB.Name() && graphDB.RewritesRecursion(lq.q):
					// openCypher cannot express this star; not comparable.
				case got != set.ref[i]:
					e.failf("engine %s query %d (%s): count %d, reference %d", eng.Name(), i, lq.label(), got, set.ref[i])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.set("engines."+eng.Name()+"_s", s)
		e.set("engines."+eng.Name()+"_fail", float64(budgetFails))
		wall += s
	}
	e.set("engines.wall_s", wall)
	return nil
}

func (m *evalMem) collect(e *env) {
	collectCountSpans(e, "eval.CountWith.")
	if par := median(e.tr.passSeconds("eval.CountWith.")); par > 0 {
		e.set("eval.par_speedup", m.seqS/par)
	}
}

// collectCountSpans groups the per-query spans "<prefix><kind>.<class>"
// of the timed passes by kind and by class — median over passes of the
// seconds spent inside the evaluator for that group — and reports the
// per-query latency percentiles.
func collectCountSpans(e *env, prefix string) {
	groups := map[string]map[int]float64{} // group -> pass -> seconds
	var ms []float64
	for _, s := range e.tr.timed(prefix) {
		d := float64(s.End - s.Start)
		ms = append(ms, d/1e6)
		kind, class, _ := strings.Cut(strings.TrimPrefix(s.Name, prefix), ".")
		for _, group := range []string{kind, class} {
			if groups[group] == nil {
				groups[group] = map[int]float64{}
			}
			groups[group][s.Pass] += d / 1e9
		}
	}
	for group, byPass := range groups {
		perPass := make([]float64, 0, len(byPass))
		for _, v := range byPass {
			perPass = append(perPass, v)
		}
		e.set("eval.count_s."+group, median(perPass))
	}
	e.set("eval.query_p50_ms", median(ms))
	hi, _ := highPercentile(ms)
	e.set("eval.query_p99_ms", hi)
}

// neighborsNS times seeded Neighbors probes straight on a Source — never
// wrapped, so the source's optional interfaces stay what they are — and
// returns nanoseconds per probe. shape supplies the predicate count.
func neighborsNS(src eval.Source, shape *graph.Graph, seed int64) float64 {
	const probes = 1_000_000
	rng := rand.New(rand.NewSource(seed))
	nodes, preds := int32(src.NumNodes()), int32(shape.NumPredicates())
	vs := make([]int32, probes)
	ps := make([]int32, probes)
	for i := range vs {
		vs[i], ps[i] = rng.Int31n(nodes), rng.Int31n(preds)
	}
	release := eval.AcquireSourceReader(src)
	defer release()
	s, _ := bestOf(2, func() error {
		for i := range vs {
			src.Neighbors(vs[i], ps[i], i&1 == 1)
		}
		return nil
	})
	return s * 1e9 / probes
}

// ---- eval-spill ----

// spilledSet is an evalSet with its varint CSR spill on disk.
type spilledSet struct {
	*evalSet
	dir        string
	shardNodes int
}

// evalSpill is the same evaluator and recipe over CSR spills, each
// opened fresh every pass with the default cache, which fits: what
// `gmark -eval-spill` does per invocation.
type evalSpill struct {
	spec evalSpec
	sets []spilledSet
	memS float64 // the recipes counted in memory with W workers, from set-up
}

// spillRanges is the number of node ranges a spill is cut in: few, for
// gen-store's reason (see storeRanges). With sixteen, a set-up created
// 724 files and took 0.31 s after a pause but 0.55 s right behind
// another run, whose deletions the disk was still digesting.
const spillRanges = 4

func (s *evalSpill) setup(e *env) error {
	for _, old := range s.sets {
		e.afterClock(func() { os.RemoveAll(old.dir) })
	}
	s.sets, s.memS = nil, 0
	for c := 0; c < s.spec.copies; c++ {
		set, _, err := newEvalSet(e, s.spec.usecase, s.spec.nodes, s.spec.seedOf(e.seed, c))
		if err != nil {
			return err
		}
		sp := spilledSet{evalSet: set, shardNodes: (set.in.nodes + spillRanges - 1) / spillRanges}
		if sp.dir, err = e.mkdir("spill-"); err != nil {
			return err
		}
		if err := graphgen.WriteCSRSpillFromGraphWith(sp.dir, set.g, sp.shardNodes, graphgen.SpillCompressVarint); err != nil {
			return err
		}
		memS, err := seconds(func() error {
			for i, lq := range set.queries {
				got, err := eval.CountWith(set.g, lq.q, referenceBudget, eval.EvalOptions{Workers: e.w})
				if err != nil || got != set.ref[i] {
					return fmt.Errorf("in-memory count of query %d: %d (%v), reference %d", i, got, err, set.ref[i])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.memS += memS
		s.sets = append(s.sets, sp)
	}
	return nil
}

// countAll counts a set's recipe over src with the given worker count,
// verifying every count against the in-memory reference.
func (s *evalSpill) countAll(e *env, set spilledSet, src *eval.SpillSource, workers, parent int) int64 {
	for i, lq := range set.queries {
		sp := e.tr.begin("eval.CountOverSpillWith."+lq.label(), parent)
		got, err := eval.CountOverSpillWith(src, lq.q, referenceBudget, eval.EvalOptions{Workers: workers})
		e.tr.end(sp)
		e.attempt(1)
		if err != nil || got != set.ref[i] {
			e.failf("eval-spill %s query %d (%s): spill count %d (%v), in-memory %d", set.in, i, lq.label(), got, err, set.ref[i])
		}
	}
	return int64(len(set.queries))
}

func (s *evalSpill) pass(e *env, root int) (int64, error) {
	var n int64
	for _, set := range s.sets {
		sp := e.tr.begin("eval.OpenSpillSource", root)
		src, err := eval.OpenSpillSource(set.dir, 0)
		e.tr.end(sp)
		if err != nil {
			return 0, err
		}
		n += s.countAll(e, set, src, e.w, root)
	}
	return n, nil
}

func (s *evalSpill) probes(e *env) error {
	// A kept varint source: second-pass cost, probe cost, and — after a
	// sequential pass, so that loads repeat exactly — the cache counters.
	set := s.sets[0]
	src, err := eval.OpenSpillSource(set.dir, 0)
	if err != nil {
		return err
	}
	s.countAll(e, set, src, 1, noSpan)
	st := src.CacheStats()
	e.set("eval.cache_hits", float64(st.Hits))
	e.set("eval.cache_loads", float64(st.Loads))
	e.set("eval.cache_dedup_hits", float64(st.DedupHits))
	e.set("eval.cache_evictions", float64(st.Evictions))
	e.set("eval.disk_mb_loaded", float64(st.DiskBytesLoaded)/(1<<20))
	e.set("eval.cache_peak_mb", float64(st.PeakBytes)/(1<<20))
	warm, _ := seconds(func() error { s.countAll(e, set, src, e.w, noSpan); return nil })
	e.set("eval.spill_warm_s.varint", warm)
	e.set("eval.neighbors_ns.spill", neighborsNS(src, set.g, e.seed))

	// The raw layout served in place.
	raw, err := e.mkdir("spill-raw-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(raw)
	if err := graphgen.WriteCSRSpillFromGraphWith(raw, set.g, set.shardNodes, graphgen.SpillCompressRaw); err != nil {
		return err
	}
	mm, err := eval.OpenSpillSourceWith(raw, eval.SpillSourceOptions{Mmap: true})
	if err != nil {
		return err
	}
	s.countAll(e, set, mm, e.w, noSpan)
	warm, _ = seconds(func() error { s.countAll(e, set, mm, e.w, noSpan); return nil })
	e.set("eval.spill_warm_s.mmap", warm)
	e.set("eval.neighbors_ns.mmap", neighborsNS(mm, set.g, e.seed))
	e.set("eval.mapped_mb", float64(mm.CacheStats().MappedBytes)/(1<<20))
	mm.Cache().Purge()

	return s.probeTightCache(e, set)
}

// probeTightCache counts one-hop paths, sequentially, through a cache
// of a quarter of the decoded instance: how many times each shard is
// loaded when residency does not fit. The instance is kept to a few
// dozen shards; README lists what happens beyond that regime.
func (s *evalSpill) probeTightCache(e *env, set spilledSet) error {
	sp, err := graphgen.OpenCSRSpill(set.dir)
	if err != nil {
		return err
	}
	var decoded int64
	shards := 0
	for _, p := range sp.Manifest.Predicates {
		for _, list := range [][]graphgen.CSRShard{p.Fwd, p.Bwd} {
			for _, sh := range list {
				decoded += 4 * int64(sh.Hi-sh.Lo+1+sh.Edges)
				if sh.Edges > 0 {
					shards++ // an empty shard is pruned by its domain bitmap, never loaded
				}
			}
		}
	}
	src := eval.NewSpillSource(sp, decoded/4)
	for _, p := range sp.Manifest.Predicates {
		q := &query.Query{Rules: []query.Rule{{
			Head: []query.Var{0, 1},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(p.Name + "." + p.Name + "-")}},
		}}}
		want, err := eval.CountWith(set.g, q, referenceBudget, eval.EvalOptions{Workers: 1})
		if err != nil {
			return err
		}
		got, err := eval.CountOverSpillWith(src, q, referenceBudget, eval.EvalOptions{Workers: 1})
		e.attempt(1)
		if err != nil || got != want {
			e.failf("eval-spill tight cache %s: spill count %d (%v), in-memory %d", p.Name, got, err, want)
		}
	}
	e.set("eval.tight_loads_per_shard", float64(src.CacheStats().Loads)/float64(shards))
	return nil
}

func (s *evalSpill) collect(e *env) {
	collectCountSpans(e, "eval.CountOverSpillWith.")
	e.set("eval.open_spill_s", median(e.tr.passSeconds("eval.OpenSpillSource")))
	if s.memS > 0 {
		e.set("eval.spill_over_mem", median(e.tr.passSeconds("pass"))/s.memS)
	}
}
