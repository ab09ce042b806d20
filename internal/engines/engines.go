// Package engines provides in-process stand-ins for the four query
// processing systems of the paper's Section 7: P (PostgreSQL-style
// relational engine), S (a SPARQL triple store), G (a native graph
// database speaking openCypher) and D (a Datalog engine).
//
// The paper obfuscates three of the four commercial systems; none of
// them can be embedded in an offline Go module. Each engine here
// therefore models the *architecture* the paper attributes to its
// system — the join and recursion strategies that produce the paper's
// relative behavior — rather than wrapping the original binaries:
//
//   - P materializes every intermediate relation with hash joins and
//     evaluates Kleene stars by iterating a materialized closure, so it
//     is strong on constant/linear non-recursive workloads and
//     collapses on large closures (Table 4's failure at 8K nodes).
//   - S evaluates conjuncts per source binding with index nested
//     loops, never materializing binary relations, which wins on
//     quadratic workloads (Fig. 12c); its property-path recursion
//     naively rematerializes the closure and fails beyond small sizes.
//   - G matches patterns by graph traversal, enumerating bindings
//     path-by-path, and implements the openCypher restriction of
//     Section 7.1 — under a star only the first non-inverse symbol
//     survives — so its recursive answers differ from every other
//     engine (the paper observed empty results).
//   - D evaluates bottom-up with semi-naive iteration and set-valued
//     rows: the only engine that completes every recursive query
//     (Table 4), at the price of blurring the constant/linear gap on
//     non-recursive workloads.
//
// All engines implement the same Engine interface and run through
// EvaluateOpt on any eval.Source — the frozen in-memory graph.Graph or
// a spill-backed eval.SpillSource, so the Section 7 comparison runs at
// beyond-memory scale too. Each meters its eval.Budget with an
// eval.Meter and reports a violation as eval.ErrBudget, the analogue
// of the paper's "manually terminated after unexpectedly long running
// times".
package engines

import (
	"fmt"
	"sync/atomic"

	"gmark/internal/bitset"
	"gmark/internal/eval"
	"gmark/internal/fanout"
	"gmark/internal/graph"
	"gmark/internal/query"
)

// Engine is one simulated query processing system. EvaluateOpt runs
// one.
type Engine interface {
	// Name returns the paper's one-letter system name (P, S, G, D).
	Name() string
	// Describe returns a one-line architectural description.
	Describe() string
	// evaluate counts the distinct result tuples of c over g. workers
	// (EvalOptions.Workers resolved by fanout.Workers) is the number
	// of range workers S and G shard their top-level source scan over;
	// P and D, whose cost lives in whole-relation materialization and
	// fixpoints rather than a per-source outer loop, ignore it.
	evaluate(g eval.Source, c *compiled, b eval.Budget, workers int) (int64, error)
}

// EvaluateOpt runs the engine over any evaluation source — in-memory
// graph or CSR spill — and returns the number of distinct result
// tuples, equal at any opt.Workers. Budget violations return
// eval.ErrBudget, and a source's sticky lookup failure (eval.SourceErr)
// fails the evaluation. It holds the source's reader bracket
// (eval.AcquireSourceReader) throughout, so adjacency slices into
// mapped shards stay valid under eviction.
func EvaluateOpt(eng Engine, g eval.Source, q *query.Query, b eval.Budget, opt eval.EvalOptions) (int64, error) {
	defer eval.AcquireSourceReader(g)()
	c, err := compile(g, q)
	if err != nil {
		return 0, err
	}
	n, err := eng.evaluate(g, c, b, fanout.Workers(opt.Workers))
	if err == nil {
		err = eval.SourceErr(g)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// runRanges executes one rule's top-level source scan: over the full
// node space when workers <= 1, otherwise sharded over
// eval.SourceRanges and claimed in order by up to workers goroutines
// (fanout.Each), each collecting into a private tupleSet that merges
// into out afterwards (the first worker's is out itself). scan must
// treat [rg.Lo, rg.Hi) as the candidate sources of the rule's first
// conjunct only; a raised stop flag means another worker failed and
// remaining work is discarded. scan reads adjacency through the ws it
// is handed — the calling goroutine's own eval.WorkerSource of g —
// never through g.
func runRanges(g eval.Source, workers, arity int, out *tupleSet, scan func(ws eval.Source, rg eval.NodeRange, local *tupleSet, stop *atomic.Bool) error) error {
	ranges := []eval.NodeRange{{Lo: 0, Hi: int32(g.NumNodes())}}
	if workers > 1 {
		ranges = eval.SourceRanges(g, workers)
	}
	locals := make([]*tupleSet, max(1, min(workers, len(ranges))))
	views := make([]eval.Source, len(locals))
	for w := range locals {
		locals[w] = out
		if w > 0 {
			locals[w] = newTupleSet(arity)
		}
		var release func()
		views[w], release = eval.WorkerSource(g)
		defer release()
	}
	err := fanout.Each(len(ranges), len(locals), func(w, i int, stop *atomic.Bool) error {
		return scan(views[w], ranges[i], locals[w], stop)
	})
	if err != nil {
		return err
	}
	for _, l := range locals[1:] {
		out.merge(l)
	}
	return nil
}

// All returns the four engines in the paper's P, G, S, D order.
func All() []Engine {
	return []Engine{NewPostgres(), NewGraphDB(), NewTripleStore(), NewDatalog()}
}

// ByName returns the engine with the given one-letter name.
func ByName(name string) (Engine, error) {
	for _, e := range All() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("engines: unknown engine %q (have P, G, S, D)", name)
}

// compiled is the shared compiled form of a UCRPQ: resolved predicate
// ids per conjunct.
type compiled struct {
	arity int
	rules []compiledRule
}

type compiledRule struct {
	head []query.Var
	body []compiledConjunct
	vars []query.Var // distinct variables in first-use order
}

type compiledConjunct struct {
	src, dst query.Var
	paths    [][]csym
	star     bool
}

type csym struct {
	pred graph.PredID
	inv  bool
}

func compile(g eval.Source, q *query.Query) (*compiled, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{arity: q.Arity()}
	for _, r := range q.Rules {
		cr := compiledRule{head: r.Head}
		seen := map[query.Var]bool{}
		for _, cj := range r.Body {
			cc := compiledConjunct{src: cj.Src, dst: cj.Dst, star: cj.Expr.Star}
			for _, p := range cj.Expr.Paths {
				cp := make([]csym, len(p))
				for i, s := range p {
					pid := g.PredIndex(s.Pred)
					if pid < 0 {
						return nil, fmt.Errorf("engines: unknown predicate %q", s.Pred)
					}
					cp[i] = csym{pred: pid, inv: s.Inverse}
				}
				cc.paths = append(cc.paths, cp)
			}
			cr.body = append(cr.body, cc)
			for _, v := range []query.Var{cj.Src, cj.Dst} {
				if !seen[v] {
					seen[v] = true
					cr.vars = append(cr.vars, v)
				}
			}
		}
		c.rules = append(c.rules, cr)
	}
	return c, nil
}

// pairKey packs a node pair into a map key.
func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// starDomain returns the nodes over which a starred conjunct matches
// the zero-length path; all engines share eval.StarDomain's definition
// so recursive counts agree across systems.
func starDomain(g eval.Source, cj *compiledConjunct) *bitset.Set {
	var firsts, lasts []eval.BoundarySym
	for _, p := range cj.paths {
		if len(p) == 0 {
			continue
		}
		firsts = append(firsts, eval.BoundarySym{Pred: p[0].pred, Inv: p[0].inv})
		last := p[len(p)-1]
		lasts = append(lasts, eval.BoundarySym{Pred: last.pred, Inv: last.inv})
	}
	return eval.StarDomain(g, firsts, lasts)
}

// tupleSet collects distinct head tuples across rules.
type tupleSet struct {
	arity int
	m     map[string]struct{}
	pairs map[uint64]struct{}
	some  bool
}

func newTupleSet(arity int) *tupleSet {
	ts := &tupleSet{arity: arity}
	switch arity {
	case 2:
		ts.pairs = make(map[uint64]struct{})
	default:
		ts.m = make(map[string]struct{})
	}
	return ts
}

func (ts *tupleSet) add(t []int32) {
	ts.some = true
	if ts.arity == 2 {
		ts.pairs[pairKey(t[0], t[1])] = struct{}{}
		return
	}
	b := make([]byte, 4*len(t))
	for i, v := range t {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	ts.m[string(b)] = struct{}{}
}

// merge unions another tuple set of the same arity into ts; used to
// combine per-worker results of a range-sharded evaluation (the merge
// order is irrelevant because tuple sets are sets).
func (ts *tupleSet) merge(o *tupleSet) {
	ts.some = ts.some || o.some
	for k := range o.pairs {
		ts.pairs[k] = struct{}{}
	}
	for k := range o.m {
		ts.m[k] = struct{}{}
	}
}

func (ts *tupleSet) count() int64 {
	if ts.arity == 0 {
		if ts.some {
			return 1
		}
		return 0
	}
	if ts.arity == 2 {
		return int64(len(ts.pairs))
	}
	return int64(len(ts.m))
}
