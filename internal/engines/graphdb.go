package engines

import (
	"sync/atomic"

	"gmark/internal/bitset"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/query"
)

// GraphDB models system G: a native graph database queried in
// openCypher. Patterns are matched by pointer-chasing traversal,
// enumerating bindings path-at-a-time (duplicates are only removed by
// the final RETURN DISTINCT), which is traversal-friendly but
// generates redundant work on high-fanout joins. Star patterns obey
// the openCypher restriction of Section 7.1: only the first
// non-inverse symbol of the first disjunct survives under the star, so
// recursive answers generally differ from the other engines (the
// paper's G "always returned empty results" on its recursive
// workload). Use RewritesRecursion to detect and annotate this.
type GraphDB struct{}

// NewGraphDB returns the G engine.
func NewGraphDB() *GraphDB { return &GraphDB{} }

// Name implements Engine.
func (*GraphDB) Name() string { return "G" }

// Describe implements Engine.
func (*GraphDB) Describe() string {
	return "native graph database: traversal matching, openCypher star restriction"
}

// RewritesRecursion reports whether evaluating q on this engine
// changes its semantics: any starred conjunct whose expression is not
// a single forward symbol is rewritten per the openCypher restriction,
// so counts are not comparable with the other engines.
func (*GraphDB) RewritesRecursion(q *query.Query) bool {
	for _, r := range q.Rules {
		for _, c := range r.Body {
			if !c.Expr.Star {
				continue
			}
			if len(c.Expr.Paths) != 1 || len(c.Expr.Paths[0]) != 1 || c.Expr.Paths[0][0].Inverse {
				return true
			}
		}
	}
	return false
}

// evaluate implements Engine: the unbound start-node scan
// of each rule's first conjunct is sharded over eval.SourceRanges and
// the per-worker tuple sets merge, so the count equals the sequential
// one (traverseStar allocates its visited set per call, so concurrent
// traversals never share mutable state).
func (e *GraphDB) evaluate(g eval.Source, c *compiled, b eval.Budget, workers int) (int64, error) {
	m := eval.NewMeter(b, "more than %d traversal steps")
	out := newTupleSet(c.arity)
	for ri := range c.rules {
		r := &c.rules[ri]
		err := runRanges(g, workers, c.arity, out, func(ws eval.Source, rg eval.NodeRange, local *tupleSet, stop *atomic.Bool) error {
			return e.evalRuleRange(ws, r, m, local, rg, stop)
		})
		if err != nil {
			return 0, err
		}
	}
	return out.count(), nil
}

// evalRuleRange evaluates one rule with the start nodes of the first
// planned conjunct restricted to [rg.Lo, rg.Hi); unbound scans at
// deeper steps (disconnected rule bodies) still cover every node, so
// the union over ranges reproduces the unrestricted evaluation.
func (e *GraphDB) evalRuleRange(g eval.Source, r *compiledRule, m *eval.Meter, out *tupleSet, rg eval.NodeRange, stop *atomic.Bool) error {
	binding := make(map[query.Var]int32)
	tuple := make([]int32, len(r.head))
	emit := func() {
		for i, v := range r.head {
			tuple[i] = binding[v]
		}
		out.add(tuple)
	}
	order := planOrder(r)

	var solve func(step int) error
	solve = func(step int) error {
		if step == len(order) {
			emit()
			return nil
		}
		cj := &r.body[order[step]]
		src, srcBound := binding[cj.src]
		dst, dstBound := binding[cj.dst]

		// Continuation invoked for every endpoint the traversal
		// reaches.
		visit := func(end int32, boundVar query.Var, needEqual bool, equalTo int32) error {
			if needEqual {
				if end != equalTo {
					return nil
				}
				return solve(step + 1)
			}
			binding[boundVar] = end
			err := solve(step + 1)
			delete(binding, boundVar)
			return err
		}

		traverse := func(from int32, forward bool, boundVar query.Var, needEqual bool, equalTo int32) error {
			if cj.star {
				return e.traverseStar(g, cj, from, forward, m, func(end int32) error {
					return visit(end, boundVar, needEqual, equalTo)
				})
			}
			return e.traversePaths(g, cj.paths, from, forward, m, func(end int32) error {
				return visit(end, boundVar, needEqual, equalTo)
			})
		}

		switch {
		case srcBound && dstBound:
			return traverse(src, true, 0, true, dst)
		case srcBound:
			if cj.src == cj.dst {
				return traverse(src, true, 0, true, src)
			}
			return traverse(src, true, cj.dst, false, 0)
		case dstBound:
			return traverse(dst, false, cj.src, false, 0)
		default:
			// Only the rule's first scan is range-restricted; a deeper
			// unbound scan (disconnected body) must stay global.
			lo, hi := int32(0), int32(g.NumNodes())
			if step == 0 {
				lo, hi = rg.Lo, rg.Hi
			}
			for v := lo; v < hi; v++ {
				if step == 0 && stop.Load() {
					return nil
				}
				if err := m.ChargeTick(1); err != nil {
					return err
				}
				binding[cj.src] = v
				var err error
				if cj.src == cj.dst {
					err = traverse(v, true, 0, true, v)
				} else {
					err = traverse(v, true, cj.dst, false, 0)
				}
				if err != nil {
					return err
				}
			}
			delete(binding, cj.src)
			return nil
		}
	}
	return solve(0)
}

// traversePaths enumerates, path-at-a-time and without set
// deduplication, every endpoint reachable from `from` along any
// disjunct (duplicates trigger redundant downstream work — the
// traversal engine's cost profile).
func (e *GraphDB) traversePaths(g eval.Source, paths [][]csym, from int32, forward bool, m *eval.Meter, visit func(int32) error) error {
	for _, p := range paths {
		syms := p
		if !forward {
			syms = reversePath(p)
		}
		var dfs func(v int32, i int) error
		dfs = func(v int32, i int) error {
			if i == len(syms) {
				return visit(v)
			}
			s := syms[i]
			for _, w := range g.Neighbors(v, s.pred, s.inv) {
				if err := m.ChargeTick(1); err != nil {
					return err
				}
				if err := dfs(w, i+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := dfs(from, 0); err != nil {
			return err
		}
	}
	return nil
}

// traverseStar evaluates a variable-length pattern under the
// openCypher restriction: only one label survives
// (restrictedStarLabel); the traversal is a BFS over that single label
// (Cypher's *0.. semantics).
func (e *GraphDB) traverseStar(g eval.Source, cj *compiledConjunct, from int32, forward bool, m *eval.Meter, visit func(int32) error) error {
	label, ok := restrictedStarLabel(cj)
	if !ok {
		// Nothing usable under the star: Cypher matches only the
		// zero-length path.
		return visit(from)
	}
	seen := bitset.New(g.NumNodes())
	seen.Add(from)
	frontier := []int32{from}
	if err := visit(from); err != nil {
		return err
	}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for _, w := range g.Neighbors(v, label, !forward) {
				if err := m.ChargeTick(1); err != nil {
					return err
				}
				if seen.TryAdd(w) {
					next = append(next, w)
					if err := visit(w); err != nil {
						return err
					}
				}
			}
		}
		frontier = next
	}
	return nil
}

// restrictedStarLabel picks the surviving label per Section 7.1: the
// first non-inverse symbol, scanning every disjunct in order, else the
// first symbol's predicate taken forward — the label translate's
// openCypher text keeps.
func restrictedStarLabel(cj *compiledConjunct) (graph.PredID, bool) {
	for _, p := range cj.paths {
		for _, s := range p {
			if !s.inv {
				return s.pred, true
			}
		}
	}
	for _, p := range cj.paths {
		if len(p) > 0 {
			return p[0].pred, true
		}
	}
	return 0, false
}
