package engines

import (
	"sync/atomic"

	"gmark/internal/eval"
	"gmark/internal/query"
)

// TripleStore models system S: a SPARQL engine over permuted triple
// indexes. Basic graph patterns are evaluated binding-at-a-time with
// index nested-loop joins; property paths compute per-binding
// duplicate-free node sets (SPARQL property-path set semantics), which
// avoids materializing binary relations and makes S the fastest system
// on quadratic non-recursive workloads (Fig. 12c). Recursive paths,
// however, are evaluated by naively rematerializing the closure
// relation, so S fails beyond small instances (Table 4).
type TripleStore struct{}

// NewTripleStore returns the S engine.
func NewTripleStore() *TripleStore { return &TripleStore{} }

// Name implements Engine.
func (*TripleStore) Name() string { return "S" }

// Describe implements Engine.
func (*TripleStore) Describe() string {
	return "triple store: index nested-loop joins, per-binding property paths"
}

// evaluate implements Engine: the unbound subject scan of
// each rule's first conjunct is sharded over eval.SourceRanges and the
// per-worker tuple sets merge, so the count equals the sequential one.
// Starred closures are materialized once per rule, before the workers
// start, and shared read-only.
func (e *TripleStore) evaluate(g eval.Source, c *compiled, b eval.Budget, workers int) (int64, error) {
	m := eval.NewMeter(b, "more than %d bindings")
	out := newTupleSet(c.arity)
	for ri := range c.rules {
		r := &c.rules[ri]
		closures, err := e.ruleClosures(g, r, m)
		if err != nil {
			return 0, err
		}
		err = runRanges(g, workers, c.arity, out, func(ws eval.Source, rg eval.NodeRange, local *tupleSet, stop *atomic.Bool) error {
			return e.evalRuleRange(ws, r, closures, m, local, rg, stop)
		})
		if err != nil {
			return 0, err
		}
	}
	return out.count(), nil
}

// ruleClosures precomputes closures of starred conjuncts (naive
// materialization: the architectural weakness of S on recursion). The
// returned maps are read-only afterwards and safe to share across
// range workers.
func (e *TripleStore) ruleClosures(g eval.Source, r *compiledRule, m *eval.Meter) ([]map[int32][]int32, error) {
	closures := make([]map[int32][]int32, len(r.body))
	for i := range r.body {
		if r.body[i].star {
			cl, err := e.naiveClosure(g, &r.body[i], m)
			if err != nil {
				return nil, err
			}
			closures[i] = cl
		}
	}
	return closures, nil
}

// evalRuleRange evaluates one rule with the subjects of the first
// planned conjunct restricted to [rg.Lo, rg.Hi); unbound scans at
// deeper steps (disconnected rule bodies) still cover every node, so
// the union over ranges reproduces the unrestricted evaluation.
func (e *TripleStore) evalRuleRange(g eval.Source, r *compiledRule, closures []map[int32][]int32, m *eval.Meter, out *tupleSet, rg eval.NodeRange, stop *atomic.Bool) error {
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
		ci := order[step]
		cj := &r.body[ci]
		src, srcBound := binding[cj.src]
		dst, dstBound := binding[cj.dst]

		expand := func(from int32, forward bool) error {
			var targets map[int32]struct{}
			var err error
			if cj.star {
				targets, err = closureImage(closures[ci], from, forward, g)
			} else {
				targets, err = e.pathImage(g, cj.paths, from, forward, m)
			}
			if err != nil {
				return err
			}
			boundVar := cj.Dst()
			if !forward {
				boundVar = cj.Src()
			}
			if cj.src == cj.dst {
				if _, ok := targets[from]; ok {
					return solve(step + 1)
				}
				return nil
			}
			for t := range targets {
				binding[boundVar] = t
				if err := solve(step + 1); err != nil {
					return err
				}
			}
			delete(binding, boundVar)
			return nil
		}

		switch {
		case srcBound && dstBound:
			var targets map[int32]struct{}
			var err error
			if cj.star {
				targets, err = closureImage(closures[ci], src, true, g)
			} else {
				targets, err = e.pathImage(g, cj.paths, src, true, m)
			}
			if err != nil {
				return err
			}
			if _, ok := targets[dst]; ok {
				return solve(step + 1)
			}
			return nil
		case srcBound:
			return expand(src, true)
		case dstBound:
			return expand(dst, false)
		default:
			// No binding yet: scan all subjects (a triple store has no
			// schema-level pruning, so every node is a candidate). Only
			// the rule's first scan is range-restricted; a deeper
			// unbound scan must stay global.
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
				if err := expand(v, true); err != nil {
					return err
				}
			}
			delete(binding, cj.src)
			return nil
		}
	}
	return solve(0)
}

// Src and Dst accessors used by the generic expand helper.
func (c *compiledConjunct) Src() query.Var { return c.src }
func (c *compiledConjunct) Dst() query.Var { return c.dst }

// planOrder orders conjuncts so that each one (after the first) shares
// a variable with an earlier one when possible.
func planOrder(r *compiledRule) []int {
	n := len(r.body)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[query.Var]bool{}
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if bound[r.body[i].src] || bound[r.body[i].dst] {
				best = i
				break
			}
			if best < 0 {
				best = i
			}
		}
		used[best] = true
		order = append(order, best)
		bound[r.body[best].src] = true
		bound[r.body[best].dst] = true
	}
	return order
}

// pathImage computes the duplicate-free image of one node under the
// alternation of paths, forward or backward, with per-binding hash
// sets (the triple-store overhead).
func (e *TripleStore) pathImage(g eval.Source, paths [][]csym, from int32, forward bool, m *eval.Meter) (map[int32]struct{}, error) {
	result := make(map[int32]struct{})
	for _, p := range paths {
		frontier := map[int32]struct{}{from: {}}
		syms := p
		if !forward {
			syms = reversePath(p)
		}
		for _, s := range syms {
			next := make(map[int32]struct{})
			for v := range frontier {
				if err := m.ChargeTick(1); err != nil {
					return nil, err
				}
				for _, w := range g.Neighbors(v, s.pred, s.inv) {
					next[w] = struct{}{}
				}
			}
			frontier = next
			if len(frontier) == 0 {
				break
			}
		}
		for v := range frontier {
			result[v] = struct{}{}
		}
	}
	return result, nil
}

func reversePath(p []csym) []csym {
	r := make([]csym, len(p))
	for i, s := range p {
		r[len(p)-1-i] = csym{pred: s.pred, inv: !s.inv}
	}
	return r
}

// naiveClosure materializes the reflexive-transitive closure of a
// starred conjunct with naive iteration: each round rejoins the whole
// accumulated relation against the one-step relation (no delta), the
// behavior that makes S fail on recursion beyond small graphs.
func (e *TripleStore) naiveClosure(g eval.Source, cj *compiledConjunct, m *eval.Meter) (map[int32][]int32, error) {
	n := int32(g.NumNodes())
	// One-step adjacency via per-source path images.
	step := make(map[int32][]int32)
	ws, release := eval.WorkerSource(g)
	defer release()
	for v := int32(0); v < n; v++ {
		img, err := e.pathImage(ws, cj.paths, v, true, m)
		if err != nil {
			return nil, err
		}
		for w := range img {
			step[v] = append(step[v], w)
		}
	}
	// R := identity over the star's active domain; repeat
	// R := R union (R join step) until fixpoint, rescanning all of R
	// each round.
	closure := make(map[int32][]int32)
	member := make(map[uint64]struct{})
	var seedErr error
	starDomain(g, cj).Range(func(v int32) bool {
		closure[v] = []int32{v}
		member[pairKey(v, v)] = struct{}{}
		if err := m.ChargeTick(1); err != nil {
			seedErr = err
			return false
		}
		return true
	})
	if seedErr != nil {
		return nil, seedErr
	}
	for changed := true; changed; {
		changed = false
		for src, row := range closure {
			if err := m.Tick(); err != nil {
				return nil, err
			}
			for _, mid := range row {
				for _, dst := range step[mid] {
					k := pairKey(src, dst)
					if _, ok := member[k]; ok {
						if err := m.ChargeTick(1); err != nil {
							return nil, err
						}
						continue
					}
					member[k] = struct{}{}
					closure[src] = append(closure[src], dst)
					changed = true
					if err := m.ChargeTick(1); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return closure, nil
}

// closureImage reads one row (or column) of a materialized closure.
func closureImage(cl map[int32][]int32, from int32, forward bool, g eval.Source) (map[int32]struct{}, error) {
	out := make(map[int32]struct{})
	if forward {
		for _, w := range cl[from] {
			out[w] = struct{}{}
		}
		return out, nil
	}
	for src, row := range cl {
		for _, w := range row {
			if w == from {
				out[src] = struct{}{}
				break
			}
		}
	}
	return out, nil
}
