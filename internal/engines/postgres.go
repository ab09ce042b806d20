package engines

import (
	"gmark/internal/eval"
)

// Postgres models system P: a relational engine that materializes
// every intermediate relation, joins with hash joins ordered by input
// size, and evaluates Kleene stars as SQL:1999 linear recursion over a
// materialized working table. It is the strongest system on constant
// and linear non-recursive workloads (Fig. 12a/12b) and collapses on
// large transitive closures (Table 4).
type Postgres struct{}

// NewPostgres returns the P engine.
func NewPostgres() *Postgres { return &Postgres{} }

// Name implements Engine.
func (*Postgres) Name() string { return "P" }

// Describe implements Engine.
func (*Postgres) Describe() string {
	return "relational engine: materialized hash joins, recursive-view closure"
}

type pair struct{ src, dst int32 }

// evaluate implements Engine.
func (e *Postgres) evaluate(g eval.Source, c *compiled, b eval.Budget, _ int) (int64, error) {
	m := eval.NewMeter(b, "materialized more than %d tuples")
	out := newTupleSet(c.arity)
	for ri := range c.rules {
		if err := e.evalRule(g, &c.rules[ri], m, out); err != nil {
			return 0, err
		}
	}
	return out.count(), nil
}

func (e *Postgres) evalRule(g eval.Source, r *compiledRule, m *eval.Meter, out *tupleSet) error {
	rels := make([][]pair, len(r.body))
	for i := range r.body {
		rel, err := e.evalConjunct(g, &r.body[i], m)
		if err != nil {
			return err
		}
		rels[i] = rel
	}
	return joinRelations(r, rels, m, out)
}

// evalConjunct materializes one conjunct relation: the union of its
// disjunct path joins, closed under the star if present.
func (e *Postgres) evalConjunct(g eval.Source, cj *compiledConjunct, m *eval.Meter) ([]pair, error) {
	base, err := e.evalAlternation(g, cj.paths, m)
	if err != nil {
		return nil, err
	}
	if !cj.star {
		return base, nil
	}
	return e.closure(g, cj, base, m)
}

// evalAlternation unions the materialized disjunct relations.
func (e *Postgres) evalAlternation(g eval.Source, paths [][]csym, m *eval.Meter) ([]pair, error) {
	seen := make(map[uint64]struct{})
	var out []pair
	for _, path := range paths {
		rel, err := e.evalPath(g, path, m)
		if err != nil {
			return nil, err
		}
		for _, p := range rel {
			k := pairKey(p.src, p.dst)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, p)
			if err := m.ChargeTick(1); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// evalPath joins the symbol relations of a path left to right.
func (e *Postgres) evalPath(g eval.Source, path []csym, m *eval.Meter) ([]pair, error) {
	if len(path) == 0 {
		out := make([]pair, g.NumNodes())
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			out[v] = pair{v, v}
		}
		return out, m.ChargeTick(int64(len(out)))
	}
	cur, err := e.symbolScan(g, path[0], m)
	if err != nil {
		return nil, err
	}
	for _, s := range path[1:] {
		next, err := e.symbolScan(g, s, m)
		if err != nil {
			return nil, err
		}
		// Hash join cur.dst = next.src, deduplicated.
		h := make(map[int32][]int32)
		for _, p := range next {
			h[p.src] = append(h[p.src], p.dst)
		}
		seen := make(map[uint64]struct{})
		var out []pair
		for _, p := range cur {
			if err := m.Tick(); err != nil {
				return nil, err
			}
			for _, d := range h[p.dst] {
				k := pairKey(p.src, d)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				out = append(out, pair{p.src, d})
				if err := m.ChargeTick(1); err != nil {
					return nil, err
				}
			}
		}
		cur = out
	}
	return cur, nil
}

// symbolScan is a full scan of the edge table filtered on one label.
func (e *Postgres) symbolScan(g eval.Source, s csym, m *eval.Meter) ([]pair, error) {
	out := make([]pair, 0, g.PredEdgeCount(s.pred))
	ws, release := eval.WorkerSource(g)
	defer release()
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for _, w := range ws.Neighbors(v, s.pred, s.inv) {
			out = append(out, pair{v, w})
		}
	}
	return out, m.ChargeTick(int64(len(out)))
}

// closure computes the reflexive-transitive closure of a materialized
// relation via the recursive-view working-table iteration: the entire
// closure is materialized pair by pair, which is exactly what breaks
// P on quadratic closures (Table 4).
func (e *Postgres) closure(g eval.Source, cj *compiledConjunct, base []pair, m *eval.Meter) ([]pair, error) {
	adj := make(map[int32][]int32)
	for _, p := range base {
		adj[p.src] = append(adj[p.src], p.dst)
	}
	seen := make(map[uint64]struct{})
	var all []pair
	add := func(p pair) (bool, error) {
		k := pairKey(p.src, p.dst)
		if _, dup := seen[k]; dup {
			return false, nil
		}
		seen[k] = struct{}{}
		all = append(all, p)
		return true, m.ChargeTick(1)
	}
	// Seed: identity over the star's active domain.
	var delta []pair
	var seedErr error
	starDomain(g, cj).Range(func(v int32) bool {
		p := pair{v, v}
		if _, err := add(p); err != nil {
			seedErr = err
			return false
		}
		delta = append(delta, p)
		return true
	})
	if seedErr != nil {
		return nil, seedErr
	}
	for len(delta) > 0 {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		var next []pair
		for _, p := range delta {
			for _, d := range adj[p.dst] {
				np := pair{p.src, d}
				fresh, err := add(np)
				if err != nil {
					return nil, err
				}
				if fresh {
					next = append(next, np)
				}
			}
		}
		delta = next
	}
	return all, nil
}
