package engines

import (
	"gmark/internal/bitset"
	"gmark/internal/eval"
)

// DatalogEngine models system D: a modern Datalog engine evaluating
// bottom-up with semi-naive iteration over set-valued rows. Its delta
// relations make it the only engine that completes every recursive
// query (Table 4); the price is that it always materializes every IDB
// relation in full, which blurs the constant/linear performance gap on
// non-recursive workloads (Section 7.2).
type DatalogEngine struct{}

// NewDatalog returns the D engine.
func NewDatalog() *DatalogEngine { return &DatalogEngine{} }

// Name implements Engine.
func (*DatalogEngine) Name() string { return "D" }

// Describe implements Engine.
func (*DatalogEngine) Describe() string {
	return "datalog engine: bottom-up semi-naive evaluation with delta relations"
}

// rowRel is a binary relation stored as per-source bitset rows: the
// set-valued representation that keeps semi-naive deltas cheap.
type rowRel struct {
	n    int
	rows map[int32]*bitset.Set
}

func newRowRel(n int) *rowRel { return &rowRel{n: n, rows: make(map[int32]*bitset.Set)} }

func (r *rowRel) row(v int32) *bitset.Set {
	s, ok := r.rows[v]
	if !ok {
		s = bitset.New(r.n)
		r.rows[v] = s
	}
	return s
}

func (r *rowRel) pairs() []pair {
	var out []pair
	for v, row := range r.rows {
		row.Range(func(w int32) bool {
			out = append(out, pair{v, w})
			return true
		})
	}
	return out
}

// evaluate implements Engine.
func (e *DatalogEngine) evaluate(g eval.Source, c *compiled, b eval.Budget, _ int) (int64, error) {
	m := eval.NewMeter(b, "materialized more than %d facts")
	out := newTupleSet(c.arity)
	for ri := range c.rules {
		rels := make([][]pair, len(c.rules[ri].body))
		for i := range c.rules[ri].body {
			rel, err := e.evalConjunct(g, &c.rules[ri].body[i], m)
			if err != nil {
				return 0, err
			}
			rels[i] = rel.pairs()
		}
		if err := joinRelations(&c.rules[ri], rels, m, out); err != nil {
			return 0, err
		}
	}
	return out.count(), nil
}

// evalConjunct materializes one conjunct relation bottom-up.
func (e *DatalogEngine) evalConjunct(g eval.Source, cj *compiledConjunct, m *eval.Meter) (*rowRel, error) {
	base, err := e.alternation(g, cj.paths, m)
	if err != nil {
		return nil, err
	}
	if !cj.star {
		return base, nil
	}
	return e.semiNaiveClosure(g, cj, base, m)
}

// alternation unions the per-path relations.
func (e *DatalogEngine) alternation(g eval.Source, paths [][]csym, m *eval.Meter) (*rowRel, error) {
	n := g.NumNodes()
	out := newRowRel(n)
	scratch := bitset.New(n)
	ws, release := eval.WorkerSource(g)
	defer release()
	for _, p := range paths {
		if len(p) == 0 {
			for v := int32(0); v < int32(n); v++ {
				out.row(v).Add(v)
			}
			if err := m.ChargeTick(int64(n)); err != nil {
				return nil, err
			}
			continue
		}
		// Per-source frontier composition using bitsets.
		for v := int32(0); v < int32(n); v++ {
			if len(ws.Neighbors(v, p[0].pred, p[0].inv)) == 0 {
				continue
			}
			frontier := scratch
			frontier.Clear()
			frontier.Add(v)
			ok := true
			for _, s := range p {
				next := bitset.New(n)
				frontier.Range(func(x int32) bool {
					for _, w := range ws.Neighbors(x, s.pred, s.inv) {
						next.Add(w)
					}
					return true
				})
				if next.Empty() {
					ok = false
					break
				}
				frontier = next
			}
			if !ok {
				continue
			}
			row := out.row(v)
			before := row.Count()
			row.UnionWith(frontier)
			if err := m.ChargeTick(int64(row.Count() - before)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// semiNaiveClosure computes the reflexive-transitive closure with
// delta rows: each iteration only extends the newly discovered
// frontier of each source, the textbook semi-naive strategy.
func (e *DatalogEngine) semiNaiveClosure(g eval.Source, cj *compiledConjunct, base *rowRel, m *eval.Meter) (*rowRel, error) {
	n := g.NumNodes()
	out := newRowRel(n)
	scratch := bitset.New(n)
	var loopErr error
	starDomain(g, cj).Range(func(v int32) bool {
		if err := m.Tick(); err != nil {
			loopErr = err
			return false
		}
		acc := out.row(v)
		acc.Add(v)
		delta := []int32{v}
		for len(delta) > 0 {
			scratch.Clear()
			for _, x := range delta {
				if row, ok := base.rows[x]; ok {
					scratch.UnionWith(row)
				}
			}
			scratch.DiffWith(acc)
			if scratch.Empty() {
				break
			}
			added := scratch.Count()
			if err := m.ChargeTick(int64(added)); err != nil {
				loopErr = err
				return false
			}
			delta = scratch.AppendTo(make([]int32, 0, added))
			acc.UnionWith(scratch)
		}
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	return out, nil
}
