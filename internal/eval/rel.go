// Package eval implements the reference UCRPQ evaluator used to
// measure actual query selectivities (paper, Sections 6.2 and 7.1).
//
// The evaluator supports the full query language of Section 3.3 —
// unions of conjunctive regular path queries with inverses and
// outermost Kleene stars — under the standard set-oriented
// (duplicate-eliminating, homomorphic) semantics. Chain-shaped rules
// are evaluated by a streaming scan that walks a window of 64 to 512
// consecutive sources per traversal, sized from the graph (window.go),
// and never materializes intermediate binary relations; other shapes
// fall back to a join-based evaluator whose per-conjunct relations come
// out of the same kernel.
package eval

import (
	"fmt"
	"math/bits"

	"gmark/internal/bitset"
	"gmark/internal/graph"
	"gmark/internal/regpath"
)

// newMeter meters a reference evaluation: its units are materialized
// tuples.
func newMeter(b Budget) *Meter { return NewMeter(b, "more than %d tuples") }

// symbolID packs a predicate id and direction.
type symbolID struct {
	pred graph.PredID
	inv  bool
}

// resolveSymbol maps a regpath symbol to graph ids.
func resolveSymbol(g Source, s regpath.Symbol) (symbolID, error) {
	p := g.PredIndex(s.Pred)
	if p < 0 {
		return symbolID{}, fmt.Errorf("eval: unknown predicate %q", s.Pred)
	}
	return symbolID{pred: p, inv: s.Inverse}, nil
}

// compiledExpr is a path expression with resolved predicate ids.
type compiledExpr struct {
	paths [][]symbolID
	star  bool
	// epsMask restricts zero-length star matches to nodes incident to
	// at least one edge labeled with a predicate of the expression (the
	// active domain of the star); nil when star is false.
	epsMask *bitset.Set
}

func compileExpr(g Source, e regpath.Expr) (compiledExpr, error) {
	if err := e.Validate(); err != nil {
		return compiledExpr{}, err
	}
	ce := compiledExpr{star: e.Star, paths: make([][]symbolID, len(e.Paths))}
	for i, p := range e.Paths {
		ce.paths[i] = make([]symbolID, len(p))
		for j, s := range p {
			sym, err := resolveSymbol(g, s)
			if err != nil {
				return compiledExpr{}, err
			}
			ce.paths[i][j] = sym
		}
	}
	if ce.star {
		firsts, lasts := boundarySymbols(ce.paths)
		ce.epsMask = StarDomain(g, firsts, lasts)
	}
	return ce, nil
}

// boundarySymbols collects the first and last symbols of the non-empty
// disjuncts, as (pred, inverse) pairs.
func boundarySymbols(paths [][]symbolID) (firsts, lasts []BoundarySym) {
	for _, p := range paths {
		if len(p) == 0 {
			continue
		}
		firsts = append(firsts, BoundarySym{Pred: p[0].pred, Inv: p[0].inv})
		lasts = append(lasts, BoundarySym{Pred: p[len(p)-1].pred, Inv: p[len(p)-1].inv})
	}
	return firsts, lasts
}

// BoundarySym is a (predicate, direction) pair at a disjunct boundary.
type BoundarySym struct {
	Pred graph.PredID
	Inv  bool
}

// StarDomain returns the set of nodes over which a Kleene star matches
// the zero-length path: nodes that can start some disjunct (have an
// outgoing first-symbol edge) or end one (have an incoming last-symbol
// edge). This matches the type-level rule of the selectivity
// estimator, and all evaluators and engines share it so recursive
// query counts agree.
//
// The mask is a union of the source's active domains, so no adjacency
// is touched — a recursive query over a spill does not pay a
// whole-instance shard sweep just to build its epsilon mask. It stops
// at the first domain that fails to load, leaving the mask partial;
// the source has recorded the failure for SourceErr, which fails the
// evaluation.
func StarDomain(g Source, firsts, lasts []BoundarySym) *bitset.Set {
	mask := bitset.New(g.NumNodes())
	for _, s := range firsts {
		dom, err := g.ActiveDomain(s.Pred, s.Inv)
		if err != nil {
			return mask
		}
		mask.UnionWith(dom)
	}
	for _, s := range lasts {
		// An incoming s-edge is an outgoing edge of the inverted symbol.
		dom, err := g.ActiveDomain(s.Pred, !s.Inv)
		if err != nil {
			return mask
		}
		mask.UnionWith(dom)
	}
	return mask
}

// startMask returns the sources an evaluation of e must walk from, or
// nil when every node is one (an epsilon disjunct matches anywhere).
// Starred expressions without an epsilon disjunct are restricted to
// their epsilon mask (outside it the zero-length match is excluded and
// no first step exists, so the image from v is empty); non-starred
// expressions to the union of their first symbols' active domains —
// StarDomain with no last symbols.
func startMask(g Source, e compiledExpr) *bitset.Set {
	for _, p := range e.paths {
		if len(p) == 0 {
			return nil
		}
	}
	if e.star {
		return e.epsMask
	}
	firsts, _ := boundarySymbols(e.paths)
	return StarDomain(g, firsts, nil)
}

// windowStarts writes to start which of the sources in (the words of
// the window at v0) are in mask — all of them when mask is nil — and
// reports whether any are.
func windowStarts(mask *bitset.Set, v0 int32, in, start []uint64) bool {
	start = start[:len(in)]
	var some uint64
	for i, w := range in {
		if w != 0 && mask != nil {
			w &= mask.Words()[int(v0>>6)+i]
		}
		start[i] = w
		some |= w
	}
	return some != 0
}

// reverse returns the compiled expression of the inverse relation.
// The epsilon mask carries over verbatim: the star domain is symmetric
// under reversal (reversing swaps and inverts the first/last boundary
// symbols, which yields the same can-start-or-end union), and dropping
// it would let reversed star plans count zero-length matches outside
// the active domain.
func (e compiledExpr) reverse() compiledExpr {
	r := compiledExpr{star: e.star, paths: make([][]symbolID, len(e.paths)), epsMask: e.epsMask}
	for i, p := range e.paths {
		rp := make([]symbolID, len(p))
		for j, s := range p {
			rp[len(p)-1-j] = symbolID{pred: s.pred, inv: !s.inv}
		}
		r.paths[i] = rp
	}
	return r
}

// Rel is a materialized binary relation with sorted, deduplicated
// rows; used by the join-based fallback evaluator.
type Rel struct {
	N    int
	Rows map[int32][]int32
}

// EvalExpr materializes the relation denoted by expression e on g.
// For starred expressions the relation includes the identity on all
// nodes (zero-length paths).
func EvalExpr(g Source, e regpath.Expr, b Budget) (*Rel, error) {
	ce, err := compileExpr(g, e)
	if err != nil {
		return nil, err
	}
	return evalCompiled(g, ce, newMeter(b))
}

// evalCompiled materializes e source window by source window with the
// streaming scan's kernel, transposing each window's final masks (node
// -> sources reaching it) into rows (source -> nodes reached). Nodes
// are visited in ascending order, so rows come out sorted. The window
// width follows the same rule as a count's (windowWordsFor).
func evalCompiled(g Source, ce compiledExpr, meter *Meter) (*Rel, error) {
	n := g.NumNodes()
	rel := &Rel{N: n, Rows: make(map[int32][]int32)}

	// Restrict sources to nodes that can possibly start a path.
	mask := startMask(g, ce)
	ws, release := WorkerSource(g)
	defer release()
	st := acquireScratch(n, windowWordsFor(g))
	defer st.release()

	exprs := []compiledExpr{ce}
	rows := make([][]int32, 64*st.words)
	for v0, in := range windows(NodeRange{Lo: 0, Hi: int32(n)}, st.in) {
		if !windowStarts(mask, v0, in, st.start) {
			continue
		}
		fin, err := st.runChain(ws, exprs, v0, st.start, meter)
		if err != nil {
			return nil, err
		}
		if fin == nil {
			continue
		}
		var pairs int64
		for u, m := range fin.all() {
			for i, w := range m {
				pairs += int64(bits.OnesCount64(w))
				for ; w != 0; w &= w - 1 {
					b := i<<6 + bits.TrailingZeros64(w)
					rows[b] = append(rows[b], u)
				}
			}
		}
		fin.clear()
		for b, row := range rows {
			if len(row) > 0 {
				rel.Rows[v0+int32(b)] = row
				rows[b] = nil
			}
		}
		if err := meter.Charge(pairs); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
