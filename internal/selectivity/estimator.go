package selectivity

import (
	"gmark/internal/dist"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/schema"
)

// TypeEdge is one edge of the typed label graph derived from the
// schema: type From can reach type To through symbol Sym, whose single
// step has selectivity class Base.
type TypeEdge struct {
	From, To int
	Sym      regpath.Symbol
	Base     Triple
}

// Estimator precomputes everything needed to estimate selectivity
// classes of path expressions and binary chain queries against one
// schema.
//
// Concurrency contract: an Estimator is immutable after NewEstimator
// returns — every method only reads the precomputed analysis — so one
// Estimator may be shared by any number of goroutines without locking
// (the query-generation pipeline relies on this).
type Estimator struct {
	kinds []NodeKind
	// out[t] lists type edges leaving type t (both label directions).
	out [][]TypeEdge
}

// NewEstimator analyzes the schema. Constraints whose out-distribution
// is the "0" macro (uniform [0,0]) contribute no edges.
func NewEstimator(s *schema.Schema) (*Estimator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{
		kinds: make([]NodeKind, len(s.Types)),
		out:   make([][]TypeEdge, len(s.Types)),
	}
	for i, t := range s.Types {
		if t.Occurrence.Proportional {
			e.kinds[i] = Many
		} else {
			e.kinds[i] = One
		}
	}
	for _, c := range s.Constraints {
		if forbidden(c) {
			continue
		}
		src := s.TypeIndex(c.Source)
		trg := s.TypeIndex(c.Target)
		base := e.baseTriple(src, trg, c.In, c.Out)
		fwd := TypeEdge{
			From: src, To: trg,
			Sym:  regpath.Symbol{Pred: c.Predicate},
			Base: base,
		}
		inv := TypeEdge{
			From: trg, To: src,
			Sym:  regpath.Symbol{Pred: c.Predicate, Inverse: true},
			Base: Triple{Left: base.Right, O: reverseOp(base.O), Right: base.Left}.Clamp(),
		}
		e.out[src] = append(e.out[src], fwd)
		e.out[trg] = append(e.out[trg], inv)
	}
	return e, nil
}

// forbidden reports whether the constraint encodes the "0" macro: a
// specified out-distribution that never produces edges.
func forbidden(c schema.EdgeConstraint) bool {
	zero := func(d dist.Distribution) bool {
		return d.Kind == dist.Uniform && d.Max == 0
	}
	return zero(c.Out) || zero(c.In)
}

// baseTriple derives the selectivity class of a single edge label
// between two types from the schema distributions (Example 5.1):
// a Zipfian out-distribution yields <, a Zipfian in-distribution
// yields > (and hence the inverse direction swaps them); both Zipfian
// yields the hub-structured diamond; anything else yields =. A fixed
// type on either side determines the operation by clamping.
func (e *Estimator) baseTriple(src, trg int, in, out dist.Distribution) Triple {
	kA, kB := e.kinds[src], e.kinds[trg]
	zin := in.Kind == dist.Zipfian
	zout := out.Kind == dist.Zipfian
	var op Op
	switch {
	case zin && zout:
		op = OpDiamond
	case zout:
		op = OpLess
	case zin:
		op = OpGreater
	default:
		op = OpEq
	}
	return Triple{Left: kA, O: op, Right: kB}.Clamp()
}

// NumTypes returns |Theta|.
func (e *Estimator) NumTypes() int { return len(e.kinds) }

// Kind returns the selectivity kind of type t.
func (e *Estimator) Kind(t int) NodeKind { return e.kinds[t] }

// TypeEdges returns the label edges leaving type t. Callers must not
// modify the returned slice.
func (e *Estimator) TypeEdges(t int) []TypeEdge { return e.out[t] }

// Matrix maps type pairs (A, B) to an optional selectivity triple; an
// undefined cell means the expression cannot connect A to B under the
// schema.
type Matrix struct {
	n     int
	cells []optTriple
}

type optTriple struct {
	t  Triple
	ok bool
}

// NewMatrix returns an all-undefined matrix over n types.
func NewMatrix(n int) Matrix {
	return Matrix{n: n, cells: make([]optTriple, n*n)}
}

// Get returns the triple for (a, b) and whether it is defined.
func (m Matrix) Get(a, b int) (Triple, bool) {
	c := m.cells[a*m.n+b]
	return c.t, c.ok
}

// set defines or disjoins-in a triple at (a, b).
func (m Matrix) set(a, b int, t Triple) {
	c := &m.cells[a*m.n+b]
	if c.ok {
		c.t = DisjoinTriples(c.t, t)
	} else {
		*c = optTriple{t: t, ok: true}
	}
}

// Defined reports whether any cell is defined.
func (m Matrix) Defined() bool {
	for _, c := range m.cells {
		if c.ok {
			return true
		}
	}
	return false
}

// MaxAlpha returns the estimated selectivity value
// alpha(Q) = max_{A,B} alpha_{A,B}(Q), and false when no cell is
// defined (the expression is unsatisfiable under the schema).
func (m Matrix) MaxAlpha() (int, bool) {
	best, any := 0, false
	for _, c := range m.cells {
		if c.ok {
			any = true
			if a := c.t.Alpha(); a > best {
				best = a
			}
		}
	}
	return best, any
}

// SymbolMatrix returns the per-type-pair classes of a single symbol.
func (e *Estimator) SymbolMatrix(sym regpath.Symbol) Matrix {
	m := NewMatrix(len(e.kinds))
	for from := range e.out {
		for _, te := range e.out[from] {
			if te.Sym == sym {
				m.set(te.From, te.To, te.Base)
			}
		}
	}
	return m
}

// identityMatrix is sel(epsilon): (Type(A), =, Type(A)) on the
// diagonal.
func (e *Estimator) identityMatrix() Matrix {
	m := NewMatrix(len(e.kinds))
	for t, k := range e.kinds {
		m.set(t, t, Identity(k))
	}
	return m
}

// concatMatrices composes two matrices over every middle type,
// disjoining alternatives: sel_{A,B} = Sum_C sel_{A,C} . sel_{C,B}.
func concatMatrices(a, b Matrix) Matrix {
	r := NewMatrix(a.n)
	for x := 0; x < a.n; x++ {
		for c := 0; c < a.n; c++ {
			t1, ok := a.Get(x, c)
			if !ok {
				continue
			}
			for y := 0; y < a.n; y++ {
				if t2, ok := b.Get(c, y); ok {
					r.set(x, y, ConcatTriples(t1, t2))
				}
			}
		}
	}
	return r
}

// unionMatrices disjoins two matrices cellwise; a cell defined on only
// one side is copied.
func unionMatrices(a, b Matrix) Matrix {
	r := NewMatrix(a.n)
	for i, c := range a.cells {
		if c.ok {
			r.cells[i] = c
		}
	}
	for i, c := range b.cells {
		if !c.ok {
			continue
		}
		if r.cells[i].ok {
			r.cells[i].t = DisjoinTriples(r.cells[i].t, c.t)
		} else {
			r.cells[i] = c
		}
	}
	return r
}

// starMatrix applies the Kleene star rule: a class is assigned only
// between identical endpoint types (sel_{A,A}(p*) = sel_{A,A}(p)^2,
// Section 5.2.2). The zero-length path contributes an identity, but
// only on types participating in the inner expression (the star's
// active domain) — so e.g. a closure looping through a fixed-size type
// stays constant.
func (e *Estimator) starMatrix(m Matrix) Matrix {
	r := NewMatrix(len(e.kinds))
	participates := make([]bool, len(e.kinds))
	for a := 0; a < m.n; a++ {
		for b := 0; b < m.n; b++ {
			if _, ok := m.Get(a, b); ok {
				participates[a] = true
				participates[b] = true
			}
		}
	}
	for t, k := range e.kinds {
		if participates[t] {
			r.set(t, t, Identity(k))
		}
	}
	for t := range e.kinds {
		if tr, ok := m.Get(t, t); ok {
			r.set(t, t, StarTriple(tr))
		}
	}
	return r
}

// PathMatrix returns the classes of a concatenation of symbols; the
// empty path is epsilon.
func (e *Estimator) PathMatrix(p regpath.Path) Matrix {
	m := e.identityMatrix()
	for _, s := range p {
		m = concatMatrices(m, e.SymbolMatrix(s))
	}
	return m
}

// ExprMatrix returns the classes of a full path expression.
func (e *Estimator) ExprMatrix(x regpath.Expr) (Matrix, error) {
	if err := x.Validate(); err != nil {
		return Matrix{}, err
	}
	m := e.PathMatrix(x.Paths[0])
	for _, p := range x.Paths[1:] {
		m = unionMatrices(m, e.PathMatrix(p))
	}
	if x.Star {
		m = e.starMatrix(m)
	}
	return m, nil
}

// QueryMatrix estimates the classes of a binary chain query: the
// conjunct matrices are concatenated along the chain and rules are
// unioned. It returns false when the query is not a binary endpoint
// chain (selectivity estimation is defined for binary queries only,
// Section 5).
func (e *Estimator) QueryMatrix(q *query.Query) (Matrix, bool, error) {
	if q.Arity() != 2 {
		return Matrix{}, false, nil
	}
	var acc Matrix
	accSet := false
	for _, r := range q.Rules {
		m, ok, err := e.ruleMatrix(r)
		if err != nil {
			return Matrix{}, false, err
		}
		if !ok {
			return Matrix{}, false, nil
		}
		if accSet {
			acc = unionMatrices(acc, m)
		} else {
			acc, accSet = m, true
		}
	}
	return acc, accSet, nil
}

func (e *Estimator) ruleMatrix(r query.Rule) (Matrix, bool, error) {
	// The body must be a chain and the head its endpoints.
	prev := r.Body[0].Src
	m := e.identityMatrix()
	for _, c := range r.Body {
		if c.Src != prev {
			return Matrix{}, false, nil
		}
		cm, err := e.ExprMatrix(c.Expr)
		if err != nil {
			return Matrix{}, false, err
		}
		m = concatMatrices(m, cm)
		prev = c.Dst
	}
	start, end := r.Body[0].Src, prev
	if len(r.Head) != 2 {
		return Matrix{}, false, nil
	}
	switch {
	case r.Head[0] == start && r.Head[1] == end:
		return m, true, nil
	case r.Head[0] == end && r.Head[1] == start:
		// Transpose with reversed operations.
		t := NewMatrix(m.n)
		for a := 0; a < m.n; a++ {
			for b := 0; b < m.n; b++ {
				if tr, ok := m.Get(a, b); ok {
					t.set(b, a, Triple{Left: tr.Right, O: reverseOp(tr.O), Right: tr.Left}.Clamp())
				}
			}
		}
		return t, true, nil
	default:
		return Matrix{}, false, nil
	}
}

// EstimateAlpha estimates the selectivity value of a binary chain
// query. ok is false when the estimator does not apply (non-binary or
// non-chain) or the query is unsatisfiable under the schema.
func (e *Estimator) EstimateAlpha(q *query.Query) (alpha int, ok bool, err error) {
	m, applies, err := e.QueryMatrix(q)
	if err != nil || !applies {
		return 0, false, err
	}
	a, any := m.MaxAlpha()
	return a, any, nil
}

// EstimateClass maps the estimated alpha to a selectivity class.
func (e *Estimator) EstimateClass(q *query.Query) (query.SelectivityClass, bool, error) {
	a, ok, err := e.EstimateAlpha(q)
	if err != nil || !ok {
		return 0, false, err
	}
	switch a {
	case 0:
		return query.Constant, true, nil
	case 2:
		return query.Quadratic, true, nil
	default:
		return query.Linear, true, nil
	}
}
