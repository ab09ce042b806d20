// Package datalog is a small positive-Datalog engine: a parser for the
// syntax produced by the translate package and a naive bottom-up
// fixpoint evaluator over a graph's edge relations.
//
// Its purpose in this repository is semantic validation: the
// translator tests execute the Datalog rendering of generated UCRPQs
// against the same graph instance and compare the ans-relation
// cardinality with the reference evaluator, proving the translation
// correct beyond string comparison.
package datalog

import (
	"fmt"
	"strings"

	"gmark/internal/graph"
)

// Term is a variable, the wildcard, or (never produced by our
// translator, but accepted) an integer constant.
type Term struct {
	// Var is the variable name; "_" is the wildcard; empty means the
	// constant Value is used.
	Var   string
	Value int32
}

// IsWildcard reports the anonymous variable.
func (t Term) IsWildcard() bool { return t.Var == "_" }

// Atom is pred(t1, ..., tk); the special Pred "=" encodes an equality
// constraint between two terms.
type Atom struct {
	Pred  string
	Terms []Term
}

// Rule is head :- body. A fact has an empty body.
type Rule struct {
	Head Atom
	Body []Atom
}

// Program is an ordered list of rules.
type Program struct {
	Rules []Rule
}

// Parse reads a program in the syntax translate.To(Datalog, ...) emits:
// one rule per line, '%' comments, atoms separated by commas, "X = Y"
// equality constraints, and a final period.
func Parse(src string) (*Program, error) {
	p := &Program{}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if !strings.HasSuffix(line, ".") {
			return nil, fmt.Errorf("datalog: line %d: missing final period: %q", lineNo+1, line)
		}
		line = strings.TrimSuffix(line, ".")
		headStr, bodyStr, hasBody := strings.Cut(line, ":-")
		head, err := parseAtom(strings.TrimSpace(headStr))
		if err != nil {
			return nil, fmt.Errorf("datalog: line %d: %w", lineNo+1, err)
		}
		rule := Rule{Head: head}
		if hasBody {
			atoms, err := splitAtoms(bodyStr)
			if err != nil {
				return nil, fmt.Errorf("datalog: line %d: %w", lineNo+1, err)
			}
			for _, a := range atoms {
				atom, err := parseAtom(a)
				if err != nil {
					return nil, fmt.Errorf("datalog: line %d: %w", lineNo+1, err)
				}
				rule.Body = append(rule.Body, atom)
			}
		}
		p.Rules = append(p.Rules, rule)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("datalog: empty program")
	}
	return p, nil
}

// splitAtoms splits a rule body on top-level commas.
func splitAtoms(s string) ([]string, error) {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced parentheses in %q", s)
			}
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced parentheses in %q", s)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out, nil
}

func parseAtom(s string) (Atom, error) {
	s = strings.TrimSpace(s)
	// Equality constraint X = Y.
	if lhs, rhs, ok := strings.Cut(s, "="); ok && !strings.Contains(s, "(") {
		return Atom{Pred: "=", Terms: []Term{
			{Var: strings.TrimSpace(lhs)},
			{Var: strings.TrimSpace(rhs)},
		}}, nil
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		// Zero-arity atom (boolean ans).
		if s == "" {
			return Atom{}, fmt.Errorf("empty atom")
		}
		return Atom{Pred: s}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	if pred == "" {
		return Atom{}, fmt.Errorf("malformed atom %q", s)
	}
	inner := s[open+1 : len(s)-1]
	var terms []Term
	if strings.TrimSpace(inner) != "" {
		for _, part := range strings.Split(inner, ",") {
			terms = append(terms, Term{Var: strings.TrimSpace(part)})
		}
	}
	return Atom{Pred: pred, Terms: terms}, nil
}

// Relation is a set of tuples of fixed arity.
type Relation struct {
	Arity  int
	tuples map[string][]int32
}

// NewRelation returns an empty relation.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, tuples: make(map[string][]int32)}
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.tuples) }

// Add inserts a tuple, reporting whether it was new.
func (r *Relation) Add(t []int32) bool {
	k := packKey(t)
	if _, ok := r.tuples[k]; ok {
		return false
	}
	r.tuples[k] = append([]int32(nil), t...)
	return true
}

// Each visits every tuple.
func (r *Relation) Each(fn func([]int32) bool) {
	for _, t := range r.tuples {
		if !fn(t) {
			return
		}
	}
}

func packKey(t []int32) string {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// Run evaluates the program bottom-up to fixpoint against the graph's
// EDB: one binary predicate per edge label (label(X, Y) per edge
// X -> Y) plus node(X). It returns the IDB relations by predicate.
func Run(g *graph.Graph, prog *Program) (map[string]*Relation, error) {
	idb := make(map[string]*Relation)
	// Pre-create IDB relations so empty results are visible.
	for _, r := range prog.Rules {
		if _, ok := idb[r.Head.Pred]; !ok {
			idb[r.Head.Pred] = NewRelation(len(r.Head.Terms))
		} else if idb[r.Head.Pred].Arity != len(r.Head.Terms) {
			return nil, fmt.Errorf("datalog: predicate %s used with arities %d and %d",
				r.Head.Pred, idb[r.Head.Pred].Arity, len(r.Head.Terms))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, rule := range prog.Rules {
			added, err := applyRule(g, idb, rule)
			if err != nil {
				return nil, err
			}
			if added {
				changed = true
			}
		}
	}
	return idb, nil
}

// applyRule enumerates all bindings of the rule body and inserts head
// tuples; returns whether anything new was derived.
func applyRule(g *graph.Graph, idb map[string]*Relation, rule Rule) (bool, error) {
	head := idb[rule.Head.Pred]
	added := false
	binding := map[string]int32{}

	emit := func() error {
		tuple := make([]int32, len(rule.Head.Terms))
		for i, t := range rule.Head.Terms {
			if t.Var == "" {
				tuple[i] = t.Value
				continue
			}
			v, ok := binding[t.Var]
			if !ok {
				return fmt.Errorf("datalog: unsafe rule: head variable %s unbound", t.Var)
			}
			tuple[i] = v
		}
		if head.Add(tuple) {
			added = true
		}
		return nil
	}

	var solve func(i int) error
	solve = func(i int) error {
		if i == len(rule.Body) {
			return emit()
		}
		atom := rule.Body[i]
		switch {
		case atom.Pred == "=":
			a, aOK := bindingOf(binding, atom.Terms[0])
			b, bOK := bindingOf(binding, atom.Terms[1])
			switch {
			case aOK && bOK:
				if a == b {
					return solve(i + 1)
				}
				return nil
			case aOK:
				return withBinding(binding, atom.Terms[1], a, func() error { return solve(i + 1) })
			case bOK:
				return withBinding(binding, atom.Terms[0], b, func() error { return solve(i + 1) })
			default:
				return fmt.Errorf("datalog: equality between two unbound variables")
			}
		case atom.Pred == "node":
			if len(atom.Terms) != 1 {
				return fmt.Errorf("datalog: node/%d", len(atom.Terms))
			}
			if v, ok := bindingOf(binding, atom.Terms[0]); ok {
				if v >= 0 && int(v) < g.NumNodes() {
					return solve(i + 1)
				}
				return nil
			}
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				if err := withBinding(binding, atom.Terms[0], v, func() error { return solve(i + 1) }); err != nil {
					return err
				}
			}
			return nil
		case g.PredIndex(atom.Pred) >= 0:
			return solveEdge(g, binding, atom, func() error { return solve(i + 1) })
		default:
			rel, ok := idb[atom.Pred]
			if !ok {
				return fmt.Errorf("datalog: unknown predicate %q", atom.Pred)
			}
			if rel.Arity != len(atom.Terms) {
				return fmt.Errorf("datalog: %s used with arity %d, defined with %d",
					atom.Pred, len(atom.Terms), rel.Arity)
			}
			var outerErr error
			rel.Each(func(tuple []int32) bool {
				if err := matchTuple(binding, atom.Terms, tuple, func() error { return solve(i + 1) }); err != nil {
					outerErr = err
					return false
				}
				return true
			})
			return outerErr
		}
	}
	if err := solve(0); err != nil {
		return false, err
	}
	return added, nil
}

// solveEdge enumerates graph edges matching a binary EDB atom.
func solveEdge(g *graph.Graph, binding map[string]int32, atom Atom, cont func() error) error {
	if len(atom.Terms) != 2 {
		return fmt.Errorf("datalog: edge predicate %s needs 2 terms", atom.Pred)
	}
	pred := g.PredIndex(atom.Pred)
	src, srcOK := bindingOf(binding, atom.Terms[0])
	dst, dstOK := bindingOf(binding, atom.Terms[1])
	switch {
	case srcOK && dstOK:
		if g.HasEdge(src, pred, dst) {
			return cont()
		}
		return nil
	case srcOK:
		for _, w := range g.Out(src, pred) {
			if err := withBinding(binding, atom.Terms[1], w, cont); err != nil {
				return err
			}
		}
		return nil
	case dstOK:
		for _, w := range g.In(dst, pred) {
			if err := withBinding(binding, atom.Terms[0], w, cont); err != nil {
				return err
			}
		}
		return nil
	default:
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			outs := g.Out(v, pred)
			if len(outs) == 0 {
				continue
			}
			err := withBinding(binding, atom.Terms[0], v, func() error {
				for _, w := range outs {
					if err := withBinding(binding, atom.Terms[1], w, cont); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// matchTuple unifies atom terms with a concrete tuple, extending the
// binding for the continuation.
func matchTuple(binding map[string]int32, terms []Term, tuple []int32, cont func() error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(terms) {
			return cont()
		}
		t := terms[i]
		if v, ok := bindingOf(binding, t); ok {
			if v != tuple[i] {
				return nil
			}
			return rec(i + 1)
		}
		return withBinding(binding, t, tuple[i], func() error { return rec(i + 1) })
	}
	return rec(0)
}

// bindingOf resolves a term under the binding; wildcards are never
// bound.
func bindingOf(binding map[string]int32, t Term) (int32, bool) {
	if t.Var == "" {
		return t.Value, true
	}
	if t.IsWildcard() {
		return 0, false
	}
	v, ok := binding[t.Var]
	return v, ok
}

// withBinding binds a term's variable for the continuation; wildcards
// run the continuation unbound.
func withBinding(binding map[string]int32, t Term, v int32, cont func() error) error {
	if t.Var == "" {
		if t.Value != v {
			return nil
		}
		return cont()
	}
	if t.IsWildcard() {
		return cont()
	}
	binding[t.Var] = v
	err := cont()
	delete(binding, t.Var)
	return err
}

// CountAns runs the program and returns |ans|, the result cardinality
// under set semantics (1/0 for boolean programs).
func CountAns(g *graph.Graph, prog *Program) (int64, error) {
	idb, err := Run(g, prog)
	if err != nil {
		return 0, err
	}
	ans, ok := idb["ans"]
	if !ok {
		return 0, fmt.Errorf("datalog: program has no ans predicate")
	}
	if ans.Arity == 0 {
		if ans.Len() > 0 {
			return 1, nil
		}
		return 0, nil
	}
	return int64(ans.Len()), nil
}
