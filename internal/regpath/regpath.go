// Package regpath implements the regular path expressions used in
// gMark's UCRPQ queries (paper, Section 3.3): expressions over
// Sigma+ = {a, a- | a in Sigma} built from concatenation, disjunction
// and Kleene star, with recursion restricted to the outermost level.
//
// Every expression therefore has the normal form
//
//	(P1 + ... + Pk)   or   (P1 + ... + Pk)*
//
// where each Pi is a path: a concatenation of zero or more symbols.
// The zero-length path is the empty word epsilon.
package regpath

import "fmt"

// Symbol is one edge label or its inverse (a or a-).
type Symbol struct {
	Pred    string
	Inverse bool
}

// Inv returns the inverse symbol.
func (s Symbol) Inv() Symbol { return Symbol{Pred: s.Pred, Inverse: !s.Inverse} }

// String renders "a" or "a-".
func (s Symbol) String() string {
	if s.Inverse {
		return s.Pred + "-"
	}
	return s.Pred
}

// Append appends the String rendering to dst and returns the extended
// slice.
func (s Symbol) Append(dst []byte) []byte {
	dst = append(dst, s.Pred...)
	if s.Inverse {
		dst = append(dst, '-')
	}
	return dst
}

// Path is a concatenation of symbols; the empty path is epsilon.
type Path []Symbol

// String renders "a.b-.c" or "eps" for the empty path.
func (p Path) String() string { return string(p.Append(nil)) }

// Append appends the String rendering to dst and returns the extended
// slice.
func (p Path) Append(dst []byte) []byte {
	if len(p) == 0 {
		return append(dst, "eps"...)
	}
	for i, s := range p {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = s.Append(dst)
	}
	return dst
}

// Equal reports structural equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Expr is a regular path expression in gMark normal form.
type Expr struct {
	// Paths are the disjuncts P1 ... Pk. A valid expression has k >= 1.
	Paths []Path
	// Star marks the outermost Kleene star.
	Star bool
}

// Validate checks the k >= 1 invariant.
func (e Expr) Validate() error {
	if len(e.Paths) == 0 {
		return fmt.Errorf("regpath: expression with no disjuncts")
	}
	return nil
}

// String renders the expression, e.g. "(a.b+c)*" or "a.b-".
func (e Expr) String() string { return string(e.Append(nil)) }

// Append appends the String rendering to dst and returns the extended
// slice.
func (e Expr) Append(dst []byte) []byte {
	paren := e.Star || len(e.Paths) > 1
	if paren {
		dst = append(dst, '(')
	}
	for i, p := range e.Paths {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = p.Append(dst)
	}
	if paren {
		dst = append(dst, ')')
	}
	if e.Star {
		dst = append(dst, '*')
	}
	return dst
}

// NumDisjuncts returns k, the number of disjuncts.
func (e Expr) NumDisjuncts() int { return len(e.Paths) }

// Predicates returns the distinct predicate names used, in first-use
// order.
func (e Expr) Predicates() []string {
	var names []string
	seen := make(map[string]bool)
	for _, p := range e.Paths {
		for _, s := range p {
			if !seen[s.Pred] {
				seen[s.Pred] = true
				names = append(names, s.Pred)
			}
		}
	}
	return names
}
