package translate

import (
	"gmark/internal/query"
	"gmark/internal/regpath"
)

// appendDatalog renders the query as a Datalog program over one EDB
// predicate per edge label (a(X,Y) holds for each a-labeled edge
// X -> Y) plus node(X) for the active domain. Starred conjuncts use
// the classical linear-recursive encoding.
func appendDatalog(dst []byte, q *query.Query, opt Options) []byte {
	dst = append(dst, "% UCRPQ translated to Datalog by gmark\n"...)
	// Conjunct relations are numbered p0, p1, ... and inner path
	// variables Z1, Z2, ... across the whole program.
	next, fresh := 0, 0
	for _, r := range q.Rules {
		base := next
		for _, c := range r.Body {
			dst, fresh = appendDatalogConjunct(dst, next, c.Expr, fresh)
			next++
		}
		dst = append(dst, "ans"...)
		if len(r.Head) > 0 {
			dst = append(appendHead(append(dst, '('), r.Head, "X", ", "), ')')
		}
		dst = append(dst, " :- "...)
		for i, c := range r.Body {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendInt(append(dst, 'p'), base+i)
			dst = append(appendName(append(dst, '('), "X", c.Src), ", "...)
			dst = append(appendName(dst, "X", c.Dst), ')')
		}
		dst = append(dst, ".\n"...)
	}
	if opt.Count {
		dst = append(dst, "% result: count(distinct ans)\n"...)
	}
	return dst
}

// appendDatalogConjunct appends the rules defining relation p<id> of
// one conjunct: one rule per disjunct for the one-step relation, and
// for a starred conjunct the zero-length facts over the star's active
// domain plus the linear recursion over the step relation p<id>_step.
// fresh is the number of inner variables used so far; the updated
// count is returned.
func appendDatalogConjunct(dst []byte, id int, e regpath.Expr, fresh int) ([]byte, int) {
	for _, p := range e.Paths {
		dst = appendInt(append(dst, 'p'), id)
		if e.Star {
			dst = append(dst, "_step"...)
		}
		dst = append(dst, "(X, Y) :- "...)
		dst, fresh = appendDatalogPathAtoms(dst, p, fresh)
		dst = append(dst, ".\n"...)
	}
	if !e.Star {
		return dst, fresh
	}
	for m := 0; m < 2*len(e.Paths); m++ {
		side, ok := starDomainSide(e, m)
		if !ok {
			continue
		}
		dst = appendInt(append(dst, 'p'), id)
		dst = append(append(dst, "(X, X) :- "...), side.pred...)
		if side.trg {
			dst = append(dst, "(_, X).\n"...)
		} else {
			dst = append(dst, "(X, _).\n"...)
		}
	}
	dst = appendInt(append(dst, 'p'), id)
	dst = appendInt(append(dst, "(X, Y) :- p"...), id)
	dst = appendInt(append(dst, "(X, Z), p"...), id)
	return append(dst, "_step(Z, Y).\n"...), fresh
}

// The variables of a path rule: its endpoints X and Y, and the inner
// variables Z1, Z2, ... numbered from 1.
const (
	datalogX = 0
	datalogY = -1
)

// appendDatalogPathAtoms appends one path as a chain of EDB atoms from
// X to Y through fresh inner variables. The empty path is node(X),
// X = Y.
func appendDatalogPathAtoms(dst []byte, p regpath.Path, fresh int) ([]byte, int) {
	if len(p) == 0 {
		return append(dst, "node(X), X = Y"...), fresh
	}
	cur := datalogX
	for i, s := range p {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		next := datalogY
		if i < len(p)-1 {
			fresh++
			next = fresh
		}
		// An inverse symbol swaps the atom's arguments.
		from, to := cur, next
		if s.Inverse {
			from, to = next, cur
		}
		dst = append(append(dst, s.Pred...), '(')
		dst = append(appendDatalogPathVar(dst, from), ", "...)
		dst = append(appendDatalogPathVar(dst, to), ')')
		cur = next
	}
	return dst, fresh
}

func appendDatalogPathVar(dst []byte, v int) []byte {
	switch v {
	case datalogX:
		return append(dst, 'X')
	case datalogY:
		return append(dst, 'Y')
	}
	return appendInt(append(dst, 'Z'), v)
}
