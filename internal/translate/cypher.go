package translate

import (
	"fmt"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

// maxCypherExpansions caps the cartesian expansion of multi-symbol
// disjunctions into UNION branches.
const maxCypherExpansions = 16

// appendOpenCypher renders the query in openCypher. Since openCypher has
// no general regular path expressions, disjunctions of multi-symbol
// paths are expanded into UNION branches (capped; beyond the cap only
// the first disjunct is kept), and starred sub-expressions keep a
// single label (starLabel) — the restriction discussed in Section 7.1,
// which makes recursive Cypher queries incomparable to the other
// syntaxes.
func appendOpenCypher(dst []byte, q *query.Query, opt Options) ([]byte, error) {
	start := len(dst)
	first := true
	for _, r := range q.Rules {
		// Each conjunct contributes a list of alternative pattern
		// fragments; the rule expands to the first
		// maxCypherExpansions combinations of their cartesian product,
		// the last conjunct varying fastest.
		combos := 1
		for _, c := range r.Body {
			combos = min(combos*cypherAlternatives(c.Expr), maxCypherExpansions)
		}
		for k := 0; k < combos; k++ {
			if !first {
				dst = append(dst, "\nUNION\n"...)
			}
			first = false
			dst = append(dst, "MATCH "...)
			for i, c := range r.Body {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				// The alternative of conjunct i in combination k is
				// k's digit in the mixed radix of the alternative
				// counts.
				digit := k
				for j := len(r.Body) - 1; j > i && digit > 0; j-- {
					digit /= cypherAlternatives(r.Body[j].Expr)
				}
				var err error
				dst, err = appendCypherFragment(dst, c, digit%cypherAlternatives(c.Expr))
				if err != nil {
					return dst[:start], err
				}
			}
			dst = append(dst, '\n')
			switch {
			case q.Arity() == 0:
				dst = append(dst, "RETURN DISTINCT true AS result"...)
			case opt.Count:
				dst = append(dst, "RETURN count(DISTINCT ["...)
				dst = appendHead(dst, q.Rules[0].Head, "x", ", ")
				dst = append(dst, "]) AS cnt"...)
			default:
				dst = append(dst, "RETURN DISTINCT "...)
				dst = appendHead(dst, q.Rules[0].Head, "x", ", ")
			}
		}
	}
	return append(dst, '\n'), nil
}

// cypherAlternatives returns the number of alternative MATCH pattern
// fragments a conjunct expands to: one for a star (restricted to a
// single label) and for a disjunction of single forward symbols (the
// [:a|b] form), otherwise one per disjunct.
func cypherAlternatives(e regpath.Expr) int {
	if e.Star || allSingleForward(e) {
		return 1
	}
	return len(e.Paths)
}

// appendCypherFragment appends the alt-th alternative pattern fragment
// of a conjunct.
func appendCypherFragment(dst []byte, c query.Conjunct, alt int) ([]byte, error) {
	e := c.Expr
	if e.Star {
		// Restriction: only a single non-inverse label survives under
		// the star.
		label := starLabel(e)
		if label == "" {
			return dst, fmt.Errorf("translate: starred expression %s has no usable label for openCypher", e)
		}
		dst = appendCypherNode(dst, c.Src)
		dst = append(append(append(dst, "-[:"...), label...), "*0..]->"...)
		return appendCypherNode(dst, c.Dst), nil
	}
	if allSingleForward(e) {
		dst = append(appendCypherNode(dst, c.Src), "-[:"...)
		for i, p := range e.Paths {
			if i > 0 {
				dst = append(dst, '|')
			}
			dst = append(dst, p[0].Pred...)
		}
		return appendCypherNode(append(dst, "]->"...), c.Dst), nil
	}
	p := e.Paths[alt]
	if len(p) == 0 {
		// Epsilon: bind both variables to the same node.
		dst = append(appendCypherNode(dst, c.Src), ", "...)
		dst = append(appendCypherNode(dst, c.Dst), " WHERE "...)
		dst = append(appendName(dst, "x", c.Src), " = "...)
		return appendName(dst, "x", c.Dst), nil
	}
	dst = appendCypherNode(dst, c.Src)
	for si, s := range p {
		if s.Inverse {
			dst = append(dst, "<-[:"...)
		} else {
			dst = append(dst, "-[:"...)
		}
		dst = append(dst, s.Pred...)
		if s.Inverse {
			dst = append(dst, "]-("...)
		} else {
			dst = append(dst, "]->("...)
		}
		if si == len(p)-1 {
			dst = appendName(dst, "x", c.Dst)
		} else {
			// A fresh node per inner hop, unique across the query's
			// conjuncts, disjuncts and positions.
			dst = append(appendName(dst, "x", c.Src), '_')
			dst = append(appendName(dst, "x", c.Dst), "_h"...)
			dst = appendInt(append(appendInt(dst, alt), '_'), si)
		}
		dst = append(dst, ')')
	}
	return dst, nil
}

// appendCypherNode appends the node pattern (x<v>).
func appendCypherNode(dst []byte, v query.Var) []byte {
	return append(appendName(append(dst, '('), "x", v), ')')
}

// starLabel picks the first non-inverse symbol, scanning every
// disjunct in order; if every symbol is inverse, the first symbol's
// predicate is used without the inverse (the translation is lossy
// either way). Engine G's restrictedStarLabel picks the same label.
func starLabel(e regpath.Expr) string {
	for _, p := range e.Paths {
		for _, s := range p {
			if !s.Inverse {
				return s.Pred
			}
		}
	}
	for _, p := range e.Paths {
		if len(p) > 0 {
			return p[0].Pred
		}
	}
	return ""
}

func allSingleForward(e regpath.Expr) bool {
	for _, p := range e.Paths {
		if len(p) != 1 || p[0].Inverse {
			return false
		}
	}
	return len(e.Paths) > 0
}
