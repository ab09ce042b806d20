package translate

import (
	"gmark/internal/query"
	"gmark/internal/regpath"
)

const sparqlPrefix = "PREFIX : <http://gmark.example.org/pred/>\n"

// appendSPARQL renders the query in SPARQL 1.1, with regular path
// expressions as property paths. Rules become UNION blocks; Boolean
// queries become ASK.
func appendSPARQL(dst []byte, q *query.Query, opt Options) []byte {
	dst = append(dst, sparqlPrefix...)
	switch {
	case q.Arity() == 0:
		dst = append(dst, "ASK\nWHERE {\n"...)
		dst = appendSPARQLBlocks(dst, q, "")
		return append(dst, "}\n"...)
	case opt.Count:
		// COUNT(DISTINCT *) counts distinct bindings of all variables;
		// restrict the visible variables with an inner SELECT.
		const pad = "    "
		dst = append(dst, "SELECT (COUNT(*) AS ?cnt)\nWHERE {\n  {\n"...)
		dst = appendSPARQLSelect(dst, q, pad)
		return append(dst, "  }\n}\n"...)
	default:
		return appendSPARQLSelect(dst, q, "")
	}
}

// appendSPARQLSelect appends the SELECT DISTINCT query over the head
// variables, every line indented by pad.
func appendSPARQLSelect(dst []byte, q *query.Query, pad string) []byte {
	dst = append(append(dst, pad...), "SELECT DISTINCT "...)
	dst = appendHead(dst, q.Rules[0].Head, "?x", " ")
	dst = append(append(append(dst, '\n'), pad...), "WHERE {\n"...)
	dst = appendSPARQLBlocks(dst, q, pad)
	return append(append(dst, pad...), "}\n"...)
}

// appendSPARQLBlocks appends one group graph pattern line per rule,
// UNION lines between them, every line indented by pad.
func appendSPARQLBlocks(dst []byte, q *query.Query, pad string) []byte {
	for i, r := range q.Rules {
		if i > 0 {
			dst = append(append(dst, pad...), "  UNION\n"...)
		}
		dst = append(append(dst, pad...), "  { "...)
		for j, c := range r.Body {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = appendSPARQLConjunct(dst, c)
		}
		dst = append(dst, " }\n"...)
	}
	return dst
}

// appendSPARQLConjunct appends one conjunct as a triple pattern with a
// property path, or as a FILTER when the expression denotes only the
// empty word (eps, or (eps)* which equals it): variable equality.
func appendSPARQLConjunct(dst []byte, c query.Conjunct) []byte {
	alts, hasEps := 0, false
	for _, p := range c.Expr.Paths {
		if len(p) == 0 {
			hasEps = true
		} else {
			alts++
		}
	}
	if alts == 0 {
		dst = c.Src.Append(append(dst, "FILTER("...))
		dst = c.Dst.Append(append(dst, " = "...))
		return append(dst, ") ."...)
	}
	dst = append(c.Src.Append(dst), ' ')
	// A star subsumes an epsilon disjunct; without one, epsilon makes
	// the path optional.
	paren := alts > 1 || c.Expr.Star || hasEps
	if paren {
		dst = append(dst, '(')
	}
	first := true
	for _, p := range c.Expr.Paths {
		if len(p) == 0 {
			continue
		}
		if !first {
			dst = append(dst, '|')
		}
		first = false
		dst = appendSPARQLPath(dst, p)
	}
	if paren {
		dst = append(dst, ')')
	}
	switch {
	case c.Expr.Star:
		dst = append(dst, '*')
	case hasEps:
		dst = append(dst, '?')
	}
	dst = c.Dst.Append(append(dst, ' '))
	return append(dst, " ."...)
}

// appendSPARQLPath appends a non-empty path as a sequence path.
func appendSPARQLPath(dst []byte, p regpath.Path) []byte {
	if len(p) > 1 {
		dst = append(dst, '(')
	}
	for i, s := range p {
		if i > 0 {
			dst = append(dst, '/')
		}
		if s.Inverse {
			dst = append(dst, '^')
		}
		dst = append(append(dst, ':'), s.Pred...)
	}
	if len(p) > 1 {
		dst = append(dst, ')')
	}
	return dst
}
