package translate

import (
	"gmark/internal/query"
	"gmark/internal/regpath"
)

// appendPostgreSQL renders the query as PostgreSQL SQL over the relations
//
//	edge(src INTEGER, label TEXT, trg INTEGER)
//	node(id INTEGER)
//
// using the standard translation of UCRPQs into SQL:1999 recursive
// views with linear recursion (paper, Section 7.1): each conjunct
// becomes a CTE whose body is the union of its disjunct path joins;
// starred conjuncts become WITH RECURSIVE CTEs seeded with the
// identity relation.
func appendPostgreSQL(dst []byte, q *query.Query, opt Options) []byte {
	// The CTEs of all rules, numbered c0, c1, ... in body order.
	if q.HasRecursion() {
		dst = append(dst, "WITH RECURSIVE "...)
	} else {
		dst = append(dst, "WITH "...)
	}
	cte := 0
	for _, r := range q.Rules {
		for _, c := range r.Body {
			if cte > 0 {
				dst = append(dst, ",\n"...)
			}
			dst = appendSQLConjunctCTE(dst, cte, c.Expr)
			cte++
		}
	}
	dst = append(dst, '\n')

	// One SELECT per rule over its conjuncts' CTEs, UNIONed.
	pad := ""
	switch {
	case opt.Count && q.Arity() > 0:
		dst = append(dst, "SELECT COUNT(*) AS cnt FROM (\n"...)
		pad = "  "
	case q.Arity() == 0:
		dst = append(dst, "SELECT EXISTS (\n"...)
		pad = "  "
	}
	cte = 0
	for i, r := range q.Rules {
		if i > 0 {
			dst = append(append(append(dst, '\n'), pad...), "UNION\n"...)
		}
		dst = appendSQLRuleSelect(dst, r, cte, pad)
		cte += len(r.Body)
	}
	if pad == "" {
		return append(dst, ";\n"...)
	}
	return append(dst, "\n) AS result;\n"...)
}

// appendSQLConjunctCTE appends the CTE c<id> of one conjunct: the
// UNION of its disjunct path joins, and for a starred conjunct the
// linear recursion over that step relation, seeded with the identity
// on the star's active domain.
func appendSQLConjunctCTE(dst []byte, id int, e regpath.Expr) []byte {
	dst = appendInt(append(dst, 'c'), id)
	if e.Star {
		dst = append(dst, "_step"...)
	}
	dst = append(dst, "(src, trg) AS (\n"...)
	for i, p := range e.Paths {
		if i > 0 {
			dst = append(dst, "\n  UNION\n"...)
		}
		dst = appendSQLPathSelect(append(dst, "  "...), p)
	}
	dst = append(dst, "\n)"...)
	if !e.Star {
		return dst
	}
	dst = appendInt(append(dst, ",\nc"...), id)
	dst = append(dst, "(src, trg) AS (\n  SELECT n, n FROM ("...)
	first := true
	for m := 0; m < 2*len(e.Paths); m++ {
		side, ok := starDomainSide(e, m)
		if !ok {
			continue
		}
		if !first {
			dst = append(dst, " UNION "...)
		}
		first = false
		if side.trg {
			dst = append(dst, "SELECT trg AS n FROM edge WHERE label = '"...)
		} else {
			dst = append(dst, "SELECT src AS n FROM edge WHERE label = '"...)
		}
		dst = append(append(dst, side.pred...), '\'')
	}
	dst = append(dst, ") dom\n  UNION\n  SELECT r.src, s.trg FROM c"...)
	dst = appendInt(append(appendInt(dst, id), " r JOIN c"...), id)
	return append(dst, "_step s ON r.trg = s.src\n)"...)
}

// appendSQLPathSelect appends one path as a join chain over edge, hop
// i aliased e<i>; the empty path is the identity over node.
func appendSQLPathSelect(dst []byte, p regpath.Path) []byte {
	if len(p) == 0 {
		return append(dst, "SELECT id AS src, id AS trg FROM node"...)
	}
	dst = appendSQLHopColumn(append(dst, "SELECT "...), p, 0, false)
	dst = appendSQLHopColumn(append(dst, " AS src, "...), p, len(p)-1, true)
	dst = append(dst, " AS trg FROM "...)
	for i := range p {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendInt(append(dst, "edge e"...), i)
	}
	dst = append(dst, " WHERE "...)
	for i, s := range p {
		if i > 0 {
			dst = append(dst, " AND "...)
		}
		dst = appendInt(append(dst, 'e'), i)
		dst = append(append(append(dst, ".label = '"...), s.Pred...), '\'')
	}
	for i := 1; i < len(p); i++ {
		dst = appendSQLHopColumn(append(dst, " AND "...), p, i-1, true)
		dst = appendSQLHopColumn(append(dst, " = "...), p, i, false)
	}
	return dst
}

// appendSQLHopColumn appends the edge column where hop i of the path
// starts or ends: an inverse symbol is traversed from trg to src.
func appendSQLHopColumn(dst []byte, p regpath.Path, i int, end bool) []byte {
	dst = appendInt(append(dst, 'e'), i)
	if p[i].Inverse != end {
		return append(dst, ".trg"...)
	}
	return append(dst, ".src"...)
}

// appendSQLRuleSelect appends the SELECT of one rule whose conjuncts
// are the CTEs c<base>, c<base+1>, ...; every line is indented by pad.
// A variable is read from the first column that mentions it, in body
// order with a conjunct's source before its target; every later
// mention becomes an equality with that column.
func appendSQLRuleSelect(dst []byte, r query.Rule, base int, pad string) []byte {
	dst = append(dst, pad...)
	if len(r.Head) == 0 {
		dst = append(dst, "SELECT 1"...)
	} else {
		dst = append(dst, "SELECT DISTINCT "...)
		for i, v := range r.Head {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendSQLEndpoint(dst, base, firstMention(r.Body, v, 2*len(r.Body)))
			dst = appendName(append(dst, " AS "...), "x", v)
		}
	}
	dst = append(append(append(dst, '\n'), pad...), "FROM "...)
	for i := range r.Body {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendInt(append(dst, 'c'), base+i)
		dst = appendInt(append(dst, " AS c"...), base+i)
		dst = append(dst, "_t"...)
	}
	joined := false
	for m := 0; m < 2*len(r.Body); m++ {
		prev := firstMention(r.Body, endpointVar(r.Body, m), m)
		if prev < 0 {
			continue
		}
		if joined {
			dst = append(dst, " AND "...)
		} else {
			dst = append(append(append(dst, '\n'), pad...), "WHERE "...)
			joined = true
		}
		dst = appendSQLEndpoint(dst, base, prev)
		dst = appendSQLEndpoint(append(dst, " = "...), base, m)
	}
	return dst
}

// endpointVar returns the variable at endpoint m of a rule body: the
// source (m even) or target (m odd) of conjunct m/2.
func endpointVar(body []query.Conjunct, m int) query.Var {
	if m%2 == 0 {
		return body[m/2].Src
	}
	return body[m/2].Dst
}

// firstMention returns the first endpoint before end that is the
// variable v, or -1.
func firstMention(body []query.Conjunct, v query.Var, end int) int {
	for m := 0; m < end; m++ {
		if endpointVar(body, m) == v {
			return m
		}
	}
	return -1
}

// appendSQLEndpoint appends the column c<base+m/2>_t.src or .trg of
// endpoint m; nothing for m < 0 (an unbound variable, which Validate
// rejects).
func appendSQLEndpoint(dst []byte, base, m int) []byte {
	if m < 0 {
		return dst
	}
	dst = appendInt(append(dst, 'c'), base+m/2)
	if m%2 == 0 {
		return append(dst, "_t.src"...)
	}
	return append(dst, "_t.trg"...)
}
