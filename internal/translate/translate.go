// Package translate renders gMark's UCRPQ queries into the four
// concrete syntaxes of Fig. 1: SPARQL 1.1, openCypher, PostgreSQL SQL
// (SQL:1999 recursive views, via the standard linear-recursion
// translation) and Datalog.
//
// Each syntax has exactly one renderer, written append-style: it
// writes the text straight into a caller-owned []byte (AppendTo) with
// no intermediate strings, so rendering into a buffer with spare
// capacity allocates nothing. To and the To<Syntax> functions are
// string(...) wrappers around the same renderers.
//
// The openCypher translator implements the documented restriction of
// Section 7.1: openCypher cannot express inverse or concatenation
// under a Kleene star, so starred sub-expressions keep only the first
// non-inverse symbol of their first disjunct; recursive openCypher
// queries therefore generally compute different answers than the other
// syntaxes.
package translate

import (
	"fmt"
	"strconv"
	"strings"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

// Syntax names one supported output language.
type Syntax string

// The supported syntaxes.
const (
	SPARQL     Syntax = "sparql"
	OpenCypher Syntax = "cypher"
	PostgreSQL Syntax = "sql"
	Datalog    Syntax = "datalog"
)

// Syntaxes lists all supported output syntaxes.
var Syntaxes = []Syntax{SPARQL, OpenCypher, PostgreSQL, Datalog}

// Supported reports whether s names a supported syntax.
func Supported(s Syntax) bool {
	switch s {
	case SPARQL, OpenCypher, PostgreSQL, Datalog:
		return true
	}
	return false
}

// ParseSyntax maps a syntax name (or common alias) to a Syntax.
func ParseSyntax(name string) (Syntax, error) {
	switch strings.ToLower(name) {
	case "sparql":
		return SPARQL, nil
	case "cypher", "opencypher":
		return OpenCypher, nil
	case "sql", "postgres", "postgresql":
		return PostgreSQL, nil
	case "datalog":
		return Datalog, nil
	}
	return "", fmt.Errorf("translate: unknown syntax %q", name)
}

// Options adjusts the rendered query.
type Options struct {
	// Count wraps the query in the count(distinct(v)) aggregate used by
	// the paper's measurement protocol (Section 7.1) to avoid measuring
	// result printing.
	Count bool
}

// AppendTo validates the query, appends its rendering in the named
// syntax to dst and returns the extended slice. On error dst is
// returned at its original length.
func AppendTo(dst []byte, s Syntax, q *query.Query, opt Options) ([]byte, error) {
	if err := q.Validate(); err != nil {
		return dst, err
	}
	switch s {
	case SPARQL:
		return appendSPARQL(dst, q, opt), nil
	case OpenCypher:
		return appendOpenCypher(dst, q, opt)
	case PostgreSQL:
		return appendPostgreSQL(dst, q, opt), nil
	case Datalog:
		return appendDatalog(dst, q, opt), nil
	default:
		return dst, fmt.Errorf("translate: unknown syntax %q", s)
	}
}

// To renders the query in the named syntax.
func To(s Syntax, q *query.Query, opt Options) (string, error) {
	// Most queries render into the stack scratch, leaving the string
	// conversion as the only allocation.
	var scratch [2048]byte
	b, err := AppendTo(scratch[:0], s, q, opt)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendInt appends n in decimal. Renderers mostly number variables,
// columns and predicates below 100, which take the two-digit path.
func appendInt(dst []byte, n int) []byte {
	switch {
	case uint(n) < 10:
		return append(dst, byte('0'+n))
	case uint(n) < 100:
		return append(dst, byte('0'+n/10), byte('0'+n%10))
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// appendName appends the variable as prefix followed by its index:
// ?x3, x3 or X3, depending on the language.
func appendName(dst []byte, prefix string, v query.Var) []byte {
	return appendInt(append(dst, prefix...), int(v))
}

// appendHead appends the head variables as prefix+index, separated by
// sep.
func appendHead(dst []byte, head []query.Var, prefix, sep string) []byte {
	for i, v := range head {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = appendName(dst, prefix, v)
	}
	return dst
}

// domainSide is one membership condition of a star's active domain:
// the nodes with an edge labeled pred at their source side, or at
// their target side.
type domainSide struct {
	pred string
	trg  bool
}

// starDomainSide returns the m-th candidate side of a starred
// expression's active domain, in the order every renderer lists them:
// per disjunct, the outgoing first-symbol side (m even) then the
// incoming last-symbol side (m odd). An epsilon disjunct contributes
// none, and a side equal to an earlier candidate is a duplicate; both
// report false. The zero-length path of the star matches exactly the
// nodes on one of these sides — the same rule the evaluator and the
// engines use.
func starDomainSide(e regpath.Expr, m int) (domainSide, bool) {
	side, ok := domainCandidate(e, m)
	if !ok {
		return side, false
	}
	for j := 0; j < m; j++ {
		if earlier, ok := domainCandidate(e, j); ok && earlier == side {
			return side, false
		}
	}
	return side, true
}

func domainCandidate(e regpath.Expr, m int) (domainSide, bool) {
	p := e.Paths[m/2]
	if len(p) == 0 {
		return domainSide{}, false
	}
	if m%2 == 0 {
		first := p[0]
		return domainSide{pred: first.Pred, trg: first.Inverse}, true
	}
	last := p[len(p)-1]
	return domainSide{pred: last.Pred, trg: !last.Inverse}, true
}
