// Package query implements the UCRPQ query model of gMark (paper,
// Section 3.3): unions of conjunctions of regular path queries, plus
// the workload-level vocabulary (shapes, selectivity classes, query
// size) used to constrain generated workloads.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"gmark/internal/regpath"
)

// Shape is the structural constraint f of a workload configuration.
type Shape uint8

const (
	// Chain queries link conjuncts linearly:
	// (?x0,P1,?x1),(?x1,P2,?x2),...
	Chain Shape = iota
	// Star queries share the starting variable across all conjuncts.
	Star
	// Cycle queries are two chains sharing both endpoint variables.
	Cycle
	// StarChain queries are chains with star branches at the joints.
	StarChain
)

// String returns the configuration-file name of the shape.
func (s Shape) String() string {
	switch s {
	case Chain:
		return "chain"
	case Star:
		return "star"
	case Cycle:
		return "cycle"
	case StarChain:
		return "starchain"
	default:
		return fmt.Sprintf("Shape(%d)", uint8(s))
	}
}

// ParseShape is the inverse of Shape.String.
func ParseShape(s string) (Shape, error) {
	switch strings.ToLower(s) {
	case "chain":
		return Chain, nil
	case "star":
		return Star, nil
	case "cycle":
		return Cycle, nil
	case "starchain", "star-chain":
		return StarChain, nil
	}
	return Chain, fmt.Errorf("query: unknown shape %q", s)
}

// SelectivityClass is the selectivity constraint e: the asymptotic
// growth class of |Q(G)| as a function of |G| (paper, Section 5.2.1).
type SelectivityClass uint8

const (
	// Constant queries: alpha ~ 0.
	Constant SelectivityClass = iota
	// Linear queries: alpha ~ 1.
	Linear
	// Quadratic queries: alpha ~ 2.
	Quadratic
)

// String returns the configuration-file name of the class.
func (c SelectivityClass) String() string {
	switch c {
	case Constant:
		return "constant"
	case Linear:
		return "linear"
	case Quadratic:
		return "quadratic"
	default:
		return fmt.Sprintf("SelectivityClass(%d)", uint8(c))
	}
}

// ParseSelectivityClass is the inverse of SelectivityClass.String.
func ParseSelectivityClass(s string) (SelectivityClass, error) {
	switch strings.ToLower(s) {
	case "constant":
		return Constant, nil
	case "linear":
		return Linear, nil
	case "quadratic":
		return Quadratic, nil
	}
	return Constant, fmt.Errorf("query: unknown selectivity class %q", s)
}

// Alpha returns the nominal selectivity value of the class (0, 1, 2).
func (c SelectivityClass) Alpha() int { return int(c) }

// Interval is a closed integer interval [Min, Max].
type Interval struct {
	Min, Max int
}

// Validate checks 0 <= Min <= Max.
func (iv Interval) Validate() error {
	if iv.Min < 0 || iv.Max < iv.Min {
		return fmt.Errorf("query: invalid interval [%d,%d]", iv.Min, iv.Max)
	}
	return nil
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Min, iv.Max) }

// Size is the query size tuple t = ([rmin,rmax], [cmin,cmax],
// [dmin,dmax], [lmin,lmax]) bounding the number of rules, conjuncts,
// disjuncts and path lengths (paper, Section 3.3).
type Size struct {
	Rules     Interval
	Conjuncts Interval
	Disjuncts Interval
	Length    Interval
}

// Validate checks all four intervals; rules, conjuncts and disjuncts
// must allow at least one.
func (t Size) Validate() error {
	for _, iv := range []struct {
		name string
		iv   Interval
		min1 bool
	}{
		{"rules", t.Rules, true},
		{"conjuncts", t.Conjuncts, true},
		{"disjuncts", t.Disjuncts, true},
		{"length", t.Length, false},
	} {
		if err := iv.iv.Validate(); err != nil {
			return fmt.Errorf("%s: %w", iv.name, err)
		}
		if iv.min1 && iv.iv.Min < 1 {
			return fmt.Errorf("query: %s interval must start at >= 1, got %s", iv.name, iv.iv)
		}
	}
	return nil
}

func (t Size) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s)", t.Rules, t.Conjuncts, t.Disjuncts, t.Length)
}

// Var is a query variable, identified by index; Var(0) renders as ?x0.
type Var int

func (v Var) String() string { return string(v.Append(nil)) }

// Append appends the String rendering to dst and returns the extended
// slice.
func (v Var) Append(dst []byte) []byte {
	return strconv.AppendInt(append(dst, "?x"...), int64(v), 10)
}

// Conjunct is one subgoal (?src, r, ?dst) of a rule body.
type Conjunct struct {
	Src, Dst Var
	Expr     regpath.Expr
}

func (c Conjunct) String() string { return string(c.Append(nil)) }

// Append appends the String rendering to dst and returns the extended
// slice.
func (c Conjunct) Append(dst []byte) []byte {
	dst = c.Src.Append(append(dst, '('))
	dst = c.Expr.Append(append(dst, ", "...))
	dst = c.Dst.Append(append(dst, ", "...))
	return append(dst, ')')
}

// Rule is one query rule head <- body.
type Rule struct {
	// Head lists the projection variables; empty for Boolean rules.
	Head []Var
	// Body is the non-empty list of conjuncts.
	Body []Conjunct
}

// String renders the rule in the paper's notation, e.g.
// "(?x0, ?x2) <- (?x0, a.b, ?x1), (?x1, c-, ?x2)".
func (r Rule) String() string { return string(r.Append(nil)) }

// Append appends the String rendering to dst and returns the extended
// slice.
func (r Rule) Append(dst []byte) []byte {
	dst = append(dst, '(')
	for i, v := range r.Head {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.Append(dst)
	}
	dst = append(dst, ") <- "...)
	for i, c := range r.Body {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = c.Append(dst)
	}
	return dst
}

// binds reports whether some conjunct of the body mentions v.
func (r Rule) binds(v Var) bool {
	for _, c := range r.Body {
		if c.Src == v || c.Dst == v {
			return true
		}
	}
	return false
}

// Query is a UCRPQ: a non-empty set of rules of equal arity.
type Query struct {
	Rules []Rule

	// Metadata recorded by the generator; not part of query semantics.

	// Shape is the structural family the query was generated from.
	Shape Shape
	// HasClass reports whether the generator targeted (and estimated) a
	// selectivity class for this query.
	HasClass bool
	// Class is the targeted/estimated selectivity class when HasClass.
	Class SelectivityClass
	// Relaxed reports that the generator had to relax some size
	// constraint to satisfy the selectivity constraint (Section 5.2.4).
	Relaxed bool
}

// Arity returns the common arity of the rules (0 for Boolean queries).
func (q *Query) Arity() int {
	if len(q.Rules) == 0 {
		return 0
	}
	return len(q.Rules[0].Head)
}

// HasRecursion reports whether any conjunct carries a Kleene star.
func (q *Query) HasRecursion() bool {
	for _, r := range q.Rules {
		for _, c := range r.Body {
			if c.Expr.Star {
				return true
			}
		}
	}
	return false
}

// Measure returns the actual size tuple of the query: exact rule count
// and the min/max ranges of conjuncts, disjuncts and path lengths
// observed, for checking generated queries against a Size constraint.
func (q *Query) Measure() Size {
	t := Size{
		Rules:     Interval{Min: len(q.Rules), Max: len(q.Rules)},
		Conjuncts: Interval{Min: 1 << 30},
		Disjuncts: Interval{Min: 1 << 30},
		Length:    Interval{Min: 1 << 30},
	}
	for _, r := range q.Rules {
		t.Conjuncts.Min = min(t.Conjuncts.Min, len(r.Body))
		t.Conjuncts.Max = max(t.Conjuncts.Max, len(r.Body))
		for _, c := range r.Body {
			t.Disjuncts.Min = min(t.Disjuncts.Min, c.Expr.NumDisjuncts())
			t.Disjuncts.Max = max(t.Disjuncts.Max, c.Expr.NumDisjuncts())
			for _, p := range c.Expr.Paths {
				t.Length.Min = min(t.Length.Min, len(p))
				t.Length.Max = max(t.Length.Max, len(p))
			}
		}
	}
	return t
}

// Validate checks the UCRPQ well-formedness conditions: at least one
// rule, equal arities, non-empty bodies, head variables bound in the
// body, and valid path expressions.
func (q *Query) Validate() error {
	if len(q.Rules) == 0 {
		return fmt.Errorf("query: no rules")
	}
	arity := len(q.Rules[0].Head)
	for i, r := range q.Rules {
		if len(r.Head) != arity {
			return fmt.Errorf("query: rule %d has arity %d, rule 0 has %d", i, len(r.Head), arity)
		}
		if len(r.Body) == 0 {
			return fmt.Errorf("query: rule %d has empty body", i)
		}
		for _, c := range r.Body {
			if err := c.Expr.Validate(); err != nil {
				return fmt.Errorf("query: rule %d: %w", i, err)
			}
		}
		for _, v := range r.Head {
			if !r.binds(v) {
				return fmt.Errorf("query: rule %d: head variable %s not bound in body", i, v)
			}
		}
	}
	return nil
}

// String renders all rules, one per line.
func (q *Query) String() string {
	var b []byte
	for i, r := range q.Rules {
		if i > 0 {
			b = append(b, '\n')
		}
		b = r.Append(b)
	}
	return string(b)
}

// Predicates returns the distinct predicate names used across the
// query, in first-use order.
func (q *Query) Predicates() []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range q.Rules {
		for _, c := range r.Body {
			for _, name := range c.Expr.Predicates() {
				if !seen[name] {
					seen[name] = true
					names = append(names, name)
				}
			}
		}
	}
	return names
}
