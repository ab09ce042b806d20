// Package schema implements gMark graph schemas and configurations
// (paper, Definitions 3.1, 3.2 and 3.5).
//
// A graph schema S = (Sigma, Theta, T, eta) consists of a predicate
// alphabet, a set of node types, occurrence constraints for both, and a
// partial function eta associating in- and out-degree distributions to
// (source type, target type, predicate) triples.
package schema

import (
	"fmt"
	"math"
	"strings"
	"unicode"

	"gmark/internal/dist"
)

// Occurrence is one constraint from T: either a proportion of the total
// graph size or a fixed constant number of occurrences (paper,
// Section 3.1: "half of the nodes should be authors, but a fixed number
// of nodes should be cities").
type Occurrence struct {
	// Proportional selects between the two interpretations.
	Proportional bool
	// Proportion of the graph size, in (0, 1], when Proportional.
	Proportion float64
	// Fixed number of occurrences when !Proportional.
	Fixed int
}

// Proportion returns an occurrence constraint expressed as a fraction
// of the graph size.
func Proportion(p float64) Occurrence {
	return Occurrence{Proportional: true, Proportion: p}
}

// Fixed returns an occurrence constraint with a constant count.
func Fixed(n int) Occurrence { return Occurrence{Fixed: n} }

// Count resolves the constraint against a graph of n nodes.
func (o Occurrence) Count(n int) int {
	if o.Proportional {
		return int(math.Round(o.Proportion * float64(n)))
	}
	return o.Fixed
}

// Validate checks the constraint parameters.
func (o Occurrence) Validate() error {
	if o.Proportional {
		if o.Proportion <= 0 || o.Proportion > 1 {
			return fmt.Errorf("schema: proportion must be in (0,1], got %g", o.Proportion)
		}
		return nil
	}
	if o.Fixed < 0 {
		return fmt.Errorf("schema: fixed occurrence must be >= 0, got %d", o.Fixed)
	}
	return nil
}

func (o Occurrence) String() string {
	if o.Proportional {
		return fmt.Sprintf("%g%%", o.Proportion*100)
	}
	return fmt.Sprintf("%d (fixed)", o.Fixed)
}

// NodeType is one element of Theta with its occurrence constraint.
type NodeType struct {
	Name       string
	Occurrence Occurrence
}

// Predicate is one element of Sigma with its occurrence constraint.
type Predicate struct {
	Name       string
	Occurrence Occurrence
}

// EdgeConstraint is one entry of eta: eta(Source, Target, Predicate) =
// (In, Out). Either distribution may be non-specified.
type EdgeConstraint struct {
	Source    string // source node type (element of Theta)
	Target    string // target node type (element of Theta)
	Predicate string // edge label (element of Sigma)

	In  dist.Distribution // in-degree distribution at Target
	Out dist.Distribution // out-degree distribution at Source
}

// Schema is Definition 3.1's tuple S = (Sigma, Theta, T, eta). The
// occurrence constraints T are attached to the predicate and type
// entries.
type Schema struct {
	Types       []NodeType
	Predicates  []Predicate
	Constraints []EdgeConstraint
}

// TypeIndex returns the position of the named type in Types, or -1.
func (s *Schema) TypeIndex(name string) int {
	for i := range s.Types {
		if s.Types[i].Name == name {
			return i
		}
	}
	return -1
}

// PredicateIndex returns the position of the named predicate, or -1.
func (s *Schema) PredicateIndex(name string) int {
	for i := range s.Predicates {
		if s.Predicates[i].Name == name {
			return i
		}
	}
	return -1
}

// Validate checks referential integrity of the schema: every constraint
// references known types and predicates, names are non-empty and free
// of whitespace, occurrence parameters are legal, and every eta entry
// has at least one specified side.
func (s *Schema) Validate() error {
	if len(s.Types) == 0 {
		return fmt.Errorf("schema: no node types")
	}
	seenT := make(map[string]bool, len(s.Types))
	for _, t := range s.Types {
		if err := checkName("type", t.Name); err != nil {
			return err
		}
		if seenT[t.Name] {
			return fmt.Errorf("schema: duplicate type %q", t.Name)
		}
		seenT[t.Name] = true
		if err := t.Occurrence.Validate(); err != nil {
			return fmt.Errorf("type %q: %w", t.Name, err)
		}
	}
	seenP := make(map[string]bool, len(s.Predicates))
	for _, p := range s.Predicates {
		if err := checkName("predicate", p.Name); err != nil {
			return err
		}
		if seenP[p.Name] {
			return fmt.Errorf("schema: duplicate predicate %q", p.Name)
		}
		seenP[p.Name] = true
		if err := p.Occurrence.Validate(); err != nil {
			return fmt.Errorf("predicate %q: %w", p.Name, err)
		}
	}
	seenC := make(map[[3]string]bool, len(s.Constraints))
	for _, c := range s.Constraints {
		if !seenT[c.Source] {
			return fmt.Errorf("schema: constraint references unknown source type %q", c.Source)
		}
		if !seenT[c.Target] {
			return fmt.Errorf("schema: constraint references unknown target type %q", c.Target)
		}
		if !seenP[c.Predicate] {
			return fmt.Errorf("schema: constraint references unknown predicate %q", c.Predicate)
		}
		key := [3]string{c.Source, c.Target, c.Predicate}
		if seenC[key] {
			return fmt.Errorf("schema: duplicate constraint eta(%s,%s,%s)", c.Source, c.Target, c.Predicate)
		}
		seenC[key] = true
		if err := c.In.Validate(); err != nil {
			return fmt.Errorf("eta(%s,%s,%s) in-distribution: %w", c.Source, c.Target, c.Predicate, err)
		}
		if err := c.Out.Validate(); err != nil {
			return fmt.Errorf("eta(%s,%s,%s) out-distribution: %w", c.Source, c.Target, c.Predicate, err)
		}
		if !c.In.Specified() && !c.Out.Specified() {
			return fmt.Errorf("eta(%s,%s,%s): both distributions non-specified", c.Source, c.Target, c.Predicate)
		}
	}
	return nil
}

// checkName rejects a type or predicate name that the textual outputs
// cannot carry: the edge list and its header are whitespace-separated,
// so a name must be one non-empty run of non-space characters.
func checkName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("schema: empty %s name", kind)
	}
	if strings.IndexFunc(name, unicode.IsSpace) >= 0 {
		return fmt.Errorf("schema: %s name %q contains whitespace", kind, name)
	}
	return nil
}

// GraphConfig is Definition 3.2's pair G = (n, S).
type GraphConfig struct {
	Nodes  int // n, the number of nodes
	Schema Schema
}

// Validate checks the configuration.
func (g *GraphConfig) Validate() error {
	if g.Nodes <= 0 {
		return fmt.Errorf("schema: graph size must be positive, got %d", g.Nodes)
	}
	return g.Schema.Validate()
}

// TypeCount resolves the number of nodes of the given type for this
// configuration's size.
func (g *GraphConfig) TypeCount(typeName string) int {
	i := g.Schema.TypeIndex(typeName)
	if i < 0 {
		return 0
	}
	return g.Schema.Types[i].Occurrence.Count(g.Nodes)
}

// ConsistencyWarning describes an eta entry whose in- and out-degree
// parameters imply different edge counts, so the generator will trim to
// the smaller side (paper, Section 4: "whenever the two vectors have
// different sizes, the generated graph may contain nodes that do not
// satisfy the precise values dictated by the in- or out-distributions").
type ConsistencyWarning struct {
	Constraint    EdgeConstraint
	ExpectedOut   float64 // expected #edges implied by the out-distribution
	ExpectedIn    float64 // expected #edges implied by the in-distribution
	RelativeDrift float64 // |out-in| / max(out,in)
}

func (w ConsistencyWarning) String() string {
	c := w.Constraint
	return fmt.Sprintf("eta(%s,%s,%s): out-side expects %.1f edges, in-side expects %.1f (drift %.0f%%)",
		c.Source, c.Target, c.Predicate, w.ExpectedOut, w.ExpectedIn, w.RelativeDrift*100)
}

// CheckConsistency performs the in/out compatibility check discussed in
// Section 3.2: for every fully-specified eta entry it compares the
// expected number of generated outgoing edges (#source nodes times mean
// out-degree) with the expected number of incoming edges, and reports
// entries drifting more than tolerance (a fraction, e.g. 0.1 for 10%).
func (g *GraphConfig) CheckConsistency(tolerance float64) []ConsistencyWarning {
	var warnings []ConsistencyWarning
	for _, c := range g.Schema.Constraints {
		if !c.In.Specified() || !c.Out.Specified() {
			continue
		}
		nSrc := float64(g.TypeCount(c.Source))
		nTrg := float64(g.TypeCount(c.Target))
		expOut := nSrc * c.Out.Mean()
		expIn := nTrg * c.In.Mean()
		max := math.Max(expOut, expIn)
		if max == 0 {
			continue
		}
		drift := math.Abs(expOut-expIn) / max
		if drift > tolerance {
			warnings = append(warnings, ConsistencyWarning{
				Constraint:    c,
				ExpectedOut:   expOut,
				ExpectedIn:    expIn,
				RelativeDrift: drift,
			})
		}
	}
	return warnings
}
