package schema

import (
	"strings"
	"testing"

	"gmark/internal/dist"
)

func bibSchema() Schema {
	return Schema{
		Types: []NodeType{
			{Name: "researcher", Occurrence: Proportion(0.5)},
			{Name: "paper", Occurrence: Proportion(0.3)},
			{Name: "city", Occurrence: Fixed(100)},
		},
		Predicates: []Predicate{
			{Name: "authors", Occurrence: Proportion(0.5)},
		},
		Constraints: []EdgeConstraint{
			{Source: "researcher", Target: "paper", Predicate: "authors",
				In: dist.NewGaussian(3, 1), Out: dist.NewZipfian(2.5)},
		},
	}
}

func TestOccurrenceCount(t *testing.T) {
	if got := Proportion(0.5).Count(1000); got != 500 {
		t.Errorf("50%% of 1000 = %d, want 500", got)
	}
	if got := Fixed(100).Count(1000000); got != 100 {
		t.Errorf("fixed 100 = %d", got)
	}
	if got := Proportion(0.333).Count(1000); got != 333 {
		t.Errorf("33.3%% of 1000 = %d, want 333", got)
	}
}

func TestOccurrenceValidate(t *testing.T) {
	for _, o := range []Occurrence{Proportion(0.5), Proportion(1), Fixed(0), Fixed(7)} {
		if err := o.Validate(); err != nil {
			t.Errorf("%v should validate: %v", o, err)
		}
	}
	for _, o := range []Occurrence{Proportion(0), Proportion(-0.1), Proportion(1.5), Fixed(-1)} {
		if err := o.Validate(); err == nil {
			t.Errorf("%v should not validate", o)
		}
	}
}

func TestOccurrenceString(t *testing.T) {
	if got := Proportion(0.5).String(); got != "50%" {
		t.Errorf("Proportion(0.5) = %q", got)
	}
	if got := Fixed(100).String(); !strings.Contains(got, "100") {
		t.Errorf("Fixed(100) = %q", got)
	}
}

func TestSchemaIndexLookups(t *testing.T) {
	s := bibSchema()
	if i := s.TypeIndex("paper"); i != 1 {
		t.Errorf("TypeIndex(paper) = %d", i)
	}
	if i := s.TypeIndex("nope"); i != -1 {
		t.Errorf("TypeIndex(nope) = %d", i)
	}
	if i := s.PredicateIndex("authors"); i != 0 {
		t.Errorf("PredicateIndex(authors) = %d", i)
	}
	if i := s.PredicateIndex("nope"); i != -1 {
		t.Errorf("PredicateIndex(nope) = %d", i)
	}
}

func TestSchemaValidateOK(t *testing.T) {
	s := bibSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Schema)
	}{
		{"no types", func(s *Schema) { s.Types = nil }},
		{"empty type name", func(s *Schema) { s.Types[0].Name = "" }},
		{"dup type", func(s *Schema) { s.Types[1].Name = s.Types[0].Name }},
		{"bad occurrence", func(s *Schema) { s.Types[0].Occurrence = Proportion(2) }},
		{"empty pred name", func(s *Schema) { s.Predicates[0].Name = "" }},
		// The edge list and its header split on whitespace, so such a
		// name would emit lines ReadEdgeList cannot parse.
		{"pred name with space", func(s *Schema) {
			s.Predicates[0].Name = "authored by"
			s.Constraints[0].Predicate = "authored by"
		}},
		{"pred name with tab", func(s *Schema) {
			s.Predicates[0].Name = "authored\tby"
			s.Constraints[0].Predicate = "authored\tby"
		}},
		{"type name with space", func(s *Schema) {
			s.Types[0].Name = "senior researcher"
			s.Constraints[0].Source = "senior researcher"
		}},
		{"type name with non-breaking space", func(s *Schema) {
			s.Types[2].Name = "big\u00a0city"
		}},
		{"unknown source", func(s *Schema) { s.Constraints[0].Source = "x" }},
		{"unknown target", func(s *Schema) { s.Constraints[0].Target = "x" }},
		{"unknown predicate", func(s *Schema) { s.Constraints[0].Predicate = "x" }},
		{"both nonspecified", func(s *Schema) {
			s.Constraints[0].In = dist.Unspecified()
			s.Constraints[0].Out = dist.Unspecified()
		}},
		{"bad in dist", func(s *Schema) { s.Constraints[0].In = dist.NewUniform(5, 1) }},
		{"dup constraint", func(s *Schema) {
			s.Constraints = append(s.Constraints, s.Constraints[0])
		}},
	}
	for _, c := range cases {
		s := bibSchema()
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: should not validate", c.name)
		}
	}
}

func TestGraphConfigValidate(t *testing.T) {
	cfg := GraphConfig{Nodes: 1000, Schema: bibSchema()}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero nodes should not validate")
	}
	cfg.Nodes = -5
	if err := cfg.Validate(); err == nil {
		t.Error("negative nodes should not validate")
	}
}

func TestTypeCount(t *testing.T) {
	cfg := GraphConfig{Nodes: 1000, Schema: bibSchema()}
	if got := cfg.TypeCount("researcher"); got != 500 {
		t.Errorf("researcher count = %d", got)
	}
	if got := cfg.TypeCount("city"); got != 100 {
		t.Errorf("city count = %d", got)
	}
	if got := cfg.TypeCount("missing"); got != 0 {
		t.Errorf("missing type count = %d", got)
	}
}

func TestCheckConsistency(t *testing.T) {
	s := Schema{
		Types: []NodeType{
			{Name: "a", Occurrence: Proportion(0.5)},
			{Name: "b", Occurrence: Proportion(0.5)},
		},
		Predicates: []Predicate{{Name: "p", Occurrence: Proportion(1)}},
		Constraints: []EdgeConstraint{
			// Out side expects 0.5n*4 = 2n edges; in side expects
			// 0.5n*1 = 0.5n: drift 75%.
			{Source: "a", Target: "b", Predicate: "p",
				In: dist.NewUniform(1, 1), Out: dist.NewUniform(4, 4)},
		},
	}
	cfg := GraphConfig{Nodes: 1000, Schema: s}
	warnings := cfg.CheckConsistency(0.1)
	if len(warnings) != 1 {
		t.Fatalf("expected 1 warning, got %d", len(warnings))
	}
	w := warnings[0]
	if w.ExpectedOut != 2000 || w.ExpectedIn != 500 {
		t.Errorf("expected out=2000 in=500, got %g/%g", w.ExpectedOut, w.ExpectedIn)
	}
	if w.RelativeDrift < 0.74 || w.RelativeDrift > 0.76 {
		t.Errorf("drift = %g", w.RelativeDrift)
	}
	if !strings.Contains(w.String(), "eta(a,b,p)") {
		t.Errorf("warning string = %q", w.String())
	}
	// A generous tolerance silences it.
	if ws := cfg.CheckConsistency(0.8); len(ws) != 0 {
		t.Errorf("tolerance 0.8 should pass, got %v", ws)
	}
}

func TestCheckConsistencyBalanced(t *testing.T) {
	s := bibSchema()
	// researcher(0.5n) x zipf(2.5) mean ~1.9 vs paper(0.3n) x gaussian
	// mean 3 = 0.9n: drift ~(0.97-0.9)/0.97, small.
	cfg := GraphConfig{Nodes: 10000, Schema: s}
	if ws := cfg.CheckConsistency(0.25); len(ws) != 0 {
		t.Errorf("bib authors constraint should be roughly consistent: %v", ws)
	}
}

func TestCheckConsistencySkipsNonSpecified(t *testing.T) {
	s := bibSchema()
	s.Constraints[0].In = dist.Unspecified()
	cfg := GraphConfig{Nodes: 1000, Schema: s}
	if ws := cfg.CheckConsistency(0); len(ws) != 0 {
		t.Errorf("half-specified constraints are never warned: %v", ws)
	}
}
