package regpath

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// equalExpr reports structural equality of two expressions.
func equalExpr(e, f Expr) bool {
	return e.Star == f.Star && slices.EqualFunc(e.Paths, f.Paths, Path.Equal)
}

func TestSymbolString(t *testing.T) {
	if got := (Symbol{Pred: "a"}).String(); got != "a" {
		t.Errorf("a = %q", got)
	}
	if got := (Symbol{Pred: "a", Inverse: true}).String(); got != "a-" {
		t.Errorf("a- = %q", got)
	}
}

func TestSymbolInv(t *testing.T) {
	s := Symbol{Pred: "a"}
	if s.Inv() != (Symbol{Pred: "a", Inverse: true}) {
		t.Error("Inv broken")
	}
	if s.Inv().Inv() != s {
		t.Error("double Inv should be identity")
	}
}

func TestPathString(t *testing.T) {
	if got := (Path{}).String(); got != "eps" {
		t.Errorf("empty path = %q", got)
	}
	p := Path{{Pred: "a"}, {Pred: "b", Inverse: true}, {Pred: "c"}}
	if got := p.String(); got != "a.b-.c" {
		t.Errorf("path = %q", got)
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Expr{Paths: []Path{{{Pred: "a"}}}}, "a"},
		{Expr{Paths: []Path{{{Pred: "a"}, {Pred: "b"}}}}, "a.b"},
		{Expr{Paths: []Path{{{Pred: "a"}}, {{Pred: "b"}}}}, "(a+b)"},
		{Expr{Paths: []Path{{{Pred: "a"}}}, Star: true}, "(a)*"},
		{Expr{Paths: []Path{{{Pred: "a"}, {Pred: "b"}}, {{Pred: "c"}}}, Star: true}, "(a.b+c)*"},
		{Expr{Paths: []Path{{}}}, "eps"},
		{Expr{Paths: []Path{{}, {{Pred: "a"}}}}, "(eps+a)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseBasics(t *testing.T) {
	cases := []string{
		"a",
		"a-",
		"a.b",
		"a.b-.c",
		"(a+b)",
		"(a.b+c)*",
		"(a)*",
		"eps",
		"(eps+a)",
		"(knows.worksAt-+livesIn)*",
	}
	for _, s := range cases {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", s, e.String(), err)
		}
		if !equalExpr(e, back) {
			t.Errorf("round trip of %q: %q != %q", s, e.String(), back.String())
		}
	}
}

func TestParseWhitespace(t *testing.T) {
	e, err := Parse("  ( a . b  +  c )* ")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a.b+c)*" {
		t.Errorf("parsed = %q", e.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(a",
		"a+",
		"a..b",
		"a b",
		"(a)**",
		"*",
		"a-*", // star only allowed after a parenthesized group
		"a+*b",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseEpsPrefixIdent(t *testing.T) {
	// "epsilon" is a valid predicate name, not the eps keyword.
	e, err := Parse("epsilon")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Paths) != 1 || len(e.Paths[0]) != 1 || e.Paths[0][0].Pred != "epsilon" {
		t.Errorf("parsed %v", e)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("(((")
}

func TestPredicates(t *testing.T) {
	got := MustParse("(a.b-+b.c)*").Predicates()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("predicates = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predicates = %v, want %v", got, want)
		}
	}
}

func TestNumDisjuncts(t *testing.T) {
	if got := MustParse("(a+b+c)").NumDisjuncts(); got != 3 {
		t.Errorf("disjuncts = %d", got)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := (Expr{}).Validate(); err == nil {
		t.Error("empty expression should not validate")
	}
	if err := MustParse("a").Validate(); err != nil {
		t.Error(err)
	}
}

// randomExpr builds a random well-formed expression for the round-trip
// property test.
func randomExpr(r *rand.Rand) Expr {
	preds := []string{"a", "bc", "d_1", "knows"}
	numPaths := 1 + r.Intn(3)
	e := Expr{Star: r.Intn(2) == 0}
	for i := 0; i < numPaths; i++ {
		plen := r.Intn(4) // zero-length paths allowed
		var p Path
		for j := 0; j < plen; j++ {
			p = append(p, Symbol{Pred: preds[r.Intn(len(preds))], Inverse: r.Intn(2) == 0})
		}
		e.Paths = append(e.Paths, p)
	}
	return e
}

// Property: Parse(e.String()) == e for arbitrary well-formed
// expressions.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		e := randomExpr(r)
		parsed, err := Parse(e.String())
		if err != nil {
			t.Logf("failed to parse %q: %v", e.String(), err)
			return false
		}
		return equalExpr(parsed, e)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
