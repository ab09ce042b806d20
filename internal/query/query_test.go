package query

import (
	"strings"
	"testing"

	"gmark/internal/regpath"
)

func example34() *Query {
	// The query of Example 3.4 (variables renumbered x0..x4):
	// (?x0,?x1,?x2) <- (?x0,(a.b+c)*,?x1),(?x1,a,?x3),(?x3,b-,?x2)
	// (?x0,?x1,?x2) <- (?x0,(a.b+c)*,?x1),(?x1,a,?x2)
	return &Query{
		Rules: []Rule{
			{
				Head: []Var{0, 1, 2},
				Body: []Conjunct{
					{Src: 0, Dst: 1, Expr: regpath.MustParse("(a.b+c)*")},
					{Src: 1, Dst: 3, Expr: regpath.MustParse("a")},
					{Src: 3, Dst: 2, Expr: regpath.MustParse("b-")},
				},
			},
			{
				Head: []Var{0, 1, 2},
				Body: []Conjunct{
					{Src: 0, Dst: 1, Expr: regpath.MustParse("(a.b+c)*")},
					{Src: 1, Dst: 2, Expr: regpath.MustParse("a")},
				},
			},
		},
	}
}

func TestShapeRoundTrip(t *testing.T) {
	for _, s := range []Shape{Chain, Star, Cycle, StarChain} {
		got, err := ParseShape(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("shape %v round trip = %v", s, got)
		}
	}
	if _, err := ParseShape("blob"); err == nil {
		t.Error("unknown shape should fail")
	}
	if got, _ := ParseShape("star-chain"); got != StarChain {
		t.Error("star-chain alias")
	}
}

func TestSelectivityClassRoundTrip(t *testing.T) {
	for _, c := range []SelectivityClass{Constant, Linear, Quadratic} {
		got, err := ParseSelectivityClass(c.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Errorf("class %v round trip = %v", c, got)
		}
	}
	if _, err := ParseSelectivityClass("cubic"); err == nil {
		t.Error("unknown class should fail")
	}
	if Constant.Alpha() != 0 || Linear.Alpha() != 1 || Quadratic.Alpha() != 2 {
		t.Error("Alpha values")
	}
}

func TestIntervalValidate(t *testing.T) {
	if err := (Interval{1, 3}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Interval{3, 1}).Validate(); err == nil {
		t.Error("inverted interval should fail")
	}
	if err := (Interval{-1, 1}).Validate(); err == nil {
		t.Error("negative interval should fail")
	}
}

func TestSizeValidate(t *testing.T) {
	ok := Size{
		Rules:     Interval{1, 1},
		Conjuncts: Interval{1, 3},
		Disjuncts: Interval{1, 2},
		Length:    Interval{1, 4},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Rules = Interval{0, 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero rules should fail")
	}
	bad = ok
	bad.Length = Interval{3, 1}
	if err := bad.Validate(); err == nil {
		t.Error("inverted length should fail")
	}
	// Zero-length paths are permitted.
	zeroLen := ok
	zeroLen.Length = Interval{0, 2}
	if err := zeroLen.Validate(); err != nil {
		t.Error(err)
	}
}

func TestQueryArity(t *testing.T) {
	q := example34()
	if q.Arity() != 3 {
		t.Errorf("arity = %d", q.Arity())
	}
	empty := &Query{}
	if empty.Arity() != 0 {
		t.Error("empty query arity")
	}
}

func TestQueryHasRecursion(t *testing.T) {
	q := example34()
	if !q.HasRecursion() {
		t.Error("example 3.4 has Kleene stars")
	}
	q2 := &Query{Rules: []Rule{{
		Head: []Var{0},
		Body: []Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	if q2.HasRecursion() {
		t.Error("no star here")
	}
}

func TestQueryMeasure(t *testing.T) {
	q := example34()
	m := q.Measure()
	if m.Rules.Min != 2 || m.Rules.Max != 2 {
		t.Errorf("rules = %v", m.Rules)
	}
	if m.Conjuncts.Min != 2 || m.Conjuncts.Max != 3 {
		t.Errorf("conjuncts = %v", m.Conjuncts)
	}
	if m.Disjuncts.Min != 1 || m.Disjuncts.Max != 2 {
		t.Errorf("disjuncts = %v", m.Disjuncts)
	}
	if m.Length.Min != 1 || m.Length.Max != 2 {
		t.Errorf("length = %v", m.Length)
	}
}

func TestQueryValidate(t *testing.T) {
	if err := example34().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    *Query
	}{
		{"no rules", &Query{}},
		{"arity mismatch", &Query{Rules: []Rule{
			{Head: []Var{0}, Body: []Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
			{Head: []Var{0, 1}, Body: []Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
		}}},
		{"empty body", &Query{Rules: []Rule{{Head: []Var{0}}}}},
		{"unbound head", &Query{Rules: []Rule{
			{Head: []Var{9}, Body: []Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
		}}},
		{"invalid expr", &Query{Rules: []Rule{
			{Head: []Var{0}, Body: []Conjunct{{Src: 0, Dst: 1, Expr: regpath.Expr{}}}},
		}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: should not validate", c.name)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := example34()
	s := q.String()
	if !strings.Contains(s, "(?x0, ?x1, ?x2) <- (?x0, (a.b+c)*, ?x1), (?x1, a, ?x3), (?x3, b-, ?x2)") {
		t.Errorf("String() = %q", s)
	}
	if strings.Count(s, "\n") != 1 {
		t.Errorf("expected two lines, got %q", s)
	}
}

func TestQueryPredicates(t *testing.T) {
	q := example34()
	got := q.Predicates()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("predicates = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predicates = %v", got)
		}
	}
}

func TestBooleanQueryValid(t *testing.T) {
	q := &Query{Rules: []Rule{{
		Body: []Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Arity() != 0 {
		t.Error("boolean query arity should be 0")
	}
}

func TestVarString(t *testing.T) {
	if Var(3).String() != "?x3" {
		t.Error("Var rendering")
	}
}

func TestConjunctString(t *testing.T) {
	c := Conjunct{Src: 0, Dst: 2, Expr: regpath.MustParse("a.b-")}
	if c.String() != "(?x0, a.b-, ?x2)" {
		t.Errorf("conjunct = %q", c.String())
	}
}
