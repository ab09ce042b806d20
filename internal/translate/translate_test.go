package translate

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

func simpleQuery(exprs ...string) *query.Query {
	var body []query.Conjunct
	for i, e := range exprs {
		body = append(body, query.Conjunct{
			Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e),
		})
	}
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, query.Var(len(exprs))},
		Body: body,
	}}}
}

func TestToDispatch(t *testing.T) {
	q := simpleQuery("a")
	for _, s := range Syntaxes {
		out, err := To(s, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out == "" {
			t.Errorf("%s produced empty output", s)
		}
	}
	if _, err := To("prolog", q, Options{}); err == nil {
		t.Error("unknown syntax should fail")
	}
	if _, err := To(SPARQL, &query.Query{}, Options{}); err == nil {
		t.Error("invalid query should fail")
	}
}

// --- SPARQL ---

func TestSPARQLBasic(t *testing.T) {
	out, err := To(SPARQL, simpleQuery("a.b-", "c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SELECT DISTINCT ?x0 ?x2",
		"?x0 (:a/^:b) ?x1 .",
		"?x1 :c ?x2 .",
		"PREFIX : <http://gmark.example.org/pred/>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SPARQL output missing %q:\n%s", want, out)
		}
	}
}

func TestSPARQLDisjunctionAndStar(t *testing.T) {
	out, err := To(SPARQL, simpleQuery("(a.b+c)*"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "((:a/:b)|:c)*") {
		t.Errorf("property path wrong:\n%s", out)
	}
}

func TestSPARQLUnionRules(t *testing.T) {
	q := &query.Query{Rules: []query.Rule{
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}}},
		{Head: []query.Var{0, 1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("b")}}},
	}}
	out, err := To(SPARQL, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UNION") {
		t.Errorf("expected UNION:\n%s", out)
	}
}

func TestSPARQLAsk(t *testing.T) {
	q := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	out, err := To(SPARQL, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.SplitN(out, "\n", 2)[1], "ASK") {
		t.Errorf("expected ASK:\n%s", out)
	}
}

func TestSPARQLCount(t *testing.T) {
	out, err := To(SPARQL, simpleQuery("a"), Options{Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "COUNT(*)") || !strings.Contains(out, "SELECT DISTINCT ?x0 ?x1") {
		t.Errorf("count wrapper wrong:\n%s", out)
	}
}

func TestSPARQLEpsilonOnly(t *testing.T) {
	out, err := To(SPARQL, simpleQuery("eps"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FILTER(?x0 = ?x1)") {
		t.Errorf("epsilon conjunct should become a filter:\n%s", out)
	}
}

func TestSPARQLEpsilonDisjunct(t *testing.T) {
	out, err := To(SPARQL, simpleQuery("(eps+a)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(:a)?") {
		t.Errorf("eps+a should render as optional path:\n%s", out)
	}
}

// --- openCypher ---

func TestCypherBasic(t *testing.T) {
	out, err := To(OpenCypher, simpleQuery("a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MATCH (x0)-[:a]->(x1)", "RETURN DISTINCT x0, x1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Cypher missing %q:\n%s", want, out)
		}
	}
}

func TestCypherInverseAndPath(t *testing.T) {
	out, err := To(OpenCypher, simpleQuery("a-.b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(x0)<-[:a]-(") || !strings.Contains(out, "-[:b]->(x1)") {
		t.Errorf("inverse path wrong:\n%s", out)
	}
}

func TestCypherSingleSymbolDisjunction(t *testing.T) {
	out, err := To(OpenCypher, simpleQuery("(a+b)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[:a|b]") {
		t.Errorf("single-symbol alternation should use [:a|b]:\n%s", out)
	}
}

func TestCypherMultiSymbolDisjunctionExpands(t *testing.T) {
	out, err := To(OpenCypher, simpleQuery("(a.b+c)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "UNION") != 1 {
		t.Errorf("expected 2 branches:\n%s", out)
	}
}

func TestCypherStarRestriction(t *testing.T) {
	// Section 7.1: under a star only the first non-inverse symbol of a
	// concatenation survives.
	out, err := To(OpenCypher, simpleQuery("(a-.b)*"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[:b*0..]") {
		t.Errorf("restricted star should keep b:\n%s", out)
	}
	out2, err := To(OpenCypher, simpleQuery("(a.b+c)*"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "[:a*0..]") {
		t.Errorf("restricted star should keep first non-inverse a:\n%s", out2)
	}
}

func TestCypherCount(t *testing.T) {
	out, err := To(OpenCypher, simpleQuery("a"), Options{Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "count(DISTINCT [x0, x1])") {
		t.Errorf("count wrapper wrong:\n%s", out)
	}
}

// --- PostgreSQL ---

func TestSQLBasic(t *testing.T) {
	out, err := To(PostgreSQL, simpleQuery("a.b-"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"WITH c0(src, trg) AS",
		"e0.label = 'a'",
		"e1.label = 'b'",
		"e0.trg = e1.trg", // the inverse join condition
		"SELECT DISTINCT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SQL missing %q:\n%s", want, out)
		}
	}
}

func TestSQLRecursive(t *testing.T) {
	out, err := To(PostgreSQL, simpleQuery("(a)*"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"WITH RECURSIVE",
		"c0_step(src, trg) AS",
		"UNION",
		"JOIN c0_step s ON r.trg = s.src",
		"SELECT src AS n FROM edge WHERE label = 'a'",
		"SELECT trg AS n FROM edge WHERE label = 'a'",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("recursive SQL missing %q:\n%s", want, out)
		}
	}
}

func TestSQLJoinConditions(t *testing.T) {
	out, err := To(PostgreSQL, simpleQuery("a", "b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "c0_t.trg = c1_t.src") &&
		!strings.Contains(out, "c1_t.src = c0_t.trg") {
		t.Errorf("missing join condition between conjuncts:\n%s", out)
	}
}

func TestSQLCountAndBoolean(t *testing.T) {
	out, err := To(PostgreSQL, simpleQuery("a"), Options{Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SELECT COUNT(*) AS cnt") {
		t.Errorf("count wrapper wrong:\n%s", out)
	}
	boolean := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	out2, err := To(PostgreSQL, boolean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "SELECT EXISTS") {
		t.Errorf("boolean should use EXISTS:\n%s", out2)
	}
}

func TestSQLEpsilonPath(t *testing.T) {
	out, err := To(PostgreSQL, simpleQuery("(eps+a)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SELECT id AS src, id AS trg FROM node") {
		t.Errorf("epsilon should select the identity:\n%s", out)
	}
}

// --- Datalog ---

func TestDatalogBasic(t *testing.T) {
	out, err := To(Datalog, simpleQuery("a.b-", "c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"p0(X, Y) :- a(X, Z1), b(Y, Z1).",
		"p1(X, Y) :- c(X, Y).",
		"ans(X0, X2) :- p0(X0, X1), p1(X1, X2).",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Datalog missing %q:\n%s", want, out)
		}
	}
}

func TestDatalogRecursive(t *testing.T) {
	out, err := To(Datalog, simpleQuery("(a)*"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"p0_step(X, Y) :- a(X, Y).",
		"p0(X, X) :- a(X, _).",
		"p0(X, X) :- a(_, X).",
		"p0(X, Y) :- p0(X, Z), p0_step(Z, Y).",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("recursive Datalog missing %q:\n%s", want, out)
		}
	}
}

func TestDatalogDisjuncts(t *testing.T) {
	out, err := To(Datalog, simpleQuery("(a+b.c)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "p0(X, Y) :- a(X, Y).") ||
		!strings.Contains(out, "p0(X, Y) :- b(X, Z") {
		t.Errorf("disjunct rules missing:\n%s", out)
	}
}

func TestDatalogBoolean(t *testing.T) {
	boolean := &query.Query{Rules: []query.Rule{{
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	out, err := To(Datalog, boolean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ans :- p0(X0, X1).") {
		t.Errorf("boolean head wrong:\n%s", out)
	}
}

// TestAllSyntaxesOnGeneratedShapes smoke-translates a variety of
// query shapes into every syntax.
func TestAllSyntaxesOnShapes(t *testing.T) {
	queries := []*query.Query{
		simpleQuery("a"),
		simpleQuery("(a+b)", "c-"),
		simpleQuery("(a.b)*"),
		{Rules: []query.Rule{{ // star shape, arity 3
			Head: []query.Var{0, 1, 2},
			Body: []query.Conjunct{
				{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
				{Src: 0, Dst: 2, Expr: regpath.MustParse("b.c")},
			},
		}}},
	}
	for qi, q := range queries {
		for _, s := range Syntaxes {
			out, err := To(s, q, Options{Count: qi%2 == 0})
			if err != nil {
				t.Errorf("query %d to %s: %v", qi, s, err)
				continue
			}
			if len(out) == 0 {
				t.Errorf("query %d to %s: empty", qi, s)
			}
		}
	}
}

// TestAppendIntMatchesStrconv checks appendInt's one- and two-digit
// fast paths and the strconv fallback against strconv.AppendInt: every
// value below 1000 (so the 9/10 and 99/100 boundaries), then large and
// negative values, appended behind a prefix.
func TestAppendIntMatchesStrconv(t *testing.T) {
	// 1<<31 is the largest int instead on a 32-bit platform.
	ns := []int{65535, int(min(1<<31, int64(math.MaxInt))), math.MaxInt, -1, -9, -10, -99, -100, math.MinInt}
	for n := 0; n < 1000; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		got := appendInt([]byte("p"), n)
		if want := strconv.AppendInt([]byte("p"), int64(n), 10); string(got) != string(want) {
			t.Errorf("appendInt(%d) = %q, want %q", n, got, want)
		}
	}
}
