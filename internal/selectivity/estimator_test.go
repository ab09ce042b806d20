package selectivity

import (
	"testing"

	"gmark/internal/dist"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/schema"
)

// example33 is the schema of Example 3.3: types T1 (60%), T2 (20%),
// T3 (fixed 1); eta(T1,T1,a) = (gaussian, zipfian), eta(T1,T2,b) =
// (uniform, gaussian), eta(T2,T2,b) = (gaussian, ns),
// eta(T2,T3,b) = (ns, uniform).
func example33() *schema.Schema {
	return &schema.Schema{
		Types: []schema.NodeType{
			{Name: "T1", Occurrence: schema.Proportion(0.6)},
			{Name: "T2", Occurrence: schema.Proportion(0.2)},
			{Name: "T3", Occurrence: schema.Fixed(1)},
		},
		Predicates: []schema.Predicate{
			{Name: "a", Occurrence: schema.Proportion(0.5)},
			{Name: "b", Occurrence: schema.Proportion(0.5)},
		},
		Constraints: []schema.EdgeConstraint{
			{Source: "T1", Target: "T1", Predicate: "a",
				In: dist.NewGaussian(3, 1), Out: dist.NewZipfian(2)},
			{Source: "T1", Target: "T2", Predicate: "b",
				In: dist.NewUniform(1, 2), Out: dist.NewGaussian(2, 1)},
			{Source: "T2", Target: "T2", Predicate: "b",
				In: dist.NewGaussian(2, 1), Out: dist.Unspecified()},
			{Source: "T2", Target: "T3", Predicate: "b",
				In: dist.Unspecified(), Out: dist.NewUniform(1, 1)},
		},
	}
}

func newEst(t *testing.T) *Estimator {
	t.Helper()
	est, err := NewEstimator(example33())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestKinds(t *testing.T) {
	est := newEst(t)
	if est.Kind(0) != Many || est.Kind(1) != Many || est.Kind(2) != One {
		t.Error("Type kinds: T1,T2 grow; T3 fixed")
	}
	if est.NumTypes() != 3 {
		t.Error("NumTypes")
	}
}

// TestExample51 reproduces all eight base-triple derivations of
// Example 5.1.
func TestExample51(t *testing.T) {
	est := newEst(t)
	sym := func(p string, inv bool) regpath.Symbol { return regpath.Symbol{Pred: p, Inverse: inv} }
	cases := []struct {
		sym  regpath.Symbol
		a, b int
		want Triple
	}{
		{sym("a", false), 0, 0, Triple{Many, OpLess, Many}},   // sel_{T1,T1}(a)
		{sym("a", true), 0, 0, Triple{Many, OpGreater, Many}}, // sel_{T1,T1}(a-)
		{sym("b", false), 0, 1, Triple{Many, OpEq, Many}},     // sel_{T1,T2}(b)
		{sym("b", true), 1, 0, Triple{Many, OpEq, Many}},      // sel_{T2,T1}(b-)
		{sym("b", false), 1, 1, Triple{Many, OpEq, Many}},     // sel_{T2,T2}(b)
		{sym("b", true), 1, 1, Triple{Many, OpEq, Many}},      // sel_{T2,T2}(b-)
		{sym("b", false), 1, 2, Triple{Many, OpGreater, One}}, // sel_{T2,T3}(b)
		{sym("b", true), 2, 1, Triple{One, OpLess, Many}},     // sel_{T3,T2}(b-)
	}
	for _, c := range cases {
		m := est.SymbolMatrix(c.sym)
		got, ok := m.Get(c.a, c.b)
		if !ok {
			t.Errorf("sel_{%d,%d}(%s) undefined", c.a, c.b, c.sym)
			continue
		}
		if got != c.want {
			t.Errorf("sel_{%d,%d}(%s) = %v, want %v", c.a, c.b, c.sym, got, c.want)
		}
	}
}

func TestSymbolMatrixUndefinedCells(t *testing.T) {
	est := newEst(t)
	m := est.SymbolMatrix(regpath.Symbol{Pred: "a"})
	if _, ok := m.Get(1, 1); ok {
		t.Error("a-edges between T2,T2 are not allowed by the schema")
	}
	if _, ok := m.Get(0, 1); ok {
		t.Error("a-edges from T1 to T2 are not allowed")
	}
}

func TestForbiddenConstraintYieldsNoEdges(t *testing.T) {
	s := example33()
	in, out := dist.Unspecified(), dist.NewUniform(0, 0) // the "0" macro
	s.Constraints = append(s.Constraints, schema.EdgeConstraint{
		Source: "T3", Target: "T1", Predicate: "a", In: in, Out: out,
	})
	est, err := NewEstimator(s)
	if err != nil {
		t.Fatal(err)
	}
	m := est.SymbolMatrix(regpath.Symbol{Pred: "a"})
	if _, ok := m.Get(2, 0); ok {
		t.Error("the 0 macro should contribute no type edge")
	}
}

func TestPathMatrixComposition(t *testing.T) {
	est := newEst(t)
	// b.b from T1: T1 -b-> T2 -b-> {T2, T3}.
	m := est.PathMatrix(regpath.Path{{Pred: "b"}, {Pred: "b"}})
	if tr, ok := m.Get(0, 1); !ok || tr != (Triple{Many, OpEq, Many}) {
		t.Errorf("T1 -b.b-> T2 = %v ok=%v", tr, ok)
	}
	if tr, ok := m.Get(0, 2); !ok || tr != (Triple{Many, OpGreater, One}) {
		t.Errorf("T1 -b.b-> T3 = %v ok=%v", tr, ok)
	}
}

func TestExprMatrixDisjunction(t *testing.T) {
	est := newEst(t)
	// a + a-: < + > = diamond on (T1,T1).
	e := regpath.MustParse("(a+a-)")
	m, err := est.ExprMatrix(e)
	if err != nil {
		t.Fatal(err)
	}
	if tr, ok := m.Get(0, 0); !ok || tr != (Triple{Many, OpDiamond, Many}) {
		t.Errorf("a+a- on T1 = %v ok=%v", tr, ok)
	}
}

func TestExprMatrixStar(t *testing.T) {
	est := newEst(t)
	// (a+a-)* on T1: StarTriple(diamond) = x: quadratic.
	m, err := est.ExprMatrix(regpath.MustParse("(a+a-)*"))
	if err != nil {
		t.Fatal(err)
	}
	if tr, ok := m.Get(0, 0); !ok || tr != (Triple{Many, OpCross, Many}) {
		t.Errorf("(a+a-)* on T1 = %v ok=%v", tr, ok)
	}
	// The star's zero-length identity applies only to participating
	// types: T3 does not participate in a-paths.
	if _, ok := m.Get(2, 2); ok {
		t.Error("T3 should not participate in (a+a-)*")
	}
}

func TestQueryMatrixChain(t *testing.T) {
	est := newEst(t)
	// Example 5.4's spirit: a chain whose composed class is linear.
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 1, Dst: 2, Expr: regpath.MustParse("b")},
		},
	}}}
	alpha, ok, err := est.EstimateAlpha(q)
	if err != nil || !ok {
		t.Fatalf("estimate failed: ok=%v err=%v", ok, err)
	}
	if alpha != 1 {
		t.Errorf("alpha(a.b chain) = %d, want 1", alpha)
	}
	class, ok, err := est.EstimateClass(q)
	if err != nil || !ok || class != query.Linear {
		t.Errorf("class = %v ok=%v err=%v", class, ok, err)
	}
}

func TestQueryMatrixQuadratic(t *testing.T) {
	est := newEst(t)
	// a-.a : > . < = x on (T1,T1): quadratic.
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a-.a")}},
	}}}
	alpha, ok, err := est.EstimateAlpha(q)
	if err != nil || !ok {
		t.Fatalf("estimate failed: %v %v", ok, err)
	}
	if alpha != 2 {
		t.Errorf("alpha(a-.a) = %d, want 2", alpha)
	}
}

func TestQueryMatrixReversedHead(t *testing.T) {
	est := newEst(t)
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1, 0}, // (end, start)
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	alpha, ok, err := est.EstimateAlpha(q)
	if err != nil || !ok {
		t.Fatalf("reversed-head estimate failed: %v %v", ok, err)
	}
	if alpha != 1 {
		t.Errorf("alpha = %d", alpha)
	}
}

func TestEstimatorNotApplicable(t *testing.T) {
	est := newEst(t)
	// Non-binary query.
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("a")}},
	}}}
	if _, ok, _ := est.EstimateAlpha(q); ok {
		t.Error("unary queries are out of scope")
	}
	// Non-chain body (star shape).
	q2 := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 0, Dst: 2, Expr: regpath.MustParse("b")},
		},
	}}}
	if _, ok, _ := est.EstimateAlpha(q2); ok {
		t.Error("star bodies are out of scope")
	}
	// Head not on endpoints.
	q3 := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 1, Dst: 2, Expr: regpath.MustParse("b")},
		},
	}}}
	if _, ok, _ := est.EstimateAlpha(q3); ok {
		t.Error("interior heads are out of scope")
	}
}

func TestUnsatisfiableExpr(t *testing.T) {
	est := newEst(t)
	// b.a never type-checks: b ends in T2 or T3, a starts at T1.
	m, err := est.ExprMatrix(regpath.MustParse("b.a"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Defined() {
		t.Error("b.a should be unsatisfiable under the schema")
	}
	if _, any := m.MaxAlpha(); any {
		t.Error("MaxAlpha of empty matrix")
	}
}

func TestConstantLoop(t *testing.T) {
	// A dedicated schema with a fixed hub type: city pairs through a
	// growing type clamp to constant.
	s := &schema.Schema{
		Types: []schema.NodeType{
			{Name: "conf", Occurrence: schema.Proportion(1)},
			{Name: "city", Occurrence: schema.Fixed(100)},
		},
		Predicates: []schema.Predicate{{Name: "heldIn", Occurrence: schema.Proportion(1)}},
		Constraints: []schema.EdgeConstraint{
			{Source: "conf", Target: "city", Predicate: "heldIn",
				In: dist.NewZipfian(1.2), Out: dist.NewUniform(1, 1)},
		},
	}
	est, err := NewEstimator(s)
	if err != nil {
		t.Fatal(err)
	}
	// heldIn-.heldIn: city -> conf -> city.
	m, err := est.ExprMatrix(regpath.MustParse("heldIn-.heldIn"))
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := m.Get(1, 1)
	if !ok || tr.Alpha() != 0 {
		t.Errorf("city loop = %v ok=%v, want alpha 0", tr, ok)
	}
	// Its closure stays constant (Table 4's Query 1 pattern).
	ms, err := est.ExprMatrix(regpath.MustParse("(heldIn-.heldIn)*"))
	if err != nil {
		t.Fatal(err)
	}
	if a, any := ms.MaxAlpha(); !any || a != 0 {
		t.Errorf("(heldIn-.heldIn)* alpha = %d any=%v, want 0", a, any)
	}
}
