package querygen

import (
	"fmt"
	"slices"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

// plainQuery draws one query of the given shape without selectivity
// control: skeleton first (Fig. 6, line 2), projection variables
// (line 3), then schema-typed placeholder instantiation (line 4). The
// arity and rule count are pre-drawn by the planning stage.
func (w *worker) plainQuery(shape query.Shape, arity, numRules int) (*query.Query, error) {
	q := &query.Query{Shape: shape}
	for r := 0; r < numRules; r++ {
		rule, relax, ok := w.ladder(func(window query.Interval) (query.Rule, bool) { return w.plainRule(shape, window) })
		if !ok {
			return nil, fmt.Errorf("querygen: could not instantiate %s rule under schema", shape)
		}
		q.Relaxed = q.Relaxed || relax > 0
		q.Rules = append(q.Rules, rule)
	}

	// Projection: a uniform random subset of each rule's variables, of
	// the drawn arity. All rules of a query share one arity, so it is
	// clamped to the fewest variables any rule has.
	vars := make([][]query.Var, len(q.Rules))
	for i := range q.Rules {
		vars[i] = ruleVars(&q.Rules[i])
		arity = min(arity, len(vars[i]))
	}
	for i := range q.Rules {
		q.Rules[i].Head = w.pickProjection(vars[i], arity)
	}
	return q, q.Validate()
}

// ruleVars lists a rule's variables in order of first occurrence.
func ruleVars(r *query.Rule) []query.Var {
	var vars []query.Var
	for _, c := range r.Body {
		for _, v := range []query.Var{c.Src, c.Dst} {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
	}
	return vars
}

// pickProjection draws arity of the variables vars (at most
// len(vars)) as a rule head, in ascending order.
func (w *worker) pickProjection(vars []query.Var, arity int) []query.Var {
	// Partial Fisher-Yates, then restore ascending order for
	// readability.
	for i := 0; i < arity; i++ {
		j := i + w.rng.Intn(len(vars)-i)
		vars[i], vars[j] = vars[j], vars[i]
	}
	head := append([]query.Var(nil), vars[:arity]...)
	slices.Sort(head)
	return head
}

// plainRule builds one rule body of the given shape.
func (w *worker) plainRule(shape query.Shape, window query.Interval) (query.Rule, bool) {
	numConjuncts := w.interval(w.g.cfg.Size.Conjuncts)
	switch shape {
	case query.Chain:
		body, _, ok := w.walkChain(numConjuncts, window)
		return query.Rule{Body: body}, ok
	case query.Star:
		return w.plainStar(numConjuncts, window)
	case query.Cycle:
		return w.plainCycle(numConjuncts, window)
	case query.StarChain:
		return w.plainStarChain(numConjuncts, window)
	default:
		return query.Rule{}, false
	}
}

// walkState instantiates conjuncts greedily along a type walk.
type walkState struct {
	w    *worker
	node int // current G_S identity node
}

func (w *worker) newWalk() walkState {
	start := w.g.startNodes[w.rng.Intn(len(w.g.startNodes))]
	return walkState{w: w, node: start}
}

func (w *worker) walkFromType(t int) walkState {
	return walkState{w: w, node: w.g.sg.IdentityNode(t)}
}

// typeOf returns the node type at the walk position.
func (ws *walkState) typeOf() int { return ws.w.g.sg.Nodes[ws.node].Type }

// anyType lets step's first path choose the conjunct's end type.
const anyType = -1

// step instantiates one conjunct expression ending on type endType
// (anyType: whichever type the first disjunct reaches) and advances
// the walk. With allowStar, with probability p_r the conjunct is
// starred and the walk stays on the same type.
func (ws *walkState) step(window query.Interval, allowStar bool, endType int) (regpath.Expr, bool) {
	w := ws.w
	sg := w.g.sg
	if allowStar && w.rng.Float64() < w.g.cfg.RecursionProb {
		expr, ok := w.starExpr(ws.node, window)
		if ok {
			return expr, true
		}
		// No loop back to this type: fall through to a plain step.
	}
	expr, ok := w.disjunction(func(int) (regpath.Path, bool) {
		if endType == anyType {
			p, end, ok := w.g.paths.SampleToAny(w.rng, ws.node, window.Min, window.Max)
			if ok {
				endType = sg.Nodes[end].Type
			}
			return p, ok
		}
		p, _, ok := w.g.paths.SampleToType(w.rng, ws.node, endType, window.Min, window.Max)
		return p, ok
	})
	if ok {
		ws.node = sg.IdentityNode(endType)
	}
	return expr, ok
}

// walkChain walks numConjuncts steps from a random start:
// (?x0,P1,?x1), (?x1,P2,?x2), ... It returns the body and the type of
// each variable x0 .. x_numConjuncts.
func (w *worker) walkChain(numConjuncts int, window query.Interval) ([]query.Conjunct, []int, bool) {
	ws := w.newWalk()
	types := make([]int, 1, numConjuncts+1)
	types[0] = ws.typeOf()
	var body []query.Conjunct
	for i := range numConjuncts {
		expr, ok := ws.step(window, true, anyType)
		if !ok {
			return nil, nil, false
		}
		body = append(body, query.Conjunct{Src: query.Var(i), Dst: query.Var(i + 1), Expr: expr})
		types = append(types, ws.typeOf())
	}
	return body, types, true
}

// plainStar: all conjuncts share the starting variable:
// (?x0,P1,?x1), (?x0,P2,?x2), ...
func (w *worker) plainStar(numConjuncts int, window query.Interval) (query.Rule, bool) {
	center := w.newWalk()
	var body []query.Conjunct
	for i := 0; i < numConjuncts; i++ {
		ws := w.walkFromType(center.typeOf())
		expr, ok := ws.step(window, true, anyType)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: 0, Dst: query.Var(i + 1), Expr: expr})
	}
	return query.Rule{Body: body}, true
}

// plainCycle: two chains sharing both endpoint variables.
func (w *worker) plainCycle(numConjuncts int, window query.Interval) (query.Rule, bool) {
	if numConjuncts < 2 {
		// A 1-conjunct cycle is a self-loop (?x0, P, ?x0); the schema
		// must admit a path returning to the start type.
		ws := w.newWalk()
		expr, ok := ws.step(window, false, ws.typeOf())
		return query.Rule{Body: []query.Conjunct{{Src: 0, Dst: 0, Expr: expr}}}, ok
	}
	// Forward chain x0 .. xm.
	m := (numConjuncts + 1) / 2
	body, types, ok := w.walkChain(m, window)
	if !ok {
		return query.Rule{}, false
	}
	// Second chain x0 -> ... -> xm with fresh intermediates; the last
	// conjunct is constrained to land on xm's type.
	ws := w.walkFromType(types[0])
	src := query.Var(0)
	for i := m + 1; i <= numConjuncts; i++ {
		dst, endType := query.Var(i), anyType
		if i == numConjuncts {
			dst, endType = query.Var(m), types[m]
		}
		expr, ok := ws.step(window, false, endType)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: src, Dst: dst, Expr: expr})
		src = dst
	}
	return query.Rule{Body: body}, true
}

// plainStarChain: a chain with star branches hanging off its joints.
func (w *worker) plainStarChain(numConjuncts int, window query.Interval) (query.Rule, bool) {
	chainLen := (numConjuncts + 1) / 2
	body, types, ok := w.walkChain(chainLen, window)
	if !ok {
		return query.Rule{}, false
	}
	for dst := chainLen + 1; dst <= numConjuncts; dst++ {
		at := w.rng.Intn(len(types))
		wb := w.walkFromType(types[at])
		expr, ok := wb.step(window, true, anyType)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: query.Var(at), Dst: query.Var(dst), Expr: expr})
	}
	return query.Rule{Body: body}, true
}
