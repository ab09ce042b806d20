package querygen

import (
	"fmt"

	"gmark/internal/query"
	"gmark/internal/regpath"
)

// plainQuery draws one query of the given shape without selectivity
// control: skeleton first (Fig. 6, line 2), projection variables
// (line 3), then schema-typed placeholder instantiation (line 4). The
// arity and rule count are decided by the caller (the planning stage
// pre-draws them; the sequential API draws them from its own stream).
func (w *worker) plainQuery(shape query.Shape, arity, numRules int) (*query.Query, error) {
	q := &query.Query{Shape: shape}

	for r := 0; r < numRules; r++ {
		var rule query.Rule
		var ok bool
		for attempt := 0; attempt < attemptsPerQuery*(maxRelaxation+1); attempt++ {
			relax := attempt / attemptsPerQuery
			window := w.g.lengthWindow(relax)
			rule, ok = w.plainRule(shape, window)
			if ok {
				if relax > 0 {
					q.Relaxed = true
				}
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("querygen: could not instantiate %s rule under schema", shape)
		}
		q.Rules = append(q.Rules, rule)
	}

	// Projection: a uniform random subset of each rule's variables, of
	// the drawn arity (clamped to the variable count).
	for i := range q.Rules {
		q.Rules[i].Head = w.pickProjection(&q.Rules[i], arity)
	}
	return q, q.Validate()
}

// pickProjection draws head variables for a rule.
func (w *worker) pickProjection(r *query.Rule, arity int) []query.Var {
	seen := map[query.Var]bool{}
	var vars []query.Var
	for _, c := range r.Body {
		for _, v := range []query.Var{c.Src, c.Dst} {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	if arity > len(vars) {
		arity = len(vars)
	}
	// Partial Fisher-Yates, then restore ascending order for
	// readability.
	for i := 0; i < arity; i++ {
		j := i + w.rng.Intn(len(vars)-i)
		vars[i], vars[j] = vars[j], vars[i]
	}
	head := append([]query.Var(nil), vars[:arity]...)
	for i := 1; i < len(head); i++ {
		for j := i; j > 0 && head[j] < head[j-1]; j-- {
			head[j], head[j-1] = head[j-1], head[j]
		}
	}
	return head
}

// plainRule builds one rule body of the given shape.
func (w *worker) plainRule(shape query.Shape, window query.Interval) (query.Rule, bool) {
	numConjuncts := w.interval(w.g.cfg.Size.Conjuncts)
	switch shape {
	case query.Chain:
		return w.plainChain(numConjuncts, window)
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

// step instantiates one conjunct expression and advances the walk.
// With probability p_r the conjunct is starred and the walk stays on
// the same type.
func (ws *walkState) step(window query.Interval, allowStar bool) (regpath.Expr, bool) {
	w := ws.w
	sg := w.g.sg
	if allowStar && w.rng.Float64() < w.g.cfg.RecursionProb {
		expr, ok := w.starExpr(ws.node, window)
		if ok {
			return expr, true
		}
		// No loop back to this type: fall through to a plain step.
	}
	numDisjuncts := w.interval(w.g.cfg.Size.Disjuncts)
	first, end, ok := w.g.paths.SampleToAny(w.rng, ws.node, window.Min, window.Max)
	if !ok {
		return regpath.Expr{}, false
	}
	endType := sg.Nodes[end].Type
	paths := []regpath.Path{first}
	for d := 1; d < numDisjuncts; d++ {
		p, _, ok := w.g.paths.SampleToType(w.rng, ws.node, endType, window.Min, window.Max)
		if !ok {
			break
		}
		if !containsPath(paths, p) {
			paths = append(paths, p)
		}
	}
	ws.node = sg.IdentityNode(endType)
	return regpath.Expr{Paths: paths}, true
}

// stepToType instantiates one conjunct constrained to end on a given
// type (used to close cycles).
func (ws *walkState) stepToType(window query.Interval, endType int) (regpath.Expr, bool) {
	w := ws.w
	sg := w.g.sg
	numDisjuncts := w.interval(w.g.cfg.Size.Disjuncts)
	var paths []regpath.Path
	for d := 0; d < numDisjuncts; d++ {
		p, _, ok := w.g.paths.SampleToType(w.rng, ws.node, endType, window.Min, window.Max)
		if !ok {
			if d == 0 {
				return regpath.Expr{}, false
			}
			break
		}
		if !containsPath(paths, p) {
			paths = append(paths, p)
		}
	}
	ws.node = sg.IdentityNode(endType)
	return regpath.Expr{Paths: paths}, true
}

// plainChain: (?x0,P1,?x1), (?x1,P2,?x2), ...
func (w *worker) plainChain(numConjuncts int, window query.Interval) (query.Rule, bool) {
	ws := w.newWalk()
	var body []query.Conjunct
	cur := query.Var(0)
	for i := 0; i < numConjuncts; i++ {
		expr, ok := ws.step(window, true)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: cur, Dst: cur + 1, Expr: expr})
		cur++
	}
	return query.Rule{Body: body}, true
}

// plainStar: all conjuncts share the starting variable:
// (?x0,P1,?x1), (?x0,P2,?x2), ...
func (w *worker) plainStar(numConjuncts int, window query.Interval) (query.Rule, bool) {
	center := w.newWalk()
	centerType := center.typeOf()
	var body []query.Conjunct
	for i := 0; i < numConjuncts; i++ {
		ws := w.walkFromType(centerType)
		expr, ok := ws.step(window, true)
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
		t := ws.typeOf()
		expr, ok := ws.stepToType(window, t)
		if !ok {
			return query.Rule{}, false
		}
		return query.Rule{Body: []query.Conjunct{{Src: 0, Dst: 0, Expr: expr}}}, true
	}
	c1 := (numConjuncts + 1) / 2
	c2 := numConjuncts - c1

	// Forward chain x0 .. xm.
	ws := w.newWalk()
	startType := ws.typeOf()
	var body []query.Conjunct
	cur := query.Var(0)
	for i := 0; i < c1; i++ {
		expr, ok := ws.step(window, true)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: cur, Dst: cur + 1, Expr: expr})
		cur++
	}
	endVar, endType := cur, ws.typeOf()

	// Second chain x0 -> ... -> xm with fresh intermediates; the last
	// conjunct is constrained to land on the end type.
	ws2 := w.walkFromType(startType)
	prev := query.Var(0)
	for i := 0; i < c2; i++ {
		last := i == c2-1
		var expr regpath.Expr
		var ok bool
		if last {
			expr, ok = ws2.stepToType(window, endType)
		} else {
			expr, ok = ws2.step(window, false)
		}
		if !ok {
			return query.Rule{}, false
		}
		dst := endVar + query.Var(i) + 1
		if last {
			dst = endVar
		}
		body = append(body, query.Conjunct{Src: prev, Dst: dst, Expr: expr})
		prev = dst
	}
	return query.Rule{Body: body}, true
}

// plainStarChain: a chain with star branches hanging off its joints.
func (w *worker) plainStarChain(numConjuncts int, window query.Interval) (query.Rule, bool) {
	chainLen := (numConjuncts + 1) / 2
	branches := numConjuncts - chainLen

	ws := w.newWalk()
	var body []query.Conjunct
	varTypes := []int{ws.typeOf()} // type of x0, x1, ...
	cur := query.Var(0)
	for i := 0; i < chainLen; i++ {
		expr, ok := ws.step(window, true)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: cur, Dst: cur + 1, Expr: expr})
		varTypes = append(varTypes, ws.typeOf())
		cur++
	}
	nextVar := cur + 1
	for b := 0; b < branches; b++ {
		at := w.rng.Intn(len(varTypes))
		wb := w.walkFromType(varTypes[at])
		expr, ok := wb.step(window, true)
		if !ok {
			return query.Rule{}, false
		}
		body = append(body, query.Conjunct{Src: query.Var(at), Dst: nextVar, Expr: expr})
		nextVar++
	}
	return query.Rule{Body: body}, true
}
