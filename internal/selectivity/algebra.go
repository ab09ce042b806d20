// Package selectivity implements gMark's schema-driven selectivity
// estimation for binary queries (paper, Section 5.2): the algebra of
// selectivity classes (Table 1 and Fig. 7), the schema graph G_S and
// the selectivity graph G_sel (Section 5.2.3), and the weighted random
// walk and path sampling used during query generation (Section 5.2.4),
// all read off one set of nb_path counts.
package selectivity

import "fmt"

// NodeKind distinguishes node types whose population is fixed
// (Type(T) = 1) from those growing with the graph (Type(T) = N).
type NodeKind uint8

const (
	// One marks a type with a fixed occurrence constraint.
	One NodeKind = iota
	// Many marks a type whose occurrences are proportional to |G|.
	Many
)

func (k NodeKind) String() string {
	if k == One {
		return "1"
	}
	return "N"
}

// Op is one of the five algebraic operations between types (Table 1).
type Op uint8

const (
	// OpEq (=): both directions bounded.
	OpEq Op = iota
	// OpLess (<): e.g. a Zipfian out-distribution, or a fixed source
	// type feeding a growing target type.
	OpLess
	// OpGreater (>): the symmetric of OpLess.
	OpGreater
	// OpDiamond (diamond): the result of a < followed by a >; linear.
	OpDiamond
	// OpCross (x): Cartesian-product-like; quadratic. The result of a
	// > followed by a <.
	OpCross

	numOps = 5
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLess:
		return "<"
	case OpGreater:
		return ">"
	case OpDiamond:
		return "<>"
	case OpCross:
		return "x"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// reverseOp returns the operation of the inverse relation.
func reverseOp(o Op) Op {
	switch o {
	case OpLess:
		return OpGreater
	case OpGreater:
		return OpLess
	default:
		return o
	}
}

// disjTable implements Fig. 7(a): disjTable[o1][o2] = o1 + o2.
// The table is symmetric.
var disjTable = [numOps][numOps]Op{
	OpEq:      {OpEq, OpLess, OpGreater, OpDiamond, OpCross},
	OpLess:    {OpLess, OpLess, OpDiamond, OpDiamond, OpCross},
	OpGreater: {OpGreater, OpDiamond, OpGreater, OpDiamond, OpCross},
	OpDiamond: {OpDiamond, OpDiamond, OpDiamond, OpDiamond, OpCross},
	OpCross:   {OpCross, OpCross, OpCross, OpCross, OpCross},
}

// concatTable implements Fig. 7(b): concatTable[o1][o2] = o1 . o2,
// with o1 the first (left) operand. The paper's table is printed in
// (column, row) order: the column is the first operand. In particular
// < . > = diamond and > . < = x (Section 5.2.2's intuitions).
var concatTable = [numOps][numOps]Op{
	OpEq:      {OpEq, OpLess, OpGreater, OpDiamond, OpCross},
	OpLess:    {OpLess, OpLess, OpDiamond, OpDiamond, OpCross},
	OpGreater: {OpGreater, OpCross, OpGreater, OpCross, OpCross},
	OpDiamond: {OpDiamond, OpCross, OpDiamond, OpCross, OpCross},
	OpCross:   {OpCross, OpCross, OpCross, OpCross, OpCross},
}

// Disjoin combines two operations with the disjunction algebra.
func Disjoin(o1, o2 Op) Op { return disjTable[o1][o2] }

// Concat combines two operations with the concatenation algebra.
func Concat(o1, o2 Op) Op { return concatTable[o1][o2] }

// Triple is a selectivity class (t_A, o, t_B) (Section 5.2.2).
type Triple struct {
	Left  NodeKind
	O     Op
	Right NodeKind
}

func (t Triple) String() string {
	return fmt.Sprintf("(%s,%s,%s)", t.Left, t.O, t.Right)
}

// Clamp normalizes a triple to the permitted set: the only triples
// containing a 1 are (1,=,1), (1,<,N) and (N,>,1); when either side is
// 1 the operation is determined by the types alone (the paper replaces
// e.g. (1,x,1) and (1,<>,1) by (1,=,1)).
func (t Triple) Clamp() Triple {
	switch {
	case t.Left == One && t.Right == One:
		t.O = OpEq
	case t.Left == One:
		t.O = OpLess
	case t.Right == One:
		t.O = OpGreater
	}
	return t
}

// Identity returns the selectivity triple of the empty word on a type
// of kind k: sel_{A,A}(epsilon) = (Type(A), =, Type(A)).
func Identity(k NodeKind) Triple { return Triple{Left: k, O: OpEq, Right: k} }

// ConcatTriples composes (tA, o1, tC) . (tC, o2, tB); the middle kinds
// must agree.
func ConcatTriples(a, b Triple) Triple {
	return Triple{Left: a.Left, O: Concat(a.O, b.O), Right: b.Right}.Clamp()
}

// DisjoinTriples combines two triples with equal endpoints.
func DisjoinTriples(a, b Triple) Triple {
	return Triple{Left: a.Left, O: Disjoin(a.O, b.O), Right: a.Right}.Clamp()
}

// StarTriple returns the class of p* given the class of p between a
// type and itself: sel_{A,A}(p*) = sel_{A,A}(p) . sel_{A,A}(p),
// disjoined with the identity contributed by the empty word.
func StarTriple(t Triple) Triple {
	sq := ConcatTriples(t, t)
	return DisjoinTriples(sq, Identity(t.Left))
}

// Alpha returns the estimated selectivity value of a query whose class
// is t: 0 for (1,=,1), 2 for (N,x,N), and 1 otherwise (Section 5.2.2).
func (t Triple) Alpha() int {
	t = t.Clamp()
	switch {
	case t.Left == One && t.Right == One:
		return 0
	case t.O == OpCross:
		return 2
	default:
		return 1
	}
}
