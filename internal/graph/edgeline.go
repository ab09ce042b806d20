package graph

import (
	"math/bits"
	"slices"
)

// EdgeLine is THE encoder of the textual edge formats: the edge list's
// "src pred dst\n" (WriteEdgeList, graphgen.WriterSink) and the text
// partition's "src dst\n" (graphgen.PartitionedSink, the slice server's
// enc=text). Every writer of either layout appends through it, so the
// lines ReadEdgeList parses have one definition in the module.
//
// The zero value is the predicate-less partition layout. An EdgeLine is
// immutable and safe for concurrent use.
type EdgeLine struct {
	mid string // between the two ids: " pred " or " "
}

// NewEdgeLine returns the encoder of one predicate's edge-list lines,
// "src pred dst\n"; an empty pred selects the partition layout
// "src dst\n", where the file fixes the predicate.
func NewEdgeLine(pred string) EdgeLine {
	if pred == "" {
		return EdgeLine{}
	}
	return EdgeLine{mid: " " + pred + " "}
}

// NewEdgeLines returns the edge-list encoder of every predicate, indexed
// by PredID.
func NewEdgeLines(predNames []string) []EdgeLine {
	lines := make([]EdgeLine, len(predNames))
	for i, name := range predNames {
		lines[i] = NewEdgeLine(name)
	}
	return lines
}

// separator is the text between the two ids of a line.
func (l EdgeLine) separator() string {
	if l.mid == "" {
		return " "
	}
	return l.mid
}

// MaxLen is the exact upper bound on the byte length of one line over
// node ids in [0, numNodes): a caller that keeps MaxLen bytes of spare
// capacity never makes Append reallocate.
func (l EdgeLine) MaxLen(numNodes int) int {
	return 2*decimalLen(uint32(max(numNodes-1, 0))) + len(l.separator()) + 1
}

// Append appends the line of edge (src, dst) to b. The digits are
// written in place at their final offsets — no scratch line, no
// per-number append; b grows (amortized, like append) only when its
// spare capacity is short of the line.
func (l EdgeLine) Append(b []byte, src, dst NodeID) []byte {
	sep := l.separator()
	us, ns := magnitude(src)
	ud, nd := magnitude(dst)
	at := len(b)
	end := at + ns + len(sep) + nd + 1
	if end > cap(b) {
		b = slices.Grow(b, end-at)
	}
	b = b[:end]
	putDecimal(b[at:at+ns], us, src < 0)
	copy(b[at+ns:], sep)
	putDecimal(b[end-1-nd:end-1], ud, dst < 0)
	b[end-1] = '\n'
	return b
}

// magnitude returns |id| and the byte length of id's decimal text, sign
// included.
func magnitude(id NodeID) (u uint32, n int) {
	u = uint32(id)
	if id < 0 {
		u = -u // exact for math.MinInt32 too: 2^31 fits a uint32
		n = 1
	}
	return u, n + decimalLen(u)
}

// pow10 is indexed by a digit-count estimate; its first entry is 0, not
// 1, so that 0 has one digit.
var pow10 = [...]uint32{0, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000}

// decimalLen is the number of decimal digits of u.
func decimalLen(u uint32) int {
	// 1233/4096 approximates log10(2): t is the digit count of the
	// largest number of u's bit length, minus one; one compare settles
	// whether u itself reaches it.
	t := bits.Len32(u) * 1233 >> 12
	if u < pow10[t] {
		return t
	}
	return t + 1
}

// digitPairs holds the two-character text of every value below 100.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDecimal fills b, whose length is exactly that of the text, with an
// optional sign and the digits of u, two at a time from the right.
func putDecimal(b []byte, u uint32, neg bool) {
	i := len(b)
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		u = q
		i -= 2
		b[i+1] = digitPairs[r+1]
		b[i] = digitPairs[r]
	}
	if u >= 10 {
		i -= 2
		b[i+1] = digitPairs[u*2+1]
		b[i] = digitPairs[u*2]
	} else {
		i--
		b[i] = byte('0' + u)
	}
	if neg {
		b[i-1] = '-'
	}
}
