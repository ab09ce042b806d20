package graph

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// EdgeLine is THE encoder of the textual edge formats: the edge list's
// "src pred dst\n" (graphgen.WriterSink) and the text
// partition's "src dst\n" (graphgen.PartitionedSink, the slice server's
// enc=text). Every writer of either layout appends through it, so the
// lines ReadEdgeList parses have one definition in the module.
// AppendFrom and AppendTo render a run of edges that share one end,
// byte for byte what Append renders edge by edge.
//
// The zero value is the predicate-less partition layout. An EdgeLine is
// immutable and safe for concurrent use.
type EdgeLine struct {
	mid string // between the two ids: " pred " or " "; "" in the zero value

	// pad is the separator zero-padded to a fixed width, so that the word
	// path copies it with one fixed-size assignment; padLen is its length,
	// or 0 when the separator is longer than the array (and in the zero
	// value), which sends every line down the putDecimal path.
	pad    [sepPad]byte
	padLen uint8
}

const (
	// sepPad is the width of EdgeLine's padded separator: predicate names
	// of up to sepPad-2 bytes take the word path.
	sepPad = 32

	// wordMax bounds the ids of the word path: digits8 renders fewer than
	// nine digits.
	wordMax = 100_000_000

	// wordSpare is the spare capacity the word path needs: an 8-byte
	// store for the source, the padded separator after at most 8 digits,
	// an 8-byte store for the target after at most sepPad bytes of it,
	// and the newline after at most 8 digits of the target. AppendTo's
	// tail store, after at most 8 digits, stays within it too.
	wordSpare = 8 + sepPad + 8 + 1
)

// NewEdgeLine returns the encoder of one predicate's edge-list lines,
// "src pred dst\n"; an empty pred selects the partition layout
// "src dst\n", where the file fixes the predicate.
func NewEdgeLine(pred string) EdgeLine {
	l := EdgeLine{mid: " "}
	if pred != "" {
		l.mid = " " + pred + " "
	}
	if len(l.mid) <= sepPad {
		l.padLen = uint8(copy(l.pad[:], l.mid))
	}
	return l
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
//
// The common line — both ids in [0, 10⁸), a separator that fits the
// padded array, wordSpare bytes free — is three stores: each id's
// digits8 word and the padded separator, each store's overrun past its
// text overwritten by the next one or left beyond the returned length.
// Any other line (a negative or nine-digit id, a long predicate name,
// the last lines before b's capacity) takes putDecimal's path.
func (l EdgeLine) Append(b []byte, src, dst NodeID) []byte {
	at := len(b)
	if uint32(src) < wordMax && uint32(dst) < wordMax && l.padLen != 0 && cap(b)-at >= wordSpare {
		vs, ns := trimZeros(digits8(uint32(src)))
		vd, nd := trimZeros(digits8(uint32(dst)))
		w := b[at:cap(b)]
		binary.LittleEndian.PutUint64(w, vs)
		*(*[sepPad]byte)(w[ns:]) = l.pad
		k := ns + int(l.padLen)
		binary.LittleEndian.PutUint64(w[k:], vd)
		w[k+nd] = '\n'
		return b[:at+k+nd+1]
	}
	sep := l.separator()
	us, ns := magnitude(src)
	ud, nd := magnitude(dst)
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

// AppendFrom appends the lines of the run of edges (src, off+dsts[i]),
// in order: exactly what one Append per edge would append. src's digits
// are rendered once per run, so a common line costs one digits8: src's
// word, the padded separator, the target's word and the newline are
// stored as Append stores them. (A head of src and separator built once
// per run and copied per line measured slower on runs of a few lines:
// its first copy waits on the stores that built it.) A line the word
// path cannot take (a target or src outside [0, 10⁸), a long predicate
// name, fewer than wordSpare bytes free) goes through Append.
func (l EdgeLine) AppendFrom(b []byte, src NodeID, dsts []NodeID, off NodeID) []byte {
	if uint32(src) >= wordMax || l.padLen == 0 {
		for _, d := range dsts {
			b = l.Append(b, src, off+d)
		}
		return b
	}
	vs, ns := trimZeros(digits8(uint32(src)))
	k := ns + int(l.padLen)
	for _, d := range dsts {
		dst := off + d
		at := len(b)
		if uint32(dst) >= wordMax || cap(b)-at < wordSpare {
			b = l.Append(b, src, dst)
			continue
		}
		w := b[at:cap(b)]
		binary.LittleEndian.PutUint64(w, vs)
		*(*[sepPad]byte)(w[ns:]) = l.pad
		vd, nd := trimZeros(digits8(uint32(dst)))
		binary.LittleEndian.PutUint64(w[k:], vd)
		w[k+nd] = '\n'
		b = b[:at+k+nd+1]
	}
	return b
}

// AppendTo appends the lines of the run of edges (off+srcs[i], dst), in
// order: exactly what one Append per edge would append. The run's tail
// — the padded separator, dst's digits and the newline — is rendered
// once, so a common line is one digits8 and two stores: the source's
// word and the tail. Every other line goes through Append, as in
// AppendFrom.
func (l EdgeLine) AppendTo(b []byte, dst NodeID, srcs []NodeID, off NodeID) []byte {
	if uint32(dst) >= wordMax || l.padLen == 0 {
		for _, s := range srcs {
			b = l.Append(b, off+s, dst)
		}
		return b
	}
	var tail [sepPad + 9]byte
	*(*[sepPad]byte)(tail[:]) = l.pad
	vd, nd := trimZeros(digits8(uint32(dst)))
	binary.LittleEndian.PutUint64(tail[l.padLen:], vd)
	tail[int(l.padLen)+nd] = '\n'
	k := int(l.padLen) + nd + 1
	for _, s := range srcs {
		src := off + s
		at := len(b)
		if uint32(src) >= wordMax || cap(b)-at < wordSpare {
			b = l.Append(b, src, dst)
			continue
		}
		w := b[at:cap(b)]
		vs, ns := trimZeros(digits8(uint32(src)))
		binary.LittleEndian.PutUint64(w, vs)
		*(*[sepPad + 9]byte)(w[ns:]) = tail
		b = b[:at+ns+k]
	}
	return b
}

// appendNodeID appends the decimal text of id to b, through the same
// two paths as Append's ids.
func appendNodeID(b []byte, id NodeID) []byte {
	at := len(b)
	if uint32(id) < wordMax && cap(b)-at >= 8 {
		v, n := trimZeros(digits8(uint32(id)))
		binary.LittleEndian.PutUint64(b[at:cap(b)], v)
		return b[:at+n]
	}
	u, n := magnitude(id)
	b = slices.Grow(b, n)[:at+n]
	putDecimal(b[at:], u, id < 0)
	return b
}

// asciiZeros is eight '0' digits.
const asciiZeros = 0x3030_3030_3030_3030

// trimZeros drops the leading zeros of a digits8 word: w is the decimal
// text at the word's low end, zero bytes after it, and n its length.
// The shift is the bit width of the leading '0' bytes, a trailing-zero
// count of the word XOR eight '0's; the last digit always counts, so 0
// renders as "0".
func trimZeros(v uint64) (w uint64, n int) {
	z := bits.TrailingZeros64(v^asciiZeros|1<<56) &^ 7
	return v >> z, 8 - z>>3
}

// digits8 returns the eight zero-padded ASCII digits of u < 10⁸ as a
// little-endian word, the most significant digit in the lowest byte.
// Each step splits every lane into quotient (low half) and remainder
// (high half) by a multiply-shift that is exact over the lane's range:
// 4+4 digits in 32-bit lanes, 2+2 in 16-bit lanes, 1+1 in bytes.
func digits8(u uint32) uint64 {
	hi := u / 10000
	v := uint64(hi) | uint64(u-hi*10000)<<32
	q := (v * 10486 >> 20) & 0x0000007f_0000007f // lane / 100, lanes < 10⁴
	v = q | (v-q*100)<<16
	q = (v * 103 >> 10) & 0x000f_000f_000f_000f // lane / 10, lanes < 100
	v = q | (v-q*10)<<8
	return v + asciiZeros
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
