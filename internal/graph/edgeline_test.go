package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// boundaryIDs are the ids around every digit-count boundary of an int32,
// plus the sign cases.
func boundaryIDs() []NodeID {
	ids := []NodeID{0, 1, -1, math.MaxInt32, math.MaxInt32 - 1, math.MinInt32, math.MinInt32 + 1}
	for p := int64(10); p <= 1_000_000_000; p *= 10 {
		ids = append(ids, NodeID(p-1), NodeID(p), NodeID(p+1), NodeID(-p), NodeID(-p+1))
	}
	return ids
}

// boundaryPreds are predicate names around the padded separator's
// width: up to sepPad-2 bytes the separator " pred " fits it.
func boundaryPreds() []string {
	return []string{"", "p", "authors", "a b",
		strings.Repeat("q", sepPad-3), strings.Repeat("q", sepPad-2),
		strings.Repeat("q", sepPad-1), strings.Repeat("q", sepPad+1)}
}

// withSpare returns prefix copied into an array with exactly spare bytes
// of capacity after it.
func withSpare(prefix []byte, spare int) []byte {
	return append(make([]byte, 0, len(prefix)+spare), prefix...)
}

// spares are capacities that take each path of the encoder: none, the
// last byte short of the word stores, just enough for them, ample.
var spares = []int{0, wordSpare - 1, wordSpare, 4 << 10}

func TestAppendNodeIDMatchesStrconv(t *testing.T) {
	for _, id := range boundaryIDs() {
		want := strconv.AppendInt([]byte("x"), int64(id), 10)
		for _, spare := range []int{0, 7, 8, 64} {
			if got := appendNodeID(withSpare([]byte("x"), spare), id); !bytes.Equal(got, want) {
				t.Errorf("id %d, spare %d: got %q, want %q", id, spare, got, want)
			}
		}
	}
}

func TestDigits8(t *testing.T) {
	for _, u := range []uint32{0, 1, 9, 10, 99, 100, 9999, 10000, 10001, 12345678, 99_999_999} {
		want := fmt.Sprintf("%08d", u)
		var got [8]byte
		for i := range got {
			got[i] = byte(digits8(u) >> (8 * i))
		}
		if string(got[:]) != want {
			t.Errorf("digits8(%d) = %q, want %q", u, got, want)
		}
	}
}

func TestEdgeLineMatchesFormatting(t *testing.T) {
	ids := boundaryIDs()
	for _, pred := range boundaryPreds() {
		line := NewEdgeLine(pred)
		for _, spare := range spares {
			var want []byte
			got := withSpare(nil, spare)
			for i, src := range ids {
				dst := ids[(i*7+3)%len(ids)]
				got = line.Append(got, src, dst)
				if pred == "" {
					want = fmt.Appendf(want, "%d %d\n", src, dst)
				} else {
					want = fmt.Appendf(want, "%d %s %d\n", src, pred, dst)
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("pred %q, spare %d: lines differ from fmt:\n got %q\nwant %q", pred, spare, got, want)
			}
		}
	}
	// The zero value is the partition layout too.
	for _, spare := range spares {
		if got := string(EdgeLine{}.Append(withSpare(nil, spare), 12, 345)); got != "12 345\n" {
			t.Errorf("zero EdgeLine, spare %d: %q", spare, got)
		}
	}
}

// TestEdgeLineMaxLenExact pins the bound as both safe and tight: the
// largest id of the layout reaches it, nothing in range exceeds it.
func TestEdgeLineMaxLenExact(t *testing.T) {
	for _, pred := range boundaryPreds() {
		line := NewEdgeLine(pred)
		for _, n := range []int{0, 1, 2, 10, 11, 100, 101, 99_999, 100_000, 100_001,
			10_000_000, 10_000_001, 100_000_000, 100_000_001, math.MaxInt32} {
			last := NodeID(max(n-1, 0))
			for _, spare := range spares {
				if got, bound := len(line.Append(withSpare(nil, spare), last, last)), line.MaxLen(n); got != bound {
					t.Errorf("pred %q nodes %d: longest line is %d bytes, MaxLen says %d", pred, n, got, bound)
				}
				if got, bound := len(line.Append(withSpare(nil, spare), 0, last/2)), line.MaxLen(n); got > bound {
					t.Errorf("pred %q nodes %d: a %d-byte line exceeds MaxLen %d", pred, n, got, bound)
				}
			}
		}
	}
}

// TestEdgeLineAppendInPlace: with MaxLen bytes to spare the line lands in
// the caller's array, and the hot path allocates nothing.
func TestEdgeLineAppendInPlace(t *testing.T) {
	line := NewEdgeLine("authors")
	const nodes = 1_000_000
	buf := make([]byte, 0, 4*line.MaxLen(nodes))
	out := line.Append(buf, nodes-1, nodes-1)
	if &out[0] != &buf[:1][0] {
		t.Error("Append reallocated although MaxLen bytes were free")
	}
	if n := testing.AllocsPerRun(200, func() {
		b := buf[:0]
		b = line.Append(b, 123_456, 7)
		b = line.Append(b, 0, nodes-1)
		buf = b[:0]
	}); n != 0 {
		t.Errorf("Append allocates %.1f times per run, want 0", n)
	}
	// Short of capacity it grows like append and keeps what was there.
	small := append(make([]byte, 0, 3), "ab"...)
	if got := string(line.Append(small, 1, 2)); got != "ab1 authors 2\n" {
		t.Errorf("grown line = %q", got)
	}
}

// FuzzAppendNodeID drives both paths of the encoder — the word stores
// and putDecimal — through a fuzzed prefix and spare capacity: the text
// must equal strconv's, the prefix must survive the word stores'
// overrun, and a line (or id) with room to spare must land in place,
// which is MaxLen's no-reallocation contract.
func FuzzAppendNodeID(f *testing.F) {
	for _, id := range boundaryIDs() {
		f.Add(int32(id), int32(-id/3), "p", uint8(2), uint16(64))
	}
	for _, id := range []int32{99_999_999, 100_000_000, -1, math.MinInt32} {
		for _, pred := range boundaryPreds() {
			for _, spare := range spares {
				f.Add(id, int32(7), pred, uint8(3), uint16(spare))
				f.Add(int32(12), id, pred, uint8(1), uint16(spare))
			}
		}
	}
	// Two eight-digit ids around the longest padded separator: the word
	// path's farthest store, the newline, lands on its last spare byte.
	for _, pred := range boundaryPreds() {
		for _, spare := range spares {
			f.Add(int32(99_999_999), int32(10_000_000), pred, uint8(0), uint16(spare))
		}
	}
	f.Fuzz(func(t *testing.T, src, dst int32, pred string, prefixLen uint8, spare uint16) {
		prefix := make([]byte, 1+int(prefixLen)%16)
		for i := range prefix {
			prefix[i] = byte('A' + i)
		}

		want := strconv.AppendInt(nil, int64(src), 10)
		got := appendNodeID(withSpare(prefix, int(spare)), src)
		checkAppended(t, fmt.Sprintf("id %d", src), prefix, int(spare), got, want)

		want = append(want, ' ')
		if pred != "" {
			want = append(append(want, pred...), ' ')
		}
		want = append(strconv.AppendInt(want, int64(dst), 10), '\n')
		got = NewEdgeLine(pred).Append(withSpare(prefix, int(spare)), src, dst)
		checkAppended(t, fmt.Sprintf("line(%d, %q, %d)", src, pred, dst), prefix, int(spare), got, want)
	})
}

// FuzzEdgeLineRun checks the run encoders against Append: in both
// orientations, AppendFrom and AppendTo must leave exactly what one
// Append per edge leaves in the same buffer — bytes and capacity — for
// fuzzed ids on both sides of every path boundary (sign, 10⁸, int32
// wrap-around of off+partner), separators on both sides of the padded
// array, and spare capacity from none to past wordSpare, so a run mixes
// word-path lines with Append's.
func FuzzEdgeLineRun(f *testing.F) {
	ids := []int32{-1, 0, wordMax - 1, wordMax, math.MaxInt32}
	encode := func(ids ...int32) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		return b
	}
	// The boundary ids, once with the widest word-path partner first, so
	// that the first line meets each spare capacity at its farthest store.
	runs := [][]byte{encode(ids...), encode(wordMax-1, 0, -1, wordMax, math.MaxInt32)}
	// Separators of 1, 30, 31, 32 (the widest padded one), 33 and 40
	// bytes: " ", then " pred " around names of 28 to 31 and 38 bytes.
	for _, predLen := range []uint8{0, 28, 29, 30, 31, 38} {
		for _, fixed := range ids {
			for spare := 0; spare <= wordSpare; spare++ {
				for _, run := range runs {
					f.Add(fixed, int32(0), run, predLen, uint8(spare%5), uint16(spare))
				}
			}
		}
		// Partners that cross 10⁸ and the int32 wrap once off is added.
		f.Add(int32(7), int32(wordMax-2), []byte{0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, predLen, uint8(1), uint16(4<<10))
		f.Add(int32(wordMax-1), int32(math.MaxInt32), []byte{0, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0}, predLen, uint8(0), uint16(wordSpare+1))
	}
	f.Fuzz(func(t *testing.T, fixed, off int32, raw []byte, predLen, prefixLen uint8, spare uint16) {
		pred := strings.Repeat("q", int(predLen)%48)
		line := NewEdgeLine(pred)
		partners := make([]NodeID, len(raw)/4)
		for i := range partners {
			partners[i] = NodeID(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		prefix := make([]byte, 1+int(prefixLen)%16)
		for i := range prefix {
			prefix[i] = byte('A' + i)
		}
		for _, from := range []bool{true, false} {
			want := withSpare(prefix, int(spare))
			for _, x := range partners {
				if from {
					want = line.Append(want, fixed, off+x)
				} else {
					want = line.Append(want, off+x, fixed)
				}
			}
			var got []byte
			if from {
				got = line.AppendFrom(withSpare(prefix, int(spare)), fixed, partners, off)
			} else {
				got = line.AppendTo(withSpare(prefix, int(spare)), fixed, partners, off)
			}
			if !bytes.Equal(got, want) || cap(got) != cap(want) {
				t.Fatalf("run from=%v fixed %d off %d partners %v pred %q spare %d:\n got %q (cap %d)\nwant %q (cap %d)",
					from, fixed, off, partners, pred, spare, got, cap(got), want, cap(want))
			}
		}
	})
}

// checkAppended checks got, the result of appending want's text to a
// copy of prefix that had spare bytes of capacity after it.
func checkAppended(t *testing.T, what string, prefix []byte, spare int, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix %q became %q", what, prefix, got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s = %q, want %q", what, got[len(prefix):], want)
	}
	if grew := cap(got) != len(prefix)+spare; grew && spare >= len(want) {
		t.Fatalf("%s: reallocated with %d bytes to spare for %d", what, spare, len(want))
	}
}
