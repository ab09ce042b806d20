package graph

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// appendNodeID renders one id through the line encoder's decimal path
// (magnitude + putDecimal), the way Append lays out each of its two
// numbers.
func appendNodeID(b []byte, id NodeID) []byte {
	u, n := magnitude(id)
	at := len(b)
	b = append(b, make([]byte, n)...)
	putDecimal(b[at:], u, id < 0)
	return b
}

// boundaryIDs are the ids around every digit-count boundary of an int32,
// plus the sign cases.
func boundaryIDs() []NodeID {
	ids := []NodeID{0, 1, -1, math.MaxInt32, math.MaxInt32 - 1, math.MinInt32, math.MinInt32 + 1}
	for p := int64(10); p <= 1_000_000_000; p *= 10 {
		ids = append(ids, NodeID(p-1), NodeID(p), NodeID(p+1), NodeID(-p), NodeID(-p+1))
	}
	return ids
}

func TestAppendNodeIDMatchesStrconv(t *testing.T) {
	for _, id := range boundaryIDs() {
		want := strconv.AppendInt([]byte("x"), int64(id), 10)
		if got := appendNodeID([]byte("x"), id); !bytes.Equal(got, want) {
			t.Errorf("id %d: got %q, want %q", id, got, want)
		}
	}
}

func TestEdgeLineMatchesFormatting(t *testing.T) {
	ids := boundaryIDs()
	for _, pred := range []string{"", "p", "authors", "a b"} {
		line := NewEdgeLine(pred)
		var got, want []byte
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
			t.Errorf("pred %q: lines differ from fmt:\n got %q\nwant %q", pred, got, want)
		}
	}
	// The zero value is the partition layout too.
	if got := string(EdgeLine{}.Append(nil, 12, 345)); got != "12 345\n" {
		t.Errorf("zero EdgeLine: %q", got)
	}
}

// TestEdgeLineMaxLenExact pins the bound as both safe and tight: the
// largest id of the layout reaches it, nothing in range exceeds it.
func TestEdgeLineMaxLenExact(t *testing.T) {
	for _, pred := range []string{"", "cites"} {
		line := NewEdgeLine(pred)
		for _, n := range []int{0, 1, 2, 10, 11, 100, 101, 99_999, 100_000, 100_001, math.MaxInt32} {
			last := NodeID(max(n-1, 0))
			if got, bound := len(line.Append(nil, last, last)), line.MaxLen(n); got != bound {
				t.Errorf("pred %q nodes %d: longest line is %d bytes, MaxLen says %d", pred, n, got, bound)
			}
			if got, bound := len(line.Append(nil, 0, last/2)), line.MaxLen(n); got > bound {
				t.Errorf("pred %q nodes %d: a %d-byte line exceeds MaxLen %d", pred, n, got, bound)
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

func FuzzAppendNodeID(f *testing.F) {
	for _, id := range boundaryIDs() {
		f.Add(int32(id), int32(-id/3), "p")
	}
	f.Fuzz(func(t *testing.T, src, dst int32, pred string) {
		if got, want := appendNodeID(nil, src), strconv.AppendInt(nil, int64(src), 10); !bytes.Equal(got, want) {
			t.Fatalf("id %d: got %q, want %q", src, got, want)
		}
		want := strconv.AppendInt(nil, int64(src), 10)
		want = append(want, ' ')
		if pred != "" {
			want = append(append(want, pred...), ' ')
		}
		want = append(strconv.AppendInt(want, int64(dst), 10), '\n')
		prefix := []byte("# ")
		got := NewEdgeLine(pred).Append(prefix, src, dst)
		if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("line(%d, %q, %d) = %q, want %q", src, pred, dst, got, want)
		}
	})
}
