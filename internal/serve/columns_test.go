package serve

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/usecases"
)

// codecCase is one column the codec's round trip is pinned on.
type codecCase struct {
	name string
	vals []graph.NodeID
}

// codecCases are the columns the codec's round trip is pinned on, and
// the seeds of its fuzzer.
func codecCases() []codecCase {
	ramp := func(n int) []graph.NodeID {
		c := make([]graph.NodeID, n)
		for i := range c {
			c[i] = graph.NodeID(1000 + 7*i + i%3) // non-decreasing
		}
		return c
	}
	jump := ramp(blockLen)
	for i := 60; i < len(jump); i++ {
		jump[i] += 1 << 30
	}
	wide := ramp(blockLen)
	wide[5], wide[90] = 0, math.MaxInt32
	return []codecCase{
		{"empty", nil},
		{"one", []graph.NodeID{42}},
		{"127", ramp(127)},
		{"128", ramp(128)},
		{"129", ramp(129)},
		{"all equal", slices.Repeat([]graph.NodeID{77}, blockLen)},
		{"0 and max", wide},
		{"2^30 jump", jump},
		{"descending", []graph.NodeID{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
	}
}

// checkRoundTrip packs vals and checks every way of reading them back:
// the whole column, the block iterator, each head's bounds, and the
// charge against the words and heads actually allocated.
func checkRoundTrip(t *testing.T, name string, vals []graph.NodeID) packedColumn {
	t.Helper()
	c := packColumn(vals)
	if got := c.decode(); !slices.Equal(got, vals) || len(got) != cap(got) {
		t.Fatalf("%s: decode = %v (cap %d), want %v", name, got, cap(got), vals)
	}
	var blocks []graph.NodeID
	for blk := range pairBlocks(&c, &c) {
		blocks = append(blocks, blk...)
	}
	if !slices.Equal(blocks, vals) {
		t.Fatalf("%s: pairBlocks = %v, want %v", name, blocks, vals)
	}
	words := 0
	for b, h := range c.heads {
		blk := c.block(vals, b)
		lo, hi := h.bounds(len(blk))
		if l, m := slices.Min(blk), slices.Max(blk); int64(l) < lo || int64(m) > hi {
			t.Fatalf("%s: block %d holds [%d, %d], its head bounds it by [%d, %d]", name, b, l, m, lo, hi)
		}
		words += wordsFor(len(blk), h.width)
	}
	if words != len(c.words) || cap(c.words) != len(c.words) || cap(c.heads) != len(c.heads) {
		t.Fatalf("%s: %d words used of %d (cap %d), %d heads (cap %d)",
			name, words, len(c.words), cap(c.words), len(c.heads), cap(c.heads))
	}
	if len(vals) > 0 && (c.lo != slices.Min(vals) || c.hi != slices.Max(vals)) {
		t.Fatalf("%s: column bounds [%d, %d], want [%d, %d]", name, c.lo, c.hi, slices.Min(vals), slices.Max(vals))
	}
	return c
}

// TestPackedColumnRoundTrip pins the codec on the block boundaries and
// the widths' extremes, and checks that each case chose the encoding
// it exists for.
func TestPackedColumnRoundTrip(t *testing.T) {
	cases := map[string][]graph.NodeID{}
	for _, c := range codecCases() {
		checkRoundTrip(t, c.name, c.vals)
		cases[c.name] = c.vals
	}
	for _, want := range []struct {
		name  string
		width []uint8
		delta bool
	}{
		{"all equal", []uint8{0}, false},
		{"0 and max", []uint8{31}, false},
		{"128", []uint8{4}, true},         // steps of 5 and 8, offsets up to 891
		{"129", []uint8{4, 0}, true},      // a lone last entry is its own base
		{"2^30 jump", []uint8{31}, false}, // the step is as wide as the offsets: offsets win ties
		{"descending", []uint8{4}, false},
		{"one", []uint8{0}, false},
		{"empty", nil, false},
	} {
		c := packColumn(cases[want.name])
		var widths []uint8
		for _, h := range c.heads {
			widths = append(widths, h.width)
			if h.width > 0 && h.delta != want.delta {
				t.Errorf("%s: block delta-coded %v, want %v", want.name, h.delta, want.delta)
			}
		}
		if !slices.Equal(widths, want.width) {
			t.Errorf("%s: widths %v, want %v", want.name, widths, want.width)
		}
	}
}

// TestFilterPackedMatchesFilterRange checks the packed cut against the
// plain one on every case, for ranges that miss, straddle, cover and
// sit inside blocks' bounds.
func TestFilterPackedMatchesFilterRange(t *testing.T) {
	for _, c := range codecCases() {
		name, vals := c.name, c.vals
		other := make([]graph.NodeID, len(vals))
		for i := range other {
			other[i] = graph.NodeID(i)
		}
		key, oth := packColumn(vals), packColumn(other)
		for _, r := range [][2]graph.NodeID{
			{0, 1}, {0, math.MaxInt32}, {1000, 1500}, {1200, 1300}, {1 << 30, math.MaxInt32}, {5, 5}, {3, 8},
		} {
			wk, wo := filterRange(vals, other, r[0], r[1])
			gk, gouter := filterPacked(&key, &oth, r[0], r[1])
			if !slices.Equal(gk, wk) || !slices.Equal(gouter, wo) || cap(gk) != len(gk) || cap(gouter) != len(gouter) {
				t.Errorf("%s [%d, %d): packed cut %v/%v, plain %v/%v", name, r[0], r[1], gk, gouter, wk, wo)
			}
		}
	}
}

// fuzzColumn turns fuzz bytes into a column of node ids: the low 31
// bits of little-endian words, or their running sums (saturating) when
// sorted is set, so both encodings get exercised.
func fuzzColumn(data []byte, sorted bool) []graph.NodeID {
	vals := make([]graph.NodeID, 0, len(data)/4)
	var sum int64
	for ; len(data) >= 4; data = data[4:] {
		v := graph.NodeID(binary.LittleEndian.Uint32(data) & math.MaxInt32)
		if sorted {
			sum = min(sum+int64(v), math.MaxInt32)
			v = graph.NodeID(sum)
		}
		vals = append(vals, v)
	}
	return vals
}

// FuzzPackedColumn round-trips arbitrary columns through the codec,
// checks the packed cut against the plain one on a fuzzed range, and
// the per-range count the cut index starts from.
func FuzzPackedColumn(f *testing.F) {
	for _, c := range codecCases() {
		data := make([]byte, 0, 4*len(c.vals))
		for _, v := range c.vals {
			data = binary.LittleEndian.AppendUint32(data, uint32(v))
		}
		f.Add(data, false, int32(1000), int32(1500))
	}
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 64}, true, int32(0), int32(3))
	f.Fuzz(func(t *testing.T, data []byte, sorted bool, lo, hi int32) {
		vals := fuzzColumn(data, sorted)
		key := checkRoundTrip(t, "fuzzed", vals)
		other := slices.Clone(vals)
		slices.Reverse(other)
		oth := packColumn(other)
		wk, wo := filterRange(vals, other, lo, hi)
		gk, gouter := filterPacked(&key, &oth, lo, hi)
		if !slices.Equal(gk, wk) || !slices.Equal(gouter, wo) {
			t.Fatalf("[%d, %d): packed cut %v/%v, plain %v/%v", lo, hi, gk, gouter, wk, wo)
		}
		if len(vals) == 0 {
			return
		}
		width := uint32(hi&math.MaxInt32) | 1 // any positive range width
		first := uint32(key.lo) / width
		want := make([]int32, uint32(key.hi)/width-first+1)
		for _, v := range vals {
			want[uint32(v)/width-first]++
		}
		got := make([]int32, len(want))
		key.countRanges(got, width, first)
		if !slices.Equal(got, want) {
			t.Fatalf("ranges %d wide: counted %v, want %v", width, got, want)
		}
	})
}

// BenchmarkColumns prices the codec on the predicates gmark-perf's
// serving workloads cut: bib@40K, lsn@20K and sp@20K at seed 1. pack
// and unpack report ns/edge (an edge is two entries) and pack reports
// the packed B/edge; plain columns cost 8.
func BenchmarkColumns(b *testing.B) {
	var preds []*edgeList
	edges := 0
	for _, in := range []struct {
		usecase string
		nodes   int
	}{{"bib", 40_000}, {"lsn", 20_000}, {"sp", 20_000}} {
		gcfg, err := usecases.ByName(in.usecase, in.nodes)
		if err != nil {
			b.Fatal(err)
		}
		_, _, names := graphgen.Layout(gcfg)
		for _, name := range names {
			plain := &edgeList{}
			if _, err := graphgen.EmitPredicate(gcfg, graphgen.Options{Seed: 1}, name, plain); err != nil {
				b.Fatal(err)
			}
			preds = append(preds, plain)
			edges += len(plain.srcs)
		}
	}
	packed := make([]predEdges, len(preds))
	for i, p := range preds {
		packed[i] = packEdges(p)
	}
	perEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
	}
	b.Run("pack", func(b *testing.B) {
		for range b.N {
			for i, p := range preds {
				packed[i] = packEdges(p)
			}
		}
		perEdge(b)
		var bytes int64
		for _, e := range packed {
			bytes += e.bytes()
		}
		b.ReportMetric(float64(bytes)/float64(edges), "B/edge")
	})
	b.Run("unpack", func(b *testing.B) {
		for range b.N {
			for _, e := range packed {
				e.resident().edges()
			}
		}
		perEdge(b)
	})
}
