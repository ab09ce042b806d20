package serve

import (
	"iter"
	"math/bits"
	"unsafe"

	"gmark/internal/graph"
)

// blockLen is the number of entries in each block of a packed column.
const blockLen = 128

// blockHead describes one block of a packed column. Its entries are
// width-bit offsets from base, the block's minimum; or, when the block
// is non-decreasing and that is narrower, width-bit steps from the
// previous entry, with base the first entry (whose own step is 0).
// Entries are stored back to back from bit 0 of the block's first
// word, so a full block takes exactly 2·width words and every block
// starts on a word.
type blockHead struct {
	base  graph.NodeID
	width uint8 // 0..31
	delta bool
}

// headBytes is what one block head costs the columns' budget.
const headBytes = int64(unsafe.Sizeof(blockHead{}))

// packedColumn is one side of a predicate's edges, node ids, bit-packed
// a block of blockLen entries at a time with a frame of reference per
// block. gMark's pairing leaves one side of every emission shard in
// node order and draws the other from one type's id interval, so both
// sides pack to a few bits an entry. Immutable once packed.
type packedColumn struct {
	n      int
	lo, hi graph.NodeID // least and greatest entry; zero when empty
	heads  []blockHead
	words  []uint64
}

// packColumn packs vals: a pass over the blocks for their heads, which
// sizes the words exactly, then a pass that writes them.
func packColumn(vals []graph.NodeID) packedColumn {
	c := packedColumn{n: len(vals), heads: make([]blockHead, (len(vals)+blockLen-1)/blockLen)}
	if len(vals) == 0 {
		return c
	}
	c.lo, c.hi = vals[0], vals[0]
	words := 0
	for b := range c.heads {
		blk := c.block(vals, b)
		var lo, hi graph.NodeID
		c.heads[b], lo, hi = headOf(blk)
		c.lo, c.hi = min(c.lo, lo), max(c.hi, hi)
		words += wordsFor(len(blk), c.heads[b].width)
	}
	c.words = make([]uint64, words)
	k := 0
	for b, h := range c.heads {
		k = h.put(c.block(vals, b), c.words, k)
	}
	return c
}

// block returns block b of vals, a column of c.n entries.
func (c *packedColumn) block(vals []graph.NodeID, b int) []graph.NodeID {
	return vals[b*blockLen : b*blockLen+c.blockSize(b)]
}

// blockSize is the number of entries in block b.
func (c *packedColumn) blockSize(b int) int {
	return min(blockLen, c.n-b*blockLen)
}

// wordsFor is the number of words n entries of the given width take.
func wordsFor(n int, width uint8) int {
	return (n*int(width) + 63) / 64
}

// headOf picks blk's encoding, the narrower of offsets from the
// minimum and, for a non-decreasing block, steps; it also returns the
// block's least and greatest entry. Entries are node ids, never
// negative, so a step fits in 32 bits; the loop does not branch on
// them.
func headOf(blk []graph.NodeID) (h blockHead, lo, hi graph.NodeID) {
	lo, hi = blk[0], blk[0]
	var down, up graph.NodeID // the OR of the steps, negative if one is; the largest step
	prev := blk[0]
	for _, v := range blk[1:] {
		lo, hi = min(lo, v), max(hi, v)
		step := v - prev
		down |= step
		up = max(up, step)
		prev = v
	}
	h = blockHead{base: lo, width: uint8(bits.Len32(uint32(hi - lo)))}
	if w := uint8(bits.Len32(uint32(up))); down >= 0 && w < h.width {
		h = blockHead{base: blk[0], width: w, delta: true}
	}
	return h, lo, hi
}

// put writes blk's entries into words from word k, a word at a time,
// and returns the word after the block.
func (h blockHead) put(blk []graph.NodeID, words []uint64, k int) int {
	if h.width == 0 {
		return k
	}
	var xs [blockLen]uint32
	h.offsets(blk, xs[:len(blk)])
	w := uint(h.width)
	var acc uint64
	n := uint(0) // bits held in acc
	// Shift counts are below 64; the masks let the compiler drop its
	// check for larger ones.
	for _, x := range xs[:len(blk)] {
		acc |= uint64(x) << (n & 63)
		if n += w; n >= 64 {
			words[k] = acc
			k++
			n -= 64
			acc = uint64(x) >> ((w - n) & 63) // the bits that did not fit
		}
	}
	if n > 0 {
		words[k] = acc
		k++
	}
	return k
}

// offsets returns in xs what put stores for blk: each entry's offset
// from base, or its step from the previous one.
func (h blockHead) offsets(blk []graph.NodeID, xs []uint32) {
	ref := uint32(h.base)
	if !h.delta {
		for i, v := range blk {
			xs[i] = uint32(v) - ref
		}
		return
	}
	for i, v := range blk {
		xs[i] = uint32(v) - ref
		ref = uint32(v)
	}
}

// get decodes the block into out, which holds exactly its entries,
// from word k a word at a time, and returns the word after the block.
func (h blockHead) get(out []graph.NodeID, words []uint64, k int) int {
	ref := uint32(h.base)
	if h.width == 0 {
		for i := range out {
			out[i] = h.base
		}
		return k
	}
	w := uint(h.width)
	mask := uint64(1)<<w - 1
	var acc uint64
	n := uint(0) // bits left in acc
	for i := range out {
		var x uint64
		if n >= w {
			x = acc & mask
			acc >>= w & 63
			n -= w
		} else {
			next := words[k]
			k++
			x = (acc | next<<(n&63)) & mask
			acc = next >> ((w - n) & 63)
			n += 64 - w
		}
		out[i] = graph.NodeID(x)
	}
	if h.delta {
		for i := range out {
			ref += uint32(out[i])
			out[i] = graph.NodeID(ref)
		}
	} else {
		for i := range out {
			out[i] = graph.NodeID(ref + uint32(out[i]))
		}
	}
	return k
}

// bounds returns an interval holding every entry of the block, which
// has n entries, without decoding it.
func (h blockHead) bounds(n int) (lo, hi int64) {
	step := int64(1)<<h.width - 1
	if h.delta {
		step *= int64(n - 1)
	}
	return int64(h.base), int64(h.base) + step
}

// bytes is what the column holds of the budget: the capacity of its
// words and heads.
func (c *packedColumn) bytes() int64 {
	return 8*int64(cap(c.words)) + headBytes*int64(cap(c.heads))
}

// decode returns the column's entries in a slice of their exact size.
func (c *packedColumn) decode() []graph.NodeID {
	out := make([]graph.NodeID, c.n)
	k := 0
	for b, h := range c.heads {
		k = h.get(c.block(out, b), c.words, k)
	}
	return out
}

// countRanges adds to count[r] the number of entries v with
// v/width - first = r. A block whose bounds fall in one range is
// counted whole, undecoded: a sorted side's blocks mostly do.
func (c *packedColumn) countRanges(count []int32, width, first uint32) {
	var buf [blockLen]graph.NodeID
	k := 0
	for b, h := range c.heads {
		n := c.blockSize(b)
		lo, hi := h.bounds(n)
		if r := uint32(lo) / width; r == uint32(min(hi, int64(c.hi)))/width {
			count[r-first] += int32(n)
		} else {
			h.get(buf[:n], c.words, k)
			for _, v := range buf[:n] {
				count[uint32(v)/width-first]++
			}
		}
		k += wordsFor(n, h.width)
	}
}

// pairBlocks yields the edges of two columns of one predicate a block
// at a time, decoded into buffers that the next block overwrites.
func pairBlocks(src, dst *packedColumn) iter.Seq2[[]graph.NodeID, []graph.NodeID] {
	return func(yield func(srcs, dsts []graph.NodeID) bool) {
		var sb, db [blockLen]graph.NodeID
		ks, kd := 0, 0
		for b := range src.heads {
			n := src.blockSize(b)
			ks = src.heads[b].get(sb[:n], src.words, ks)
			kd = dst.heads[b].get(db[:n], dst.words, kd)
			if !yield(sb[:n], db[:n]) {
				return
			}
		}
	}
}

// filterPacked is filterRange over packed columns: the (key, other)
// pairs whose key lies in [lo, hi), in order, in slices of their exact
// size. Only blocks whose bounds meet the range are decoded: a first
// pass counts each block's matches, a second decodes the blocks with
// any, both sides, straight into the result.
func filterPacked(key, other *packedColumn, lo, hi graph.NodeID) (fk, fo []graph.NodeID) {
	var kb, ob [blockLen]graph.NodeID
	matches := make([]uint8, len(key.heads))
	total, k := 0, 0
	for b, h := range key.heads {
		n := key.blockSize(b)
		switch blo, bhi := h.bounds(n); {
		case bhi < int64(lo) || blo >= int64(hi):
		case blo >= int64(lo) && bhi < int64(hi):
			matches[b] = uint8(n)
		default:
			h.get(kb[:n], key.words, k)
			m := 0
			for _, v := range kb[:n] {
				if v >= lo && v < hi {
					m++
				}
			}
			matches[b] = uint8(m)
		}
		total += int(matches[b])
		k += wordsFor(n, h.width)
	}
	fk = make([]graph.NodeID, 0, total)
	fo = make([]graph.NodeID, 0, total)
	kk, ko := 0, 0
	for b, h := range key.heads {
		n := key.blockSize(b)
		oh := other.heads[b]
		if matches[b] > 0 {
			h.get(kb[:n], key.words, kk)
			oh.get(ob[:n], other.words, ko)
			for i, v := range kb[:n] {
				if v >= lo && v < hi {
					fk = append(fk, v)
					fo = append(fo, ob[i])
				}
			}
		}
		kk += wordsFor(n, h.width)
		ko += wordsFor(n, oh.width)
	}
	return fk, fo
}
