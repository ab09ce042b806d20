package graphgen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// This file is the self-contained byte codec of the compressed
// (format_version 3) on-disk generation: uvarint/zigzag primitives
// over []int32, the delta-varint CSR shard payload, the optional
// per-shard compression frame, and the count-prefixed pair blocks of
// the spill sink's temp run files. A pair is the zigzag deltas of
// (from, to) against the previous pair, as appendVarintEdge writes
// it; the binary partitioned edge files (partition.go) are the same
// pairs in one stream behind a magic header, with no count.
// docs/FORMATS.md specifies every layout for external readers; the
// decoders here are hardened to reject truncated, corrupt, or
// overflowing input with errors — never a panic, never silent wrong
// adjacency — and are fuzzed (FuzzCSRShardDecode, FuzzVarint32,
// FuzzPairBlocksDecode).

// SpillCompression selects the on-disk generation a CSR spill (or any
// other compressible sink) writes. The zero value is the legacy raw
// layout, so existing call sites keep their bytes unless they opt in.
type SpillCompression int

// The spill compression settings. None writes the legacy
// format_version 2 raw-uint32 layout; Varint writes format_version 3
// delta-varint shards with no compression frame; Deflate additionally
// wraps each shard's payload in a DEFLATE frame when that actually
// shrinks it (the codec flag byte records the per-shard choice); Zstd
// names the reserved codec ID 1 — the format reserves it so a future
// zstd writer needs no format_version 4, but this vendor-free build
// implements no zstd coder and rejects the setting at write time.
const (
	SpillCompressNone SpillCompression = iota
	SpillCompressVarint
	SpillCompressDeflate
	SpillCompressZstd
	// SpillCompressRaw writes format_version 3 shards whose payload is
	// the fixed-width v1 array layout, 8-byte aligned behind a
	// page-padded header ("GMKCSR3\n" magic), so a reader can interpret
	// — or mmap — the shard file in place with zero decode work. Larger
	// on disk than varint/deflate; fastest cold first pass.
	SpillCompressRaw
)

// ParseSpillCompression maps a -spill-compress flag value to its
// setting: "none", "raw", "varint", "deflate", or "zstd". It is the
// single parse/validate helper every CLI shares, so the reserved zstd
// codec is rejected with one consistent error text.
func ParseSpillCompression(s string) (SpillCompression, error) {
	switch s {
	case "none":
		return SpillCompressNone, nil
	case "raw":
		return SpillCompressRaw, nil
	case "varint":
		return SpillCompressVarint, nil
	case "deflate":
		return SpillCompressDeflate, nil
	case "zstd":
		return SpillCompressZstd, fmt.Errorf("graphgen: zstd is a reserved codec (ID %d) not implemented by this vendor-free build; use -spill-compress=deflate", codecZstd)
	default:
		return SpillCompressNone, fmt.Errorf("graphgen: unknown spill compression %q (want none, raw, varint, deflate, or zstd)", s)
	}
}

// String names the setting the way ParseSpillCompression spells it.
func (c SpillCompression) String() string {
	switch c {
	case SpillCompressNone:
		return "none"
	case SpillCompressRaw:
		return "raw"
	case SpillCompressVarint:
		return "varint"
	case SpillCompressDeflate:
		return "deflate"
	case SpillCompressZstd:
		return "zstd"
	}
	return fmt.Sprintf("SpillCompression(%d)", int(c))
}

// checkSpillCompression rejects settings no writer of this build can
// honor — zstd is reserved on disk but has no coder here — at sink
// construction rather than mid-run.
func checkSpillCompression(comp SpillCompression) error {
	switch comp {
	case SpillCompressNone, SpillCompressRaw, SpillCompressVarint, SpillCompressDeflate:
		return nil
	case SpillCompressZstd:
		return fmt.Errorf("graphgen: zstd is a reserved codec (ID %d) not implemented by this vendor-free build; use deflate", codecZstd)
	default:
		return fmt.Errorf("graphgen: unknown spill compression %d", int(comp))
	}
}

// The per-shard codec flag byte of a v3 shard file: how the
// delta-varint payload that follows the header is framed. codecZstd is
// reserved — writing it needs a zstd coder this build does not carry,
// and the decoder rejects it with a clear error instead of guessing.
const (
	codecRaw     byte = 0 // payload is the varint bytes, unframed
	codecZstd    byte = 1 // reserved: zstd frame around the varint bytes
	codecDeflate byte = 2 // DEFLATE frame around the varint bytes
)

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v exactly as binary.AppendUvarint does, with
// the one- to three-byte encodings — nearly every value the codec
// stores — inlined into the caller.
func appendUvarint(b []byte, v uint64) []byte {
	switch {
	case v < 1<<7:
		return append(b, byte(v))
	case v < 1<<14:
		return append(b, byte(v)|0x80, byte(v>>7))
	case v < 1<<21:
		return append(b, byte(v)|0x80, byte(v>>7)|0x80, byte(v>>14))
	}
	return binary.AppendUvarint(b, v)
}

// byteReader reads varints from a byte slice with explicit
// truncation/overflow errors and a running position for messages.
type byteReader struct {
	buf []byte
	pos int
}

// uvarint reads one unsigned varint of at most maxUvarintLen32 bytes,
// equal to binary.Uvarint on every such input. Every value the codec
// stores — an offset or neighbour gap, the zigzag delta of two int32
// ids, a pair count — fits in five bytes, so a longer varint is
// corrupt input, rejected before it can wrap a running total. One- to
// three-byte varints are read without a loop.
func (r *byteReader) uvarint() (uint64, error) {
	if b := r.buf[r.pos:]; len(b) >= 3 {
		if b[0] < 0x80 {
			r.pos++
			return uint64(b[0]), nil
		}
		if b[1] < 0x80 {
			r.pos += 2
			return uint64(b[0]&0x7f) | uint64(b[1])<<7, nil
		}
		if b[2] < 0x80 {
			r.pos += 3
			return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14, nil
		}
	}
	return r.uvarintSlow()
}

// byte1 reads a one-byte varint, the common case, and reports false
// (consuming nothing) when the next varint is longer or the buffer is
// empty. It inlines, so the decoders' hot loops try it before calling
// uvarint.
func (r *byteReader) byte1() (uint64, bool) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		r.pos++
		return uint64(r.buf[r.pos-1]), true
	}
	return 0, false
}

// uvarintSlow is uvarint's general path: four- and five-byte varints,
// the last bytes of the buffer, and the errors.
func (r *byteReader) uvarintSlow() (uint64, error) {
	var v uint64
	for i := 0; i < maxUvarintLen32; i++ {
		if r.pos+i >= len(r.buf) {
			return 0, fmt.Errorf("truncated varint at byte %d", r.pos)
		}
		b := r.buf[r.pos+i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			r.pos += i + 1
			return v, nil
		}
	}
	return 0, fmt.Errorf("varint longer than %d bytes at byte %d", maxUvarintLen32, r.pos)
}

// svarint reads one zigzag-encoded signed varint.
func (r *byteReader) svarint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// rest returns the number of unread bytes.
func (r *byteReader) rest() int { return len(r.buf) - r.pos }

// growBytes returns dst with room for n more bytes. An empty dst that
// is too small is replaced by an allocation of exactly n, so an image
// encoded from nil has no slack and a worker's reused buffer settles at
// its largest shard instead of a doubling of it.
func growBytes(dst []byte, n int) []byte {
	if len(dst) == 0 && cap(dst) < n {
		return make([]byte, 0, n)
	}
	return slices.Grow(dst, n)
}

// appendCSRPayload appends one shard's adjacency as the v3 varint
// payload. off is the shard's offset slice (nLocal+1 entries, not
// necessarily rebased — only the gaps are stored), adj the shard's
// adjacency entries with rows sorted ascending.
//
// Layout: first the nLocal offset gaps off[i+1]-off[i] as uvarints
// (the stored off[0] is 0 by construction), then per non-empty row the
// first neighbor zigzag-encoded as a delta against the previous
// non-empty row's first neighbor (starting from 0), followed by the
// row's remaining neighbor gaps as uvarints. Rows are sorted, so both
// gap kinds are small by construction and the payload shrinks several
// fold against raw uint32s.
//
// Most offset gaps are degrees below 128, one varint byte each, so
// eight such gaps in a row go out as one 64-bit word: the eight bytes
// appendUvarint would write, in one store instead of eight.
func appendCSRPayload(buf []byte, off, adj []int32) []byte {
	// Degrees are usually 1-2 varint bytes; neighbor gaps 1-3.
	buf = growBytes(buf, len(off)+2*len(adj)+16)
	for i := 0; i+1 < len(off); {
		if i+9 <= len(off) {
			if w, ok := oneByteGaps(off[i : i+9]); ok {
				buf = binary.LittleEndian.AppendUint64(buf, w)
				i += 8
				continue
			}
		}
		buf = appendUvarint(buf, uint64(off[i+1]-off[i]))
		i++
	}
	base := off[0]
	prevFirst := int64(0)
	for i := 0; i+1 < len(off); i++ {
		row := adj[off[i]-base : off[i+1]-base]
		if len(row) == 0 {
			continue
		}
		first := int64(row[0])
		buf = appendUvarint(buf, zigzag(first-prevFirst))
		prevFirst = first
		for j := 1; j < len(row); j++ {
			buf = appendUvarint(buf, uint64(row[j]-row[j-1]))
		}
	}
	return buf
}

// oneByteGaps packs the eight gaps of nine consecutive offsets as
// eight one-byte uvarints, little-endian, and reports false when a gap
// is negative or needs a longer varint. It is unrolled: as a loop it
// was no faster than eight appendUvarint calls.
func oneByteGaps(o []int32) (uint64, bool) {
	o = o[:9]
	g0, g1, g2, g3 := uint32(o[1]-o[0]), uint32(o[2]-o[1]), uint32(o[3]-o[2]), uint32(o[4]-o[3])
	g4, g5, g6, g7 := uint32(o[5]-o[4]), uint32(o[6]-o[5]), uint32(o[7]-o[6]), uint32(o[8]-o[7])
	if g0|g1|g2|g3|g4|g5|g6|g7 >= 1<<7 {
		return 0, false
	}
	return uint64(g0) | uint64(g1)<<8 | uint64(g2)<<16 | uint64(g3)<<24 |
		uint64(g4)<<32 | uint64(g5)<<40 | uint64(g6)<<48 | uint64(g7)<<56, true
}

// oneByteMask has the continuation bit of every byte of a word set; a
// word of eight one-byte uvarints has none of them.
const oneByteMask = 0x8080808080808080

// addOneByteGaps writes the running totals of the eight one-byte gaps
// in w (little-endian, as oneByteGaps packs them) to o and returns the
// last, or reports false when that passes limit; o then holds garbage.
// Unrolled, like oneByteGaps.
func addOneByteGaps(o []int32, total, w, limit uint64) (uint64, bool) {
	o = o[:8]
	t0 := total + w&0xff
	t1 := t0 + w>>8&0xff
	t2 := t1 + w>>16&0xff
	t3 := t2 + w>>24&0xff
	t4 := t3 + w>>32&0xff
	t5 := t4 + w>>40&0xff
	t6 := t5 + w>>48&0xff
	t7 := t6 + w>>56
	o[0], o[1], o[2], o[3] = int32(t0), int32(t1), int32(t2), int32(t3)
	o[4], o[5], o[6], o[7] = int32(t4), int32(t5), int32(t6), int32(t7)
	return t7, t7 <= limit
}

// decodeCSRPayload inverts appendCSRPayload: it rebuilds the rebased
// offset slice (off[0] == 0) and the adjacency entries of a shard
// covering nLocal nodes with edges entries. Every accumulated value is
// range-checked so corrupt input yields an error, never out-of-range
// adjacency.
func decodeCSRPayload(payload []byte, nLocal, edges int) (off, adj []int32, err error) {
	// Every stored value — nLocal offset gaps, one varint per
	// adjacency entry — occupies at least one payload byte, so this
	// single check bounds both allocations below by the input size: a
	// corrupt header cannot demand a giant slice from a tiny payload.
	if len(payload) < nLocal+edges {
		return nil, nil, fmt.Errorf("payload of %d bytes too short for %d nodes, %d edges", len(payload), nLocal, edges)
	}
	r := &byteReader{buf: payload}
	off = make([]int32, nLocal+1)
	total := uint64(0)
	for i := 0; i < nLocal; {
		// Eight one-byte gaps in one load, unless they would pass the
		// declared edges: the byte path then names the exact node.
		if i+8 <= nLocal && r.rest() >= 8 {
			if w := binary.LittleEndian.Uint64(r.buf[r.pos:]); w&oneByteMask == 0 {
				if t, ok := addOneByteGaps(off[i+1:i+9], total, w, uint64(edges)); ok {
					total = t
					r.pos += 8
					i += 8
					continue
				}
			}
		}
		gap, ok := r.byte1()
		if !ok {
			if gap, err = r.uvarint(); err != nil {
				return nil, nil, fmt.Errorf("offset gap %d: %w", i, err)
			}
		}
		total += gap
		if total > uint64(edges) {
			return nil, nil, fmt.Errorf("offset gaps exceed declared %d edges at node %d", edges, i)
		}
		off[i+1] = int32(total)
		i++
	}
	if total != uint64(edges) {
		return nil, nil, fmt.Errorf("offset gaps sum to %d, header declares %d edges", total, edges)
	}
	adj = make([]int32, edges)
	prevFirst := int64(0)
	for i := 0; i < nLocal; i++ {
		d := int(off[i+1] - off[i])
		if d == 0 {
			continue
		}
		delta, err := r.svarint()
		if err != nil {
			return nil, nil, fmt.Errorf("row %d first neighbor: %w", i, err)
		}
		v := prevFirst + delta
		if v < 0 || v > math.MaxInt32 {
			return nil, nil, fmt.Errorf("row %d first neighbor %d out of node-id range", i, v)
		}
		prevFirst = v
		adj[off[i]] = int32(v)
		for j := 1; j < d; j++ {
			gap, ok := r.byte1()
			if !ok {
				if gap, err = r.uvarint(); err != nil {
					return nil, nil, fmt.Errorf("row %d neighbor gap %d: %w", i, j, err)
				}
			}
			v += int64(gap)
			if v > math.MaxInt32 {
				return nil, nil, fmt.Errorf("row %d neighbor %d out of node-id range", i, v)
			}
			adj[off[i]+int32(j)] = int32(v)
		}
	}
	if r.rest() != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after adjacency", r.rest())
	}
	return off, adj, nil
}

// csrShardV3Header is the byte length of a v3 shard's header: magic,
// codec flag byte, node count, edge count, payload length.
const csrShardV3Header = len(csrMagicV3) + 13

// appendCSRShardV3 appends one complete v3 shard file image: magic,
// codec flag byte, counts, payload length, payload — the payload
// encoded in place behind the header, whose codec and length fields are
// patched once it is known. Under SpillCompressDeflate the frame is
// applied per shard only when it actually shrinks the payload, and the
// flag byte records the choice; the fixed-width settings
// (SpillCompressNone, SpillCompressRaw) go through appendFixedShard.
func appendCSRShardV3(dst []byte, off, adj []int32, comp SpillCompression) ([]byte, error) {
	switch comp {
	case SpillCompressVarint, SpillCompressDeflate:
	case SpillCompressZstd:
		return nil, fmt.Errorf("graphgen: zstd is a reserved codec (ID %d) with no coder in this build", codecZstd)
	default:
		return nil, fmt.Errorf("graphgen: %v is not a v3 shard compression", comp)
	}
	nLocal := len(off) - 1
	base := off[0]
	edges := int(off[nLocal] - base)
	head := len(dst)
	dst = growBytes(dst, csrShardV3Header+len(off)+2*edges+16)
	dst = append(dst, csrMagicV3...)
	dst = append(dst, codecRaw)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nLocal))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(edges))
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	body := len(dst)
	dst = appendCSRPayload(dst, off, adj[base:off[nLocal]])
	if comp == SpillCompressDeflate {
		if framed, err := deflateBytes(dst[body:]); err == nil && len(framed) < len(dst)-body {
			dst = append(dst[:body], framed...)
			dst[head+len(csrMagicV3)] = codecDeflate
		}
	}
	binary.LittleEndian.PutUint32(dst[body-4:], uint32(len(dst)-body))
	return dst, nil
}

// EncodeCSRShard renders one complete shard file image — the exact
// bytes the batch spill writers put on disk — in the layout comp
// selects: the legacy raw-uint32 layout (SpillCompressNone), the
// mappable page-padded layout (SpillCompressRaw), or the delta-varint
// v3 layout with an optional per-shard DEFLATE frame
// (SpillCompressVarint / SpillCompressDeflate). off is the global
// offset slice of the shard's node range (nLocal+1 entries, not
// necessarily rebased); adj is the full adjacency the offsets index
// into, rows sorted ascending. The returned image is freshly allocated
// at its exact size, for callers — the slice server's cache — that keep
// it.
func EncodeCSRShard(off, adj []int32, comp SpillCompression) ([]byte, error) {
	img, err := appendCSRShard(nil, off, adj, comp)
	if err != nil {
		return nil, err
	}
	if cap(img) > len(img) {
		img = bytes.Clone(img)
	}
	return img, nil
}

// appendCSRShard is EncodeCSRShard into a caller-owned buffer: the
// image is appended to dst, which a spill worker reuses from one shard
// to the next. It is the single byte-layout definition shared by
// WriteCSRSpillFromGraphWith, CSRSpillSink and the slice server, so a
// shard served on demand cannot drift from its batch twin.
func appendCSRShard(dst []byte, off, adj []int32, comp SpillCompression) ([]byte, error) {
	if err := checkSpillCompression(comp); err != nil {
		return nil, err
	}
	if len(off) == 0 {
		return nil, fmt.Errorf("graphgen: shard has no offset array")
	}
	switch comp {
	case SpillCompressNone, SpillCompressRaw:
		return appendFixedShard(dst, off, adj, comp == SpillCompressRaw), nil
	default:
		return appendCSRShardV3(dst, off, adj, comp)
	}
}

// flateWriters recycles DEFLATE writers across shards: a fresh writer
// costs ~1 MB of tables, and Reset makes a used one equivalent to a
// fresh one, so the frames are byte-identical either way.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.DefaultCompression) // cannot fail at a valid level
	return fw
}}

// deflateBytes wraps b in a DEFLATE stream at the default level.
func deflateBytes(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(fw)
	fw.Reset(&buf)
	if _, err := fw.Write(b); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflateBytes inverts deflateBytes, refusing to expand past limit
// bytes so a corrupt frame cannot balloon memory.
func inflateBytes(b []byte, limit int64) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(b))
	defer fr.Close()
	out, err := io.ReadAll(io.LimitReader(fr, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > limit {
		return nil, fmt.Errorf("frame inflates past the %d-byte payload bound", limit)
	}
	return out, nil
}

// maxUvarintLen32 bounds one encoded entry: the longest varint a
// reader accepts, and the unit of the inflate guard.
const maxUvarintLen32 = 5

// decodeCSRShard parses a whole shard file image of any layout — the
// fixed-width "GMKCSR1\n" and "GMKCSR3\n" or the varint "GMKCSR2\n" —
// returning the rebased offsets (off[0] == 0) and the global sorted
// adjacency. It is the single decode entry point LoadShardSized and the
// fuzz harness share.
func decodeCSRShard(data []byte) (off, adj []int32, err error) {
	switch {
	case hasMagic(data, csrMagic), hasMagic(data, csrMagicRaw):
		return decodeFixedShard(data)
	case hasMagic(data, csrMagicV3):
		return decodeCSRShardV3(data[len(csrMagicV3):])
	default:
		return nil, nil, fmt.Errorf("not a CSR shard file")
	}
}

// hasMagic reports whether data starts with magic.
func hasMagic(data []byte, magic string) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}

// decodeCSRShardV3 parses the varint body: codec byte, counts, payload
// length, then the (possibly DEFLATE-framed) varint payload.
func decodeCSRShardV3(body []byte) (off, adj []int32, err error) {
	if len(body) < 13 {
		return nil, nil, fmt.Errorf("truncated v3 shard header (%d bytes)", len(body))
	}
	codec := body[0]
	nLocal := int(binary.LittleEndian.Uint32(body[1:5]))
	edges := int(binary.LittleEndian.Uint32(body[5:9]))
	payloadLen := int(binary.LittleEndian.Uint32(body[9:13]))
	payload := body[13:]
	if len(payload) != payloadLen {
		return nil, nil, fmt.Errorf("payload is %d bytes, header declares %d", len(payload), payloadLen)
	}
	if nLocal > math.MaxInt32 || edges > math.MaxInt32 || nLocal < 0 || edges < 0 {
		return nil, nil, fmt.Errorf("header counts out of range (%d nodes, %d edges)", nLocal, edges)
	}
	// A valid raw payload cannot exceed one max-width varint per
	// stored value; reject oversized counts before allocating.
	rawBound := int64(nLocal+edges) * maxUvarintLen32
	if int64(payloadLen) > rawBound+maxUvarintLen32 {
		return nil, nil, fmt.Errorf("payload of %d bytes exceeds the %d-byte bound for %d nodes, %d edges",
			payloadLen, rawBound, nLocal, edges)
	}
	switch codec {
	case codecRaw:
	case codecDeflate:
		// DEFLATE expands at most ~1032x, so capping the inflate at
		// min(rawBound, 1032*|frame|) admits every legitimate frame
		// while keeping a crafted bomb from ballooning memory.
		limit := rawBound
		if frameBound := 1032*int64(len(payload)) + 64; frameBound < limit {
			limit = frameBound
		}
		payload, err = inflateBytes(payload, limit)
		if err != nil {
			return nil, nil, fmt.Errorf("deflate frame: %w", err)
		}
	case codecZstd:
		return nil, nil, fmt.Errorf("shard uses the reserved zstd codec (ID %d), which this build cannot decode", codecZstd)
	default:
		return nil, nil, fmt.Errorf("unknown shard codec %d", codec)
	}
	off, adj, err = decodeCSRPayload(payload, nLocal, edges)
	if err != nil {
		return nil, nil, err
	}
	return off, adj, nil
}

// The two fixed-width shard layouts store the same arrays — the
// rebased offsets, then the adjacency, little-endian uint32s — behind
// different headers. "GMKCSR1\n" (SpillCompressNone) puts them right
// after its 16-byte header. The mappable "GMKCSR3\n" (SpillCompressRaw)
// puts them behind a page-padded header whose length it records, with
// the adjacency 8-byte aligned, so the file can be interpreted — or
// memory-mapped — in place. All alignment guarantees hold relative to
// the file start, which mmap places on a page boundary.
// docs/FORMATS.md has the external specification.
const (
	// fixedShardHeaderV1 is the byte offset of a "GMKCSR1\n" shard's
	// offset array: the magic and the two counts.
	fixedShardHeaderV1 = len(csrMagic) + 8
	// rawShardHeaderLen is the byte offset of the offset array: one
	// page, so the arrays start page-aligned in a mapping and header
	// growth never moves them within a format_version.
	rawShardHeaderLen = 4096
	// rawShardHeaderMin is the smallest header a reader accepts, the
	// bytes the fixed fields occupy; headerLen values between it and
	// the file size are legal as long as they are 8-byte aligned.
	rawShardHeaderMin = 24
)

// RawShardLayout locates the fixed-width arrays inside a shard image:
// the offset array is NLocal+1 uint32s at OffStart, the adjacency
// array Edges uint32s at AdjStart. In a raw ("GMKCSR3\n") image both
// starts are multiples of 8 from the image head, so a page-aligned
// mapping can reinterpret them as []int32 in place.
type RawShardLayout struct {
	NLocal   int // nodes covered by the shard
	Edges    int // adjacency entries
	OffStart int // byte offset of off[] (NLocal+1 uint32s)
	AdjStart int // byte offset of adj[] (Edges uint32s)
}

// ParseRawShardImage validates a raw shard image's header and
// structure and returns where its arrays live. ok is false when the
// image does not carry the raw magic at all (the caller should fall
// back to decodeCSRShard); a raw-magic image that fails validation is
// corrupt and returns an error. Array *contents* are not inspected —
// that is the point of the mappable layout; CheckShardOffsets
// validates the offset array once it is viewed.
func ParseRawShardImage(data []byte) (lay RawShardLayout, ok bool, err error) {
	if !hasMagic(data, csrMagicRaw) {
		return RawShardLayout{}, false, nil
	}
	lay, err = parseFixedShard(data)
	return lay, true, err
}

// parseFixedShard is the one layout parse of both fixed-width shard
// layouts: it validates the header and the exact file size of an image
// carrying either magic and returns where its arrays live.
func parseFixedShard(data []byte) (RawShardLayout, error) {
	if len(data) < fixedShardHeaderV1 {
		return RawShardLayout{}, fmt.Errorf("truncated shard header (%d bytes)", len(data))
	}
	nLocal := int64(binary.LittleEndian.Uint32(data[8:12]))
	edges := int64(binary.LittleEndian.Uint32(data[12:16]))
	headerLen, align := int64(fixedShardHeaderV1), int64(4)
	if hasMagic(data, csrMagicRaw) {
		if len(data) < rawShardHeaderMin {
			return RawShardLayout{}, fmt.Errorf("truncated raw shard header (%d bytes)", len(data))
		}
		headerLen, align = int64(binary.LittleEndian.Uint32(data[16:20])), 8
		if headerLen < rawShardHeaderMin || headerLen%8 != 0 || headerLen > int64(len(data)) {
			return RawShardLayout{}, fmt.Errorf("raw shard header length %d invalid", headerLen)
		}
	}
	adjStart := (headerLen + 4*(nLocal+1) + align - 1) &^ (align - 1)
	if want := adjStart + 4*edges; int64(len(data)) != want {
		return RawShardLayout{}, fmt.Errorf("shard is %d bytes, layout wants %d (%d nodes, %d edges)",
			len(data), want, nLocal, edges)
	}
	return RawShardLayout{
		NLocal:   int(nLocal),
		Edges:    int(edges),
		OffStart: int(headerLen),
		AdjStart: int(adjStart),
	}, nil
}

// CheckShardOffsets validates a shard's rebased offset array against
// its declared edge count: off[0] == 0, monotone non-decreasing, final
// entry == edges. It is the shared structural check of the copying
// decoder and the in-place (mmap) reader, so both reject the same
// corruption instead of slicing out of bounds.
func CheckShardOffsets(off []int32, edges int) error {
	if len(off) == 0 {
		return fmt.Errorf("shard has no offset array")
	}
	if off[0] != 0 {
		return fmt.Errorf("shard offsets start at %d, not 0", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("shard offsets not monotone at node %d", i)
		}
	}
	if int(off[len(off)-1]) != edges {
		return fmt.Errorf("shard offsets end at %d, header declares %d edges", off[len(off)-1], edges)
	}
	return nil
}

// appendFixedShard appends one complete fixed-width shard image — the
// mappable "GMKCSR3\n" layout when raw is set, "GMKCSR1\n" otherwise:
// the header, the rebased offset array, zero padding up to the
// adjacency's alignment, then the adjacency array. off is the global
// offset slice of the shard's range (not necessarily rebased); adj is
// the full adjacency the offsets index into.
func appendFixedShard(dst []byte, off, adj []int32, raw bool) []byte {
	nLocal := len(off) - 1
	base := off[0]
	local := adj[base:off[nLocal]]
	magic, headerLen, adjStart := csrMagic, fixedShardHeaderV1, fixedShardHeaderV1+4*(nLocal+1)
	if raw {
		magic, headerLen = csrMagicRaw, rawShardHeaderLen
		adjStart = (rawShardHeaderLen + 4*(nLocal+1) + 7) &^ 7
	}
	size := adjStart + 4*len(local)
	dst = growBytes(dst, size)
	out := dst[len(dst) : len(dst)+size]
	// A reused buffer holds the previous shard: the header's padding and
	// the gap before the adjacency must be written as zeros.
	clear(out[:headerLen])
	clear(out[headerLen+4*(nLocal+1) : adjStart])
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[8:12], uint32(nLocal))
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(local)))
	if raw {
		binary.LittleEndian.PutUint32(out[16:20], rawShardHeaderLen)
	}
	for i, v := range off {
		binary.LittleEndian.PutUint32(out[headerLen+4*i:], uint32(v-base))
	}
	for i, v := range local {
		binary.LittleEndian.PutUint32(out[adjStart+4*i:], uint32(v))
	}
	return dst[:len(dst)+size]
}

// decodeFixedShard is the copying reader of both fixed-width layouts —
// the path non-mmap loaders and the fuzz harness take. Unlike the
// in-place reader it can afford to range-check every adjacency entry.
func decodeFixedShard(data []byte) (off, adj []int32, err error) {
	lay, err := parseFixedShard(data)
	if err != nil {
		return nil, nil, err
	}
	off = make([]int32, lay.NLocal+1)
	for i := range off {
		off[i] = int32(binary.LittleEndian.Uint32(data[lay.OffStart+4*i:]))
	}
	if err := CheckShardOffsets(off, lay.Edges); err != nil {
		return nil, nil, err
	}
	adj = make([]int32, lay.Edges)
	for i := range adj {
		adj[i] = int32(binary.LittleEndian.Uint32(data[lay.AdjStart+4*i:]))
		if adj[i] < 0 {
			return nil, nil, fmt.Errorf("adjacency entry %d out of node-id range", i)
		}
	}
	return off, adj, nil
}

// appendPairBlock appends one self-delimiting delta-varint block of
// (from, to) pairs to dst: a uvarint pair count, then the pairs as
// appendVarintEdge writes them, deltas against the previous pair
// starting from 0 at the block head. The spill sink's temp run files
// are a concatenation of these blocks, one per cell per drain.
func appendPairBlock(dst []byte, from, to []int32) []byte {
	dst = appendUvarint(dst, uint64(len(from)))
	var prevF, prevT int64
	for i := range from {
		dst = appendVarintEdge(dst, &prevF, &prevT, from[i], to[i])
	}
	return dst
}

// decodePairBlocks parses a concatenation of appendPairBlock blocks
// back into (from, to) slices, rejecting truncated or out-of-range
// input. hint, when positive, is the capacity to allocate up front — a
// caller that knows how many pairs it wrote (plus any it will append)
// gets both columns in one allocation each; 0 grows them as the blocks
// are read.
func decodePairBlocks(data []byte, hint int) (from, to []int32, err error) {
	if hint > 0 {
		from, to = make([]int32, 0, hint), make([]int32, 0, hint)
	}
	r := &byteReader{buf: data}
	for r.rest() > 0 {
		n, err := r.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("block count: %w", err)
		}
		// Each pair takes at least two bytes; a count past that is a
		// corrupt header, not a short file.
		if n > uint64(r.rest()) {
			return nil, nil, fmt.Errorf("block declares %d pairs with %d bytes left", n, r.rest())
		}
		if from, to, err = r.pairs(from, to, int(n), math.MaxInt32+1); err != nil {
			return nil, nil, err
		}
	}
	return from, to, nil
}

// pairs decodes n pairs as appendVarintEdge writes them, the previous
// pair starting at (0, 0), and appends them to from and to. A pair
// with an id outside [0, bound) is an error.
func (r *byteReader) pairs(from, to []int32, n int, bound int64) ([]int32, []int32, error) {
	var prevF, prevT int64
	for i := 0; i < n; i++ {
		df, err := r.svarint()
		if err != nil {
			return nil, nil, fmt.Errorf("pair %d from: %w", i, err)
		}
		dt, err := r.svarint()
		if err != nil {
			return nil, nil, fmt.Errorf("pair %d to: %w", i, err)
		}
		prevF += df
		prevT += dt
		if prevF < 0 || prevF >= bound || prevT < 0 || prevT >= bound {
			return nil, nil, fmt.Errorf("pair %d (%d, %d) out of node-id range", i, prevF, prevT)
		}
		from = append(from, int32(prevF))
		to = append(to, int32(prevT))
	}
	return from, to, nil
}
