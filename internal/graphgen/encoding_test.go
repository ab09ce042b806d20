package graphgen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// randomCSR builds a sorted random CSR block covering nLocal nodes.
func randomCSR(rng *rand.Rand, nLocal, maxDeg, maxNode int) (off, adj []int32) {
	off = make([]int32, nLocal+1)
	for i := 0; i < nLocal; i++ {
		deg := rng.Intn(maxDeg + 1)
		row := make([]int32, deg)
		for j := range row {
			row[j] = int32(rng.Intn(maxNode))
		}
		slices.Sort(row)
		adj = append(adj, row...)
		off[i+1] = off[i] + int32(deg)
	}
	return off, adj
}

// TestCSRPayloadRoundTrip: encode/decode over random sorted CSR blocks
// must be the identity, for every codec.
func TestCSRPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nLocal := rng.Intn(40)
		off, adj := randomCSR(rng, nLocal, 12, 1<<20)
		for _, comp := range []SpillCompression{SpillCompressVarint, SpillCompressDeflate} {
			img, err := appendCSRShardV3(nil, off, adj, comp)
			if err != nil {
				t.Fatal(err)
			}
			gotOff, gotAdj, err := decodeCSRShard(img)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, comp, err)
			}
			if !slices.Equal(gotOff, off) || !slices.Equal(gotAdj, adj) {
				t.Fatalf("trial %d %v: round trip mismatch", trial, comp)
			}
		}
	}
}

// TestCSRPayloadRebasing: the encoder takes unrebased offsets (a
// mid-graph shard slice) and the decoder returns rebased ones.
func TestCSRPayloadRebasing(t *testing.T) {
	off := []int32{100, 102, 102, 105}
	adj := []int32{7, 9, 1, 4, 8}
	img, err := appendCSRShardV3(nil, off, append(make([]int32, 100), adj...), SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	gotOff, gotAdj, err := decodeCSRShard(img)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotOff, []int32{0, 2, 2, 5}) || !slices.Equal(gotAdj, adj) {
		t.Fatalf("got %v %v", gotOff, gotAdj)
	}
}

// TestDeflateFrameOnlyWhenSmaller: the codec byte must record raw when
// the DEFLATE frame does not shrink the payload (tiny/incompressible
// shards) and deflate when it does.
func TestDeflateFrameOnlyWhenSmaller(t *testing.T) {
	tiny, err := appendCSRShardV3(nil, []int32{0, 1}, []int32{3}, SpillCompressDeflate)
	if err != nil {
		t.Fatal(err)
	}
	if codec := tiny[len(csrMagicV3)]; codec != codecRaw {
		t.Fatalf("tiny shard framed with codec %d; DEFLATE cannot shrink 2 bytes", codec)
	}

	// A large regular block compresses well, so the frame must be kept.
	off := make([]int32, 4097)
	adj := make([]int32, 0, 4096*4)
	for i := 0; i < 4096; i++ {
		off[i+1] = off[i] + 4
		base := int32(i * 8)
		adj = append(adj, base, base+1, base+2, base+3)
	}
	big, err := appendCSRShardV3(nil, off, adj, SpillCompressDeflate)
	if err != nil {
		t.Fatal(err)
	}
	if codec := big[len(csrMagicV3)]; codec != codecDeflate {
		t.Fatalf("regular 16K-edge shard kept codec %d; expected a winning DEFLATE frame", codec)
	}
	raw, err := appendCSRShardV3(nil, off, adj, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) >= len(raw) {
		t.Fatalf("deflate image %d bytes >= raw image %d", len(big), len(raw))
	}
	gotOff, gotAdj, err := decodeCSRShard(big)
	if err != nil || !slices.Equal(gotOff, off) || !slices.Equal(gotAdj, adj) {
		t.Fatalf("deflate round trip: %v", err)
	}
}

// TestParseSpillCompression: names round-trip, zstd and unknown names
// are clear errors.
func TestParseSpillCompression(t *testing.T) {
	for _, name := range []string{"none", "raw", "varint", "deflate"} {
		c, err := ParseSpillCompression(name)
		if err != nil || c.String() != name {
			t.Fatalf("ParseSpillCompression(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ParseSpillCompression("zstd"); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("zstd accepted or unhelpfully rejected: %v", err)
	}
	if _, err := ParseSpillCompression("lz4"); err == nil {
		t.Fatal("unknown compression accepted")
	}
	if _, err := NewCSRSpillSinkWith(t.TempDir(), mustUsecase(t, "bib", 100), 0, SpillCompressZstd); err == nil {
		t.Fatal("zstd sink constructed without error")
	}
}

func mustUsecase(t *testing.T, uc string, n int) *schema.GraphConfig {
	t.Helper()
	cfg, err := usecases.ByName(uc, n)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestDecodeCSRShardRejectsCorrupt: every mutation of a valid shard
// image must fail with an error — never panic, never decode wrong
// adjacency silently.
func TestDecodeCSRShardRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	off, adj := randomCSR(rng, 20, 6, 1000)
	img, err := appendCSRShardV3(nil, off, adj, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("GMKCSR9\n"), img[8:]...),
		"header only":     img[:10],
		"truncated body":  img[:len(img)-3],
		"trailing bytes":  append(slices.Clone(img), 0, 0),
		"zstd codec":      mutate(img, len(csrMagicV3), codecZstd),
		"unknown codec":   mutate(img, len(csrMagicV3), 9),
		"edges inflated":  mutate(img, len(csrMagicV3)+5, 0xFF),
		"nLocal inflated": mutate(img, len(csrMagicV3)+1, 0xFF),
	}
	maps.Copy(cases, wrappingShards())
	for name, data := range cases {
		if _, _, err := decodeCSRShard(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, _, err := decodeCSRShard(img); err != nil {
		t.Fatalf("unmutated image failed: %v", err)
	}

	// The zstd rejection must name the codec, not just fail.
	if _, _, err := decodeCSRShard(mutate(img, len(csrMagicV3), codecZstd)); err == nil || !strings.Contains(err.Error(), "zstd") {
		t.Errorf("zstd shard unhelpfully rejected: %v", err)
	}
}

// v3ShardImage wraps a varint payload in an uncompressed v3 shard
// header declaring nLocal nodes and edges edges.
func v3ShardImage(nLocal, edges uint32, payload []byte) []byte {
	img := append([]byte(csrMagicV3), codecRaw)
	img = binary.LittleEndian.AppendUint32(img, nLocal)
	img = binary.LittleEndian.AppendUint32(img, edges)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	return append(img, payload...)
}

// wrappingShards are two crafted shards whose ten-byte varints pass
// every range check of a 64-bit varint reader: an offset gap of
// 2^64-3 wraps the running total (3 nodes, 5 edges: a decoder that
// takes it indexes past the adjacency), and a neighbour gap of
// 2^64-15 steps the row [10, ...] down to -5. No valid shard holds a
// varint longer than five bytes, so both must fail.
func wrappingShards() map[string][]byte {
	return map[string][]byte{
		"offset gap wraps": v3ShardImage(3, 5, []byte{
			0x05, 0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x03,
			0x02, 0x01, 0x01, 0x01, 0x01, 0x02, 0x02, 0x01, 0x01}),
		"neighbour gap wraps": v3ShardImage(1, 2, []byte{
			0x02, 0x14, 0xF1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}),
	}
}

func mutate(img []byte, i int, b byte) []byte {
	out := slices.Clone(img)
	out[i] = b
	return out
}

// TestPairBlocksRoundTrip: the run-file block codec is the identity
// over multiple appended blocks, and rejects corrupt input.
func TestPairBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf []byte
	var wantF, wantT []int32
	for b := 0; b < 5; b++ {
		n := rng.Intn(50)
		from := make([]int32, n)
		to := make([]int32, n)
		for i := range from {
			from[i] = int32(rng.Intn(1 << 28))
			to[i] = int32(rng.Intn(1 << 28))
		}
		buf = appendPairBlock(buf, from, to)
		wantF = append(wantF, from...)
		wantT = append(wantT, to...)
	}
	gotF, gotT, err := decodePairBlocks(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotF, wantF) || !slices.Equal(gotT, wantT) {
		t.Fatal("pair blocks round trip mismatch")
	}
	if _, _, err := decodePairBlocks(buf[:len(buf)-1], 0); err == nil {
		t.Error("truncated pair stream decoded without error")
	}
	if _, _, err := decodePairBlocks([]byte{0xFF}, 0); err == nil {
		t.Error("truncated block count decoded without error")
	}
}

// TestV3SpillAtLeastTwiceSmaller is the acceptance bar: for every
// built-in use case, the default v3 varint spill must be at least 2x
// smaller on disk than the raw v2 spill of the same instance, and
// deflate smaller again.
func TestV3SpillAtLeastTwiceSmaller(t *testing.T) {
	if testing.Short() {
		t.Skip("generates four instances")
	}
	for _, uc := range usecases.Names {
		cfg := mustUsecase(t, uc, 10_000)
		g, err := Generate(cfg, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[SpillCompression]int64{}
		for _, comp := range []SpillCompression{SpillCompressNone, SpillCompressVarint, SpillCompressDeflate} {
			dir := filepath.Join(t.TempDir(), comp.String())
			if err := WriteCSRSpillFromGraphWith(dir, g, 512, comp); err != nil {
				t.Fatal(err)
			}
			sizes[comp] = treeBytes(t, dir)
		}
		if 2*sizes[SpillCompressVarint] > sizes[SpillCompressNone] {
			t.Errorf("%s: v3 varint %d bytes vs v2 %d — less than 2x smaller", uc, sizes[SpillCompressVarint], sizes[SpillCompressNone])
		}
		if sizes[SpillCompressDeflate] >= sizes[SpillCompressVarint] {
			t.Errorf("%s: deflate %d bytes >= varint %d", uc, sizes[SpillCompressDeflate], sizes[SpillCompressVarint])
		}
	}
}

func treeBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestBinaryPartitionRoundTrip: the binary partitioned sink must load
// back into exactly the graph the text sink describes, and its index
// must carry the version and encoding markers.
func TestBinaryPartitionRoundTrip(t *testing.T) {
	cfg := mustUsecase(t, "bib", 2000)
	opt := Options{Seed: 21, Parallelism: 4}
	g, err := Generate(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "parts")
	sink, err := NewBinaryPartitionedSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Emit(cfg, opt, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumEdges() {
		t.Fatalf("binary sink saw %d edges, Generate made %d", n, g.NumEdges())
	}
	idx, err := ReadPartitionIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx.FormatVersion != partitionFormatVersion {
		t.Fatalf("index format_version %d, want %d", idx.FormatVersion, partitionFormatVersion)
	}
	for _, p := range idx.Predicates {
		if p.Encoding != partitionVarintEncoding {
			t.Fatalf("predicate %s encoding %q", p.Name, p.Encoding)
		}
		if !strings.HasSuffix(p.File, ".bin") {
			t.Fatalf("predicate %s file %q not .bin", p.Name, p.File)
		}
	}
	loaded, err := LoadPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphText(g), graphText(loaded)) {
		t.Fatal("binary partition round trip differs from the generated graph")
	}
}

// TestBinaryPartitionDeterministic: byte-identical edge files at any
// parallelism — the ordered-flush guarantee must survive the stateful
// delta encoder.
func TestBinaryPartitionDeterministic(t *testing.T) {
	cfg := mustUsecase(t, "bib", 1500)
	var want map[string][]byte
	for _, par := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "parts")
		sink, err := NewBinaryPartitionedSink(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Emit(cfg, Options{Seed: 9, Parallelism: par}, sink); err != nil {
			t.Fatal(err)
		}
		got := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[e.Name()] = data
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d wrote %d files, want %d", par, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Fatalf("parallelism %d: %s differs byte-for-byte", par, name)
			}
		}
	}
}

// TestFuturePartitionIndexRejected: an index claiming a newer
// format_version must be refused with a clear error.
func TestFuturePartitionIndexRejected(t *testing.T) {
	dir := t.TempDir()
	err := os.WriteFile(filepath.Join(dir, partitionIndexFile),
		[]byte(`{"format_version": 99, "nodes": 1, "edges": 0}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPartitionIndex(dir); err == nil || !strings.Contains(err.Error(), "format_version") {
		t.Fatalf("future partition index: %v", err)
	}
	if _, err := LoadPartitioned(dir); err == nil {
		t.Fatal("future partition index loaded as a graph")
	}
}

// TestCorruptBinaryPartitionRejected: a truncated or trailing-garbage
// binary edge file must fail to load.
func TestCorruptBinaryPartitionRejected(t *testing.T) {
	cfg := mustUsecase(t, "bib", 500)
	dir := filepath.Join(t.TempDir(), "parts")
	sink, err := NewBinaryPartitionedSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, Options{Seed: 2}, sink); err != nil {
		t.Fatal(err)
	}
	idx, err := ReadPartitionIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, p := range idx.Predicates {
		if p.Edges > 0 {
			victim = filepath.Join(dir, p.File)
			break
		}
	}
	orig, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated": orig[:len(orig)-1],
		"trailing":  append(slices.Clone(orig), 0, 0),
		"bad magic": append([]byte("GMKPRT9\n"), orig[8:]...),
	} {
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPartitioned(dir); err == nil {
			t.Errorf("%s binary edge file loaded without error", name)
		}
	}
}

// FuzzCSRShardDecode hardens the shard decoder: arbitrary input must
// produce either an error or a structurally consistent CSR block —
// offsets rebased and monotone, adjacency exactly off[last] entries of
// node ids in [0, MaxInt32], every row of a varint shard
// non-decreasing — and must never panic. Rows of the raw layouts are
// stored verbatim and not checked on load (their mmap path cannot,
// without reading them), so only varint rows, which store unsigned
// gaps, are held to their order.
func FuzzCSRShardDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	off, adj := randomCSR(rng, 16, 5, 500)
	for _, comp := range []SpillCompression{SpillCompressVarint, SpillCompressDeflate} {
		img, err := appendCSRShardV3(nil, off, adj, comp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)-4])
	}
	var v1 bytes.Buffer
	v1.WriteString(csrMagic)
	// nLocal=2, edges=2, off {0,1,2}, adj {5,9}.
	for _, u := range []uint32{2, 2, 0, 1, 2, 5, 9} {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], u)
		v1.Write(b[:])
	}
	f.Add(v1.Bytes())
	f.Add([]byte(csrMagicV3))
	f.Add(appendFixedShard(nil, off, adj, true))
	f.Add([]byte(csrMagicRaw))
	f.Fuzz(func(t *testing.T, data []byte) {
		off, adj, err := decodeCSRShard(data)
		if err != nil {
			return
		}
		if len(off) == 0 || off[0] != 0 {
			t.Fatalf("decoded offsets not rebased: %v", off)
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				t.Fatalf("offsets not monotone at %d", i)
			}
		}
		if int(off[len(off)-1]) != len(adj) {
			t.Fatalf("offsets end at %d, adjacency has %d entries", off[len(off)-1], len(adj))
		}
		for i, v := range adj {
			if v < 0 { // an int32 never exceeds MaxInt32
				t.Fatalf("adjacency entry %d is %d, not a node id", i, v)
			}
		}
		if bytes.HasPrefix(data, []byte(csrMagicV3)) {
			for k := 0; k+1 < len(off); k++ {
				if row := adj[off[k]:off[k+1]]; !slices.IsSorted(row) {
					t.Fatalf("varint row %d decoded out of order: %v", k, row)
				}
			}
		}
	})
}

// FuzzVarint32 pins the codec's varint primitives to encoding/binary:
// appendUvarint must append binary.AppendUvarint's exact bytes for any
// value, and byteReader must equal binary.Uvarint on every varint of
// at most five bytes — the one-byte probe included — and reject longer
// or truncated ones.
func FuzzVarint32(f *testing.F) {
	for _, v := range []uint64{0, 1, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21,
		1<<28 - 1, 1 << 28, 1<<32 - 1, 1<<35 - 1, 1 << 35, math.MaxUint64} {
		f.Add(v, binary.AppendUvarint(nil, v))
	}
	f.Add(uint64(0), []byte{0x80, 0x00}) // non-canonical zero
	f.Add(uint64(0), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(uint64(0), []byte{0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, v uint64, data []byte) {
		prefix := data[:min(len(data), 3)]
		got, want := appendUvarint(slices.Clone(prefix), v), binary.AppendUvarint(slices.Clone(prefix), v)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendUvarint(%x, %d) = %x, binary.AppendUvarint %x", prefix, v, got, want)
		}

		wantV, n := binary.Uvarint(data)
		r := &byteReader{buf: data}
		gotV, err := r.uvarint()
		if n > 0 && n <= maxUvarintLen32 {
			if err != nil || gotV != wantV || r.pos != n {
				t.Fatalf("uvarint(%x) = %d, %v after %d bytes; binary.Uvarint %d after %d", data, gotV, err, r.pos, wantV, n)
			}
		} else if err == nil {
			t.Fatalf("uvarint(%x) = %d after %d bytes; binary.Uvarint reports %d (longer than %d bytes or truncated)", data, gotV, r.pos, n, maxUvarintLen32)
		}

		r = &byteReader{buf: data}
		if b, ok := r.byte1(); ok != (n == 1) || ok && (b != wantV || r.pos != 1) || !ok && r.pos != 0 {
			t.Fatalf("byte1(%x) = %d, %v after %d bytes; binary.Uvarint %d after %d", data, b, ok, r.pos, wantV, n)
		}
	})
}

// refAppendCSRPayload is appendCSRPayload one varint at a time, every
// one through encoding/binary: the oracle of its word path.
func refAppendCSRPayload(buf []byte, off, adj []int32) []byte {
	for i := 0; i+1 < len(off); i++ {
		buf = binary.AppendUvarint(buf, uint64(off[i+1]-off[i]))
	}
	prevFirst := int64(0)
	for i := 0; i+1 < len(off); i++ {
		row := adj[off[i]-off[0] : off[i+1]-off[0]]
		if len(row) == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, zigzag(int64(row[0])-prevFirst))
		prevFirst = int64(row[0])
		for j := 1; j < len(row); j++ {
			buf = binary.AppendUvarint(buf, uint64(row[j]-row[j-1]))
		}
	}
	return buf
}

// refDecodeCSRPayload is decodeCSRPayload one varint at a time, with
// the same checks in the same order: the oracle of its word path, down
// to the error text.
func refDecodeCSRPayload(payload []byte, nLocal, edges int) (off, adj []int32, err error) {
	if len(payload) < nLocal+edges {
		return nil, nil, fmt.Errorf("payload of %d bytes too short for %d nodes, %d edges", len(payload), nLocal, edges)
	}
	r := &byteReader{buf: payload}
	off = make([]int32, nLocal+1)
	total := uint64(0)
	for i := 0; i < nLocal; i++ {
		gap, err := r.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("offset gap %d: %w", i, err)
		}
		total += gap
		if total > uint64(edges) {
			return nil, nil, fmt.Errorf("offset gaps exceed declared %d edges at node %d", edges, i)
		}
		off[i+1] = int32(total)
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
			gap, err := r.uvarint()
			if err != nil {
				return nil, nil, fmt.Errorf("row %d neighbor gap %d: %w", i, j, err)
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

// sameDecode fails t unless two decodes of one payload agree: the same
// error text, or the same offsets and adjacency.
func sameDecode(t *testing.T, what string, payload []byte, nLocal, edges int) {
	t.Helper()
	off, adj, err := decodeCSRPayload(payload, nLocal, edges)
	wantOff, wantAdj, wantErr := refDecodeCSRPayload(payload, nLocal, edges)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
		t.Fatalf("%s (%d nodes, %d edges, %x): decoded %v %v (%v), one varint at a time %v %v (%v)",
			what, nLocal, edges, payload, off, adj, err, wantOff, wantAdj, wantErr)
	}
}

// FuzzCSRPayloadRoundTrip holds the varint payload codec's word path —
// eight one-byte offset gaps per 64-bit store and load — to a
// byte-at-a-time encoder and decoder. Each byte of degrees is one
// node's degree, so gaps of 128 and more take the varint path in any
// lane; cut offsets the stored offsets (appendCSRPayload stores gaps
// only), truncates the payload by up to eight bytes, and picks the node
// count under which degrees itself is decoded as a payload.
func FuzzCSRPayloadRoundTrip(f *testing.F) {
	ones := func(n int) []byte { return bytes.Repeat([]byte{1}, n) }
	for lane := range 8 {
		for _, g := range []byte{127, 128} {
			d := ones(24)
			d[lane], d[8+(lane+3)%8] = g, g
			f.Add(d, uint8(lane))
		}
	}
	for n := range 18 {
		d := make([]byte, n)
		for i := range d {
			d[i] = byte(i % 5)
		}
		f.Add(d, uint8(n))
	}
	for _, k := range []int{1, 4, 64} {
		d := make([]byte, 8*k+7)
		for i := range d {
			d[i] = byte(i % 3)
		}
		f.Add(d, uint8(k))
	}
	for cut := range uint8(8) {
		f.Add(make([]byte, 23), cut) // gaps only: a cut ends inside a word
		f.Add(ones(16), cut)
	}
	f.Fuzz(func(t *testing.T, degrees []byte, cut uint8) {
		degrees = degrees[:min(len(degrees), 600)]
		base := 3 * int32(cut)
		off := []int32{base}
		var adj []int32
		for i, d := range degrees {
			v := int32(i*131) % 977
			for j := range int(d) {
				adj = append(adj, v)
				v += int32(1 + j%5)
			}
			off = append(off, base+int32(len(adj)))
		}
		n, edges := len(degrees), len(adj)
		got := appendCSRPayload(nil, off, adj)
		if want := refAppendCSRPayload(nil, off, adj); !bytes.Equal(got, want) {
			t.Fatalf("degrees %v: payload %x, one varint at a time %x", degrees, got, want)
		}
		dOff, dAdj, err := decodeCSRPayload(got, n, edges)
		if err != nil {
			t.Fatalf("degrees %v: %v", degrees, err)
		}
		for i := range dOff {
			if dOff[i] != off[i]-base {
				t.Fatalf("degrees %v: offsets %v, want %v rebased", degrees, dOff, off)
			}
		}
		if !slices.Equal(dAdj, adj) {
			t.Fatalf("degrees %v: adjacency %v, want %v", degrees, dAdj, adj)
		}
		sameDecode(t, "truncated payload", got[:max(0, len(got)-int(cut%9))], n, edges)
		nLocal := min(int(cut), len(degrees))
		sameDecode(t, "raw bytes", degrees, nLocal, len(degrees)-nLocal)
	})
}

// FuzzPairBlocksDecode hardens the run-file/partition pair codec the
// same way.
func FuzzPairBlocksDecode(f *testing.F) {
	var buf []byte
	buf = appendPairBlock(buf, []int32{3, 1, 4}, []int32{1, 5, 9})
	buf = appendPairBlock(buf, []int32{}, []int32{})
	buf = appendPairBlock(buf, []int32{1 << 30}, []int32{0})
	f.Add(buf)
	f.Add(buf[:len(buf)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		from, to, err := decodePairBlocks(data, 0)
		if err != nil {
			return
		}
		if len(from) != len(to) {
			t.Fatalf("decoded %d froms, %d tos", len(from), len(to))
		}
		for i := range from {
			if from[i] < 0 || to[i] < 0 {
				t.Fatalf("pair %d negative after range checks", i)
			}
		}
	})
}

// TestPooledDeflateMatchesFreshWriter pins the pooled flate.Writer to
// a fresh one: 8 goroutines deflate payloads of several sizes and
// shapes, each through the pool several times so writers are reused
// across payloads, and every frame equals a fresh writer's.
func TestPooledDeflateMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var payloads [][]byte
	for _, n := range []int{0, 1, 100, 4 << 10, 70 << 10, 300 << 10} {
		random := make([]byte, n)
		rng.Read(random)
		off, adj := randomCSR(rng, n/64+1, 12, 1<<20)
		payloads = append(payloads, random, bytes.Repeat([]byte("gmark"), n/5), appendCSRPayload(nil, off, adj))
	}
	want := make([][]byte, len(payloads))
	for i, p := range payloads {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(p)
		fw.Close()
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range payloads {
					i := (k + w) % len(payloads)
					got, err := deflateBytes(payloads[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d round %d: payload %d deflated to %d bytes, a fresh writer gives %d",
							w, round, i, len(got), len(want[i]))
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// writePartition emits bib@200 at seed 1 as a partition directory,
// text or binary, and returns the directory and its index.
func writePartition(t *testing.T, binaryMode bool) (string, *PartitionIndex) {
	t.Helper()
	cfg := mustUsecase(t, "bib", 200)
	dir := filepath.Join(t.TempDir(), "parts")
	newSink := NewPartitionedSink
	if binaryMode {
		newSink = NewBinaryPartitionedSink
	}
	sink, err := newSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, Options{Seed: 1}, sink); err != nil {
		t.Fatal(err)
	}
	idx, err := ReadPartitionIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, idx
}

// TestHostilePartitionCountsRejected is the regression test for
// partition indexes whose edge counts no writer records: a negative
// count panicked a loader goroutine (makeslice: cap out of range), and
// a huge one preallocated by the count. Both must be errors, for text
// and binary files alike; a negative count is refused by name, a huge
// one when the file runs out of edges. Type counts that overflow the
// int32 node ids panicked Freeze (makeslice: len out of range).
func TestHostilePartitionCountsRejected(t *testing.T) {
	for _, binaryMode := range []bool{false, true} {
		for name, edit := range map[string]func(idx *PartitionIndex){
			"predicate edges -1":    func(idx *PartitionIndex) { idx.Predicates[0].Edges = -1 },
			"index edges -1":        func(idx *PartitionIndex) { idx.Edges = -1 },
			"predicate edges 1<<40": func(idx *PartitionIndex) { idx.Predicates[0].Edges = int(min(1<<40, int64(math.MaxInt))) }, // MaxInt on 386
			"types past MaxInt32": func(idx *PartitionIndex) {
				// No edges, so no file read rejects an id first.
				idx.Types = []PartitionType{{Name: "a", Count: math.MaxInt32}, {Name: "b", Count: math.MaxInt32}}
				idx.Predicates, idx.Edges = nil, 0
			},
		} {
			t.Run(fmt.Sprintf("binary=%v/%s", binaryMode, name), func(t *testing.T) {
				dir, idx := writePartition(t, binaryMode)
				edit(idx)
				if err := writeJSONFile(filepath.Join(dir, partitionIndexFile), idx); err != nil {
					t.Fatal(err)
				}
				if g, err := LoadPartitioned(dir); err == nil {
					t.Fatalf("loaded %d edges from a hostile index", g.NumEdges())
				} else if strings.Contains(name, "-1") && !strings.Contains(err.Error(), "edges -1 is negative") {
					t.Fatalf("error %q does not name the negative count", err)
				}
			})
		}
	}
}

// TestPartitionFileOutsideDirRejected is the regression test for an
// index whose predicate file named a path outside the partition
// directory: "../<sibling>/<file>" loaded the sibling's edges with a
// nil error. Edge files are plain names, as in a CSR manifest.
func TestPartitionFileOutsideDirRejected(t *testing.T) {
	dir, idx := writePartition(t, false)
	sibling := filepath.Join(filepath.Dir(dir), "sibling")
	if err := os.Mkdir(sibling, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, idx.Predicates[0].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sibling, "e.txt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	idx.Predicates[0].File = "../sibling/e.txt"
	if err := writeJSONFile(filepath.Join(dir, partitionIndexFile), idx); err != nil {
		t.Fatal(err)
	}
	if g, err := LoadPartitioned(dir); err == nil {
		t.Fatalf("loaded %d edges through a file outside the partition directory", g.NumEdges())
	} else if !strings.Contains(err.Error(), "not a plain file name") {
		t.Fatalf("error %q does not name the file rule", err)
	}
}

// TestTruncatedTextPartitionRejected is the regression test for text
// edge files that were never checked against the index's count: cut
// in half, a file loaded part of its edges with a nil error.
func TestTruncatedTextPartitionRejected(t *testing.T) {
	dir, idx := writePartition(t, false)
	victim := filepath.Join(dir, idx.Predicates[0].File)
	orig, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"cut in half":    orig[:bytes.LastIndexByte(orig[:len(orig)/2], '\n')+1],
		"one extra line": append(slices.Clone(orig), "0 0\n"...),
	} {
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := LoadPartitioned(dir); err == nil {
			t.Errorf("%s: loaded %d of %d edges with a nil error", name, g.NumEdges(), idx.Edges)
		} else if !strings.Contains(err.Error(), "the index says") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}
