package graphgen

import (
	"math/rand"
	"slices"
	"testing"

	"gmark/internal/usecases"
)

// TestRawShardRoundTrip: the mappable raw encoder and the copying
// decoder are inverse, and the image obeys the layout contract the
// in-place reader relies on — page-padded header, 8-byte-aligned
// adjacency, exact file size.
func TestRawShardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		nLocal := rng.Intn(40)
		off, adj := randomCSR(rng, nLocal, 12, 1<<20)
		img := appendFixedShard(nil, off, adj, true)

		lay, isRaw, err := ParseRawShardImage(img)
		if err != nil || !isRaw {
			t.Fatalf("trial %d: ParseRawShardImage = %+v, %v, %v", trial, lay, isRaw, err)
		}
		if lay.NLocal != nLocal || lay.Edges != len(adj) {
			t.Fatalf("trial %d: layout %+v, want nLocal=%d edges=%d", trial, lay, nLocal, len(adj))
		}
		if lay.OffStart != rawShardHeaderLen {
			t.Fatalf("trial %d: offsets at %d, want %d", trial, lay.OffStart, rawShardHeaderLen)
		}
		if lay.AdjStart%8 != 0 {
			t.Fatalf("trial %d: adjacency at %d not 8-byte aligned", trial, lay.AdjStart)
		}
		if len(img) != lay.AdjStart+4*lay.Edges {
			t.Fatalf("trial %d: image %d bytes, layout implies %d", trial, len(img), lay.AdjStart+4*lay.Edges)
		}

		gotOff, gotAdj, err := decodeCSRShard(img)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantOff := make([]int32, len(off))
		for i, o := range off {
			wantOff[i] = o - off[0]
		}
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, adj) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

// TestRawShardRebasing: like every shard codec, the raw encoder takes
// unrebased offsets and readers see rebased ones.
func TestRawShardRebasing(t *testing.T) {
	off := []int32{100, 102, 102, 105}
	adj := []int32{7, 9, 1, 4, 8}
	img := appendFixedShard(nil, off, append(make([]int32, 100), adj...), true)
	gotOff, gotAdj, err := decodeCSRShard(img)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotOff, []int32{0, 2, 2, 5}) || !slices.Equal(gotAdj, adj) {
		t.Fatalf("got %v %v", gotOff, gotAdj)
	}
}

// TestRawShardRejectsCorrupt: malformed raw images must error out of
// both the layout parser and the copying decoder, never panic or
// misdecode.
func TestRawShardRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	off, adj := randomCSR(rng, 20, 6, 1000)
	img := appendFixedShard(nil, off, adj, true)

	cases := map[string][]byte{
		"truncated header":    img[:12],
		"truncated offsets":   img[:rawShardHeaderLen+2],
		"truncated adjacency": img[:len(img)-4],
		"trailing garbage":    append(slices.Clone(img), 0, 0, 0, 0),
	}
	for name, data := range cases {
		if _, _, err := decodeCSRShard(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Non-monotone offsets survive the layout parse (it checks only
	// the frame) but must fail the offset check and the decoder.
	bad := slices.Clone(img)
	// off[1] at headerLen+4: make it negative.
	copy(bad[rawShardHeaderLen+4:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := decodeCSRShard(bad); err == nil {
		t.Error("negative offset decoded without error")
	}

	// A header length that is not 8-byte aligned must be rejected.
	misaligned := slices.Clone(img)
	misaligned[16] = 0x1c // headerLen 28: >= min, but 28 % 8 != 0
	if _, _, err := ParseRawShardImage(misaligned); err == nil {
		t.Error("misaligned header length accepted")
	}

	// Non-raw magics are not an error, just not handled.
	if _, isRaw, err := ParseRawShardImage([]byte(csrMagic + "xxxx")); isRaw || err != nil {
		t.Errorf("v1 magic: isRaw=%v err=%v", isRaw, err)
	}
}

// TestRawSpillEndToEnd: a spill written with -spill-compress=raw
// declares format_version 3 with encoding "raw", and every shard file
// loads back through the generic shard reader.
func TestRawSpillEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg, err := usecases.ByName("bib", 300)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(cfg, Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSRSpillFromGraphWith(dir, g, 50, SpillCompressRaw); err != nil {
		t.Fatal(err)
	}
	spill, err := OpenCSRSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	if spill.Manifest.FormatVersion != 3 || spill.Manifest.Encoding != "raw" {
		t.Fatalf("manifest: version %d encoding %q", spill.Manifest.FormatVersion, spill.Manifest.Encoding)
	}
	for p, entry := range spill.Manifest.Predicates {
		for _, shards := range [][]CSRShard{entry.Fwd, entry.Bwd} {
			for _, sh := range shards {
				off, adj, _, err := spill.LoadShardSized(sh)
				if err != nil {
					t.Fatalf("pred %d %s: %v", p, sh.File, err)
				}
				if len(off) != sh.Hi-sh.Lo+1 {
					t.Fatalf("%s: %d offsets for range [%d,%d]", sh.File, len(off), sh.Lo, sh.Hi)
				}
				if int(off[len(off)-1]) != len(adj) {
					t.Fatalf("%s: offsets end at %d, adjacency has %d", sh.File, off[len(off)-1], len(adj))
				}
			}
		}
	}
}
