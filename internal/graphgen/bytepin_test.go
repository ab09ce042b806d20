package graphgen

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/prng"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/emitted.crc from the current generator")

// pinNodes is the use-case size of the byte pin: large enough that
// every constraint draws hubs and ShardEdges 7 splits it into dozens of
// shards, small enough that the whole pin runs in well under a second.
const pinNodes = 2000

// pinRows is the ordered (name, CRC32) table of the byte pin.
type pinRows struct{ b bytes.Buffer }

func (p *pinRows) add(name string, crc uint32) { fmt.Fprintf(&p.b, "%s %08x\n", name, crc) }

// sparsePins are the pin's instances whose long sides are long enough
// for the sparse pairing path, which the use cases at pinNodes never
// reach: a hub side of 5·10⁷ occurrences over 1 000 nodes, and a
// Zipfian in-degree against uniform out-degrees of 10–30, where the
// replay meets about 2 400 positions drawn more than once.
func sparsePins() []struct {
	name string
	cfg  *schema.GraphConfig
} {
	return []struct {
		name string
		cfg  *schema.GraphConfig
	}{
		{"hub", twoTypeConfig(2000, dist.NewUniform(1, 1), dist.NewGaussian(50_000, 1))},
		{"zipf", twoTypeConfig(60_000, dist.NewZipfian(2.5), dist.NewUniform(10, 30))},
	}
}

// TestEmittedBytesPinned pins every byte the graph half emits: the
// edge list of each built-in use case at seeds {1, 7} x ShardEdges
// {0, 7}, each predicate's EmitPredicate output, one varint CSR spill
// image, 10 000 draws of each distribution kind from the generators'
// RNG, and the edge lists of sparsePins. Any change to the RNG stream, a sampler, the
// occurrence vectors or the pairing moves a named row. Re-record with
// -update-pins.
func TestEmittedBytesPinned(t *testing.T) {
	var rows pinRows
	for _, uc := range usecases.Names {
		cfg, err := usecases.ByName(uc, pinNodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7} {
			for _, shardEdges := range []int{0, 7} {
				h := crc32.NewIEEE()
				if _, err := stream(cfg, Options{Seed: seed, ShardEdges: shardEdges, Parallelism: 2}, h); err != nil {
					t.Fatal(err)
				}
				rows.add(fmt.Sprintf("stream.%s.seed%d.shard%d", uc, seed, shardEdges), h.Sum32())
			}
		}
		for _, pr := range cfg.Schema.Predicates {
			h := crc32.NewIEEE()
			ws, err := NewWriterSink(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := EmitPredicate(cfg, Options{Seed: 7, Parallelism: 1}, pr.Name, ws); err != nil {
				t.Fatal(err)
			}
			rows.add(fmt.Sprintf("predicate.%s.%s", uc, pr.Name), h.Sum32())
		}
	}

	cfg, err := usecases.ByName("bib", pinNodes)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := NewCSRSpillSinkWith(dir, cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, Options{Seed: 7, ShardEdges: 64, Parallelism: 2}, sink); err != nil {
		t.Fatal(err)
	}
	rows.add("spill.bib.varint", crc32.ChecksumIEEE(dirBytes(t, dir)))

	for _, d := range []dist.Distribution{
		dist.NewUniform(0, 9),
		dist.NewUniform(3, 10), // a power-of-two span
		dist.NewUniform(0, 0),
		dist.NewUniform(1, 1<<31-1), // span 2^31-1, the largest Int31n takes
		dist.NewUniform(0, 1<<31-1), // span 2^31, math/rand's Int63n path
		dist.NewGaussian(3, 1),
		dist.NewGaussian(0.5, 2),
		dist.NewZipfian(2.5),
		{Kind: dist.Zipfian, S: 1.1, N: 50},
		{Kind: dist.Zipfian, S: 1.3, N: 1},
	} {
		s, err := d.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		rng := prng.New(29)
		var buf []byte
		for range 10_000 {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Sample(rng)))
		}
		rows.add("sample."+strings.ReplaceAll(d.String(), " ", ""), crc32.ChecksumIEEE(buf))
	}

	for _, c := range sparsePins() {
		h := crc32.NewIEEE()
		if _, err := stream(c.cfg, Options{Seed: 7, Parallelism: 2}, h); err != nil {
			t.Fatal(err)
		}
		rows.add("pairing."+c.name, h.Sum32())
	}

	golden := filepath.Join("testdata", "emitted.crc")
	if *updatePins {
		if err := os.WriteFile(golden, rows.b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(rows.b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("pin has %d rows, %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("emitted bytes moved: got %q, pinned %q", gotLines[i], wantLines[i])
		}
	}
}
