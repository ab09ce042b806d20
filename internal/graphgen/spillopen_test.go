package graphgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gmark/internal/graph"
	"gmark/internal/usecases"
)

// hostileManifests are edits of a valid spill manifest that no writer
// produces, each with the text its rejection must contain — the field
// it names. OpenCSRSpill must refuse every one of them; the table also
// seeds FuzzOpenCSRSpill.
var hostileManifests = []struct {
	name  string
	field string
	edit  func(m *CSRManifest)
}{
	{"nodes negative", "manifest: nodes", func(m *CSRManifest) { m.Nodes = -5 }},
	{"shard_nodes zero", "shard_nodes", func(m *CSRManifest) { m.ShardNodes = 0 }},
	{"shard_nodes negative", "shard_nodes", func(m *CSRManifest) { m.ShardNodes = -3 }},
	{"edges negative", "edges", func(m *CSRManifest) { m.Edges = -1 }},
	{"edges disagree with shards", "edges", func(m *CSRManifest) { m.Edges++ }},
	{"shifted lo", "has lo", func(m *CSRManifest) { m.Predicates[0].Fwd[1].Lo++ }},
	{"bwd missing its last shard", "bwd", func(m *CSRManifest) {
		bwd := m.Predicates[0].Bwd
		m.Predicates[0].Bwd = bwd[:len(bwd)-1]
	}},
	{"shard edges negative", "edges", func(m *CSRManifest) { m.Predicates[0].Fwd[0].Edges = -1 }},
	{"type counts differ from nodes", "types", func(m *CSRManifest) { m.Types[0].Count++ }},
	{"type count negative", "types", func(m *CSRManifest) { m.Types[0].Count = -m.Types[0].Count }},
	{"file outside the directory", `file "../`, func(m *CSRManifest) {
		m.Predicates[0].Fwd[0].File = "../" + m.Predicates[0].Fwd[0].File
	}},
	{"domain file missing", "domain file", func(m *CSRManifest) { m.Predicates[0].BwdDomain = "" }},
	{"domain file in a subdirectory", "domain file", func(m *CSRManifest) { m.Predicates[0].FwdDomain = "x/dom.bin" }},
	{"v1", "format_version", func(m *CSRManifest) { m.FormatVersion = 1 }},
	{"version absent", "format_version", func(m *CSRManifest) { m.FormatVersion = 0 }},
	{"version from the future", "format_version", func(m *CSRManifest) { m.FormatVersion = csrFormatVersion + 1 }},
}

func init() {
	if strconv.IntSize == 64 { // a 32-bit int cannot hold such a count
		huge := int64(1) << 40
		hostileManifests = append(hostileManifests, struct {
			name  string
			field string
			edit  func(m *CSRManifest)
		}{"nodes huge", "manifest: nodes", func(m *CSRManifest) { m.Nodes = int(huge) }})
	}
}

// smallSpill writes a bib instance of 60 nodes as a varint spill of
// 16-node shards (four ranges per direction) and returns the directory
// and its manifest bytes.
func smallSpill(tb testing.TB, dir string) []byte {
	tb.Helper()
	cfg, err := usecases.ByName("bib", 60)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := Generate(cfg, Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := WriteCSRSpillFromGraphWith(dir, g, 16, SpillCompressVarint); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, csrManifestFile))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// editManifest applies edit to a decoded copy of a manifest and
// returns the re-encoded bytes.
func editManifest(tb testing.TB, valid []byte, edit func(m *CSRManifest)) []byte {
	tb.Helper()
	var m CSRManifest
	if err := json.Unmarshal(valid, &m); err != nil {
		tb.Fatal(err)
	}
	edit(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestOpenCSRSpillRejectsHostileManifests: every manifest no writer
// could have produced fails at open, with an error naming the field,
// and the unedited manifest still opens.
func TestOpenCSRSpillRejectsHostileManifests(t *testing.T) {
	dir := t.TempDir()
	valid := smallSpill(t, dir)
	path := filepath.Join(dir, csrManifestFile)
	for _, c := range hostileManifests {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, editManifest(t, valid, c.edit), 0o644); err != nil {
				t.Fatal(err)
			}
			sp, err := OpenCSRSpill(dir)
			if err == nil {
				t.Fatalf("opened: %d nodes, shard_nodes %d", sp.Manifest.Nodes, sp.Manifest.ShardNodes)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %q", err, c.field)
			}
		})
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSRSpill(dir); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// TestEmptySpillOpens: an instance with no nodes is one range per
// (predicate, direction) — the grid the writers emit for it — and
// opens.
func TestEmptySpillOpens(t *testing.T) {
	g, err := graph.New([]string{"t"}, []int{0}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	dir := t.TempDir()
	if err := WriteCSRSpillFromGraphWith(dir, g, 8, SpillCompressVarint); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenCSRSpill(dir)
	if err != nil {
		t.Fatalf("empty spill rejected: %v", err)
	}
	for _, p := range sp.Manifest.Predicates {
		if len(p.Fwd) != 1 || len(p.Bwd) != 1 {
			t.Fatalf("%s: %d fwd and %d bwd shards, want 1 and 1", p.Name, len(p.Fwd), len(p.Bwd))
		}
		if _, _, _, err := sp.LoadShardSized(p.Fwd[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sp.LoadDomain(1, true); err != nil {
		t.Fatal(err)
	}
}

// TestShardDisagreeingWithManifestRejected: a manifest that passes the
// open checks but swaps two shards' edge counts fails the load of
// either shard rather than serving it under the wrong entry.
func TestShardDisagreeingWithManifestRejected(t *testing.T) {
	dir := t.TempDir()
	valid := smallSpill(t, dir)
	var m CSRManifest
	if err := json.Unmarshal(valid, &m); err != nil {
		t.Fatal(err)
	}
	var a, b *CSRShard
	for i := range m.Predicates {
		for j := range m.Predicates[i].Fwd {
			sh := &m.Predicates[i].Fwd[j]
			switch {
			case a == nil:
				a = sh
			case b == nil && sh.Edges != a.Edges:
				b = sh
			}
		}
	}
	if b == nil {
		t.Fatal("fixture has no two forward shards with different edge counts")
	}
	a.Edges, b.Edges = b.Edges, a.Edges
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, csrManifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenCSRSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []CSRShard{*a, *b} {
		if _, _, _, err := sp.LoadShardSized(sh); err == nil || !strings.Contains(err.Error(), "manifest says") {
			t.Errorf("%s with edges %d: %v", sh.File, sh.Edges, err)
		}
	}
}

// FuzzOpenCSRSpill hardens the manifest reader: arbitrary
// csr-index.json bytes over a fixed small spill must either fail to
// open or open a spill whose every named shard and bitmap loads or
// fails with an error — never a panic, never an allocation sized by a
// hostile count.
func FuzzOpenCSRSpill(f *testing.F) {
	dir := f.TempDir()
	valid := smallSpill(f, dir)
	f.Add(valid)
	for _, c := range hostileManifests {
		f.Add(editManifest(f, valid, c.edit))
	}
	path := filepath.Join(dir, csrManifestFile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := OpenCSRSpill(dir)
		if err != nil {
			return
		}
		for p, pr := range sp.Manifest.Predicates {
			for _, shards := range [][]CSRShard{pr.Fwd, pr.Bwd} {
				for _, sh := range shards {
					off, adj, _, err := sp.LoadShardSized(sh)
					if err == nil && (len(off) != sh.Hi-sh.Lo+1 || len(adj) != sh.Edges) {
						t.Fatalf("%s loaded %d offsets and %d edges for entry %+v", sh.File, len(off), len(adj), sh)
					}
				}
			}
			for _, inv := range []bool{false, true} {
				if dom, err := sp.LoadDomain(p, inv); err == nil && len(dom.Words()) != (sp.Manifest.Nodes+63)/64 {
					t.Fatalf("bitmap of %d words for a %d-node spill", len(dom.Words()), sp.Manifest.Nodes)
				}
			}
		}
	})
}
