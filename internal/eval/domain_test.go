package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gmark/internal/bitset"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// evalFixtureSeed is the generation seed shared by this package's
// spill fixtures.
const evalFixtureSeed = 7

// buildSpill generates a use-case instance and spills it at the given
// shard width in the default (v3 varint) encoding, returning the
// frozen graph and the spill directory.
func buildSpill(t *testing.T, uc string, n, shardNodes int) (*graph.Graph, string) {
	t.Helper()
	return testutil.Spill(t, uc, n, shardNodes, evalFixtureSeed)
}

// buildSpillComp is buildSpill with an explicit shard encoding, for
// the cross-version compatibility fixtures.
func buildSpillComp(t *testing.T, uc string, n, shardNodes int, comp graphgen.SpillCompression) (*graph.Graph, string) {
	t.Helper()
	return testutil.SpillComp(t, uc, n, shardNodes, evalFixtureSeed, comp)
}

// stripDomains rewrites a spill directory into the retired
// pre-format_version-2 layout: domain files deleted, manifest fields
// cleared — the fixture the legacy-rejection test runs against.
func stripDomains(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "csr-index.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m graphgen.CSRManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.FormatVersion = 0
	for i := range m.Predicates {
		for _, f := range []string{m.Predicates[i].FwdDomain, m.Predicates[i].BwdDomain} {
			if f == "" {
				t.Fatalf("predicate %d: spill was written without domain files", i)
			}
			if err := os.Remove(filepath.Join(dir, f)); err != nil {
				t.Fatal(err)
			}
		}
		m.Predicates[i].FwdDomain = ""
		m.Predicates[i].BwdDomain = ""
	}
	out, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// starQuery is the recursive battery: (p)* as a binary chain.
func starQuery(pred string) *query.Query {
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("(" + pred + ")*")}},
	}}}
}

// TestStarDomainOverSpillZeroSweeps: a recursive query over a spill
// builds its epsilon mask from the persisted active-domain bitmaps
// alone — zero shard loads — and the mask equals the in-memory graph's.
func TestStarDomainOverSpillZeroSweeps(t *testing.T) {
	g, dir := buildSpill(t, "bib", 300, 7)
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0 := src.Manifest().Predicates[0].Name
	pid := src.PredIndex(p0)
	syms := []BoundarySym{{Pred: pid, Inv: false}}

	mask := StarDomain(src, syms, syms)
	st := src.CacheStats()
	if st.Loads != 0 {
		t.Fatalf("StarDomain over bitmap spill did %d shard loads; want 0", st.Loads)
	}
	want := StarDomain(g, syms, syms)
	if mask.Count() != want.Count() {
		t.Fatalf("spill mask has %d nodes, in-memory mask %d", mask.Count(), want.Count())
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if mask.Has(v) != want.Has(v) {
			t.Fatalf("mask disagrees at node %d: spill=%v in-memory=%v", v, mask.Has(v), want.Has(v))
		}
	}

	// The full recursive count still loads only the shards the closure
	// walk itself reaches, never a whole-instance sweep for the mask.
	wantCount, err := CountWith(g, starQuery(p0), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountWith(src, starQuery(p0), Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCount {
		t.Fatalf("(%s)* over spill = %d, in-memory = %d", p0, got, wantCount)
	}
}

// TestActiveDomainAgreesAcrossSources: every tier answers ActiveDomain
// with the naive set {v : len(Neighbors(v, p, inv)) > 0} — the
// in-memory graph from its CSR offsets, a varint and a raw+mmap spill
// from their persisted bitmaps, and a spill's worker view by
// forwarding — for every built-in use case, predicate and direction.
func TestActiveDomainAgreesAcrossSources(t *testing.T) {
	for _, uc := range usecases.Names {
		g, varintDir := buildSpill(t, uc, 300, 64)
		_, rawDir := buildSpillComp(t, uc, 300, 64, graphgen.SpillCompressNone)
		varint, err := OpenSpillSource(varintDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := OpenSpillSourceWith(rawDir, SpillSourceOptions{Mmap: true})
		if err != nil {
			t.Fatal(err)
		}
		view, release := WorkerSource(varint)
		sources := []struct {
			name string
			src  Source
		}{{"graph", g}, {"varint spill", varint}, {"raw+mmap spill", raw}, {"worker view", view}}
		for p := range graph.PredID(g.NumPredicates()) {
			for _, inv := range []bool{false, true} {
				want := bitset.New(g.NumNodes())
				for v := range int32(g.NumNodes()) {
					if len(g.Neighbors(v, p, inv)) > 0 {
						want.Add(v)
					}
				}
				for _, s := range sources {
					dom, err := s.src.ActiveDomain(s.src.PredIndex(g.PredName(p)), inv)
					if err != nil {
						t.Fatalf("%s %s: %v", uc, s.name, err)
					}
					if !slices.Equal(dom.Words(), want.Words()) {
						t.Errorf("%s %s: ActiveDomain(%s, inverse=%v) has %d nodes, oracle %d",
							uc, s.name, g.PredName(p), inv, dom.Count(), want.Count())
					}
				}
			}
		}
		release()
	}
}

// TestInMemoryStartPruningProbesNothing: over an in-memory graph, the
// epsilon mask of (b)* and the start sources of a chain beginning with
// b are read off active domains, so when b has no edges neither makes
// a single Neighbors call — no per-node probe of b's adjacency.
func TestInMemoryStartPruningProbesNothing(t *testing.T) {
	c := &countingSource{Graph: handGraph(t, 300, 2, [3]int32{1, 0, 2}, [3]int32{2, 0, 299})}
	if _, err := compileExpr(c, regpath.MustParse("(b)*")); err != nil {
		t.Fatal(err)
	}
	if c.calls != 0 {
		t.Errorf("compiling (b)* made %d Neighbors calls; want 0", c.calls)
	}
	for _, workers := range []int{1, 2} {
		c.calls = 0
		got, err := CountWith(c, union(chainRule("se", "b", "a")), Budget{}, EvalOptions{Workers: workers})
		if err != nil || got != 0 {
			t.Fatalf("workers=%d: count %d (%v), want 0", workers, got, err)
		}
		if c.calls != 0 {
			t.Errorf("workers=%d: counting b/a made %d Neighbors calls; want 0", workers, c.calls)
		}
	}
}

// TestLegacySpillStillEvaluates pins the end of backward
// compatibility: a spill written without active-domain bitmaps (the
// pre-format_version-2 layout, which no writer produces any more) is
// refused at open with an error that says to spill it again, instead
// of evaluating through a shard-sweep fallback.
func TestLegacySpillStillEvaluates(t *testing.T) {
	// Raw shards + stripped manifest = a byte-faithful v1 spill.
	_, dir := buildSpillComp(t, "bib", 300, 7, graphgen.SpillCompressNone)
	stripDomains(t, dir)

	src, err := OpenSpillSource(dir, 0)
	if err == nil {
		t.Fatalf("legacy spill opened (%d nodes); want a rejection", src.NumNodes())
	}
	for _, want := range []string{"format_version", "predates active-domain bitmaps", "spill the instance again"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("legacy rejection %q does not say %q", err, want)
		}
	}
}

// TestFutureManifestRejected: a manifest claiming a newer
// format_version than this reader must be refused, not misread.
func TestFutureManifestRejected(t *testing.T) {
	_, dir := buildSpill(t, "bib", 100, 0)
	path := filepath.Join(dir, "csr-index.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m graphgen.CSRManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.FormatVersion = 99
	out, _ := json.Marshal(&m)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graphgen.OpenCSRSpill(dir); err == nil {
		t.Fatal("future format_version opened without error")
	} else if !strings.Contains(err.Error(), "format_version") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}

// TestScanSkipsInactiveRanges: with persisted bitmaps the streaming
// scan prunes by active domain, so shards whose node range holds no
// candidate source are never read. Node ids are laid out by type, so a
// predicate whose sources are one type touches only that type's
// shards.
func TestScanSkipsInactiveRanges(t *testing.T) {
	g, dir := buildSpill(t, "bib", 400, 7)
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0 := src.Manifest().Predicates[0].Name
	pid := g.PredIndex(p0)

	// Expected loads: the (p0, fwd) shards whose range contains at
	// least one node with an outgoing p0 edge — exactly what a chain
	// walk from every active source touches.
	shardNodes := src.Manifest().ShardNodes
	active := map[int]bool{}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.OutDegree(v, pid) > 0 {
			active[int(v)/shardNodes] = true
		}
	}
	total := len(src.Manifest().Predicates[0].Fwd)
	if len(active) == 0 || len(active) == total {
		t.Fatalf("degenerate layout: %d of %d shards active; test needs inactive ranges", len(active), total)
	}

	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(p0)}},
	}}}
	want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count %d != in-memory %d", got, want)
	}
	if st := src.CacheStats(); st.Loads != int64(len(active)) {
		t.Errorf("scan loaded %d shards, want exactly the %d active ones (of %d total)",
			st.Loads, len(active), total)
	}
}

// TestReversedStarKeepsEpsilonMask is the regression test for the
// reversed-plan epsilon mask: a head (end, start) star rule must count
// exactly what its (start, end) twin counts — zero-length matches stay
// restricted to the star's active domain after the chain is reversed
// (compiledExpr.reverse used to drop epsMask, admitting every isolated
// node as a spurious (v, v) pair).
func TestReversedStarKeepsEpsilonMask(t *testing.T) {
	g, err := graph.New([]string{"t"}, []int{3}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 0, 1) // node 2 stays isolated: outside (a)*'s domain
	g.Freeze()
	star := regpath.MustParse("(a)")
	star.Star = true
	fwd := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: star}},
	}}}
	rev := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{1, 0},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: star}},
	}}}
	want, err := CountWith(g, fwd, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want != 3 { // (0,0), (1,1), (0,1)
		t.Fatalf("forward (a)* = %d, want 3", want)
	}
	got, err := CountWith(g, rev, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reversed-head (a)* = %d, forward = %d", got, want)
	}
}

// TestCorruptDomainFileFallsBack: an unreadable active-domain bitmap
// no longer falls back to a shard sweep: it fails the evaluation, and
// the error is sticky like a shard-load failure, so a later count over
// the same source fails too.
func TestCorruptDomainFileFallsBack(t *testing.T) {
	_, dir := buildSpill(t, "bib", 300, 7)
	// Corrupt every domain file, not just the first predicate's.
	rewriteDomainFiles(t, dir, []byte("junk"))
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0 := src.Manifest().Predicates[0].Name
	if n, err := CountWith(src, starQuery(p0), Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Fatalf("count over corrupt-bitmap spill = %d with a nil error", n)
	} else if !strings.Contains(err.Error(), "active-domain bitmap") {
		t.Fatalf("unhelpful bitmap error: %v", err)
	}
	if src.Err() == nil {
		t.Fatal("bitmap failure not recorded as the sticky error")
	}
	if st := src.CacheStats(); st.Loads != 0 {
		t.Fatalf("bitmap failure swept %d shards", st.Loads)
	}
	if _, err := CountWith(src, chainQuery(t, p0), Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Fatal("a later count over the failed source returned a nil error")
	}
}

// TestShortDomainFileRejected is the regression test for bitmaps that
// hold fewer words than the node count needs: their header agreed with
// their length, so they loaded as a smaller domain and pruned real
// sources out of every count (authors 84 instead of 252 on this
// fixture) with a nil error. Each count must now fail instead.
func TestShortDomainFileRejected(t *testing.T) {
	g, dir := buildSpill(t, "bib", 300, 7)
	oneWord := []byte("GMKDOM1\n\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff")
	rewriteDomainFiles(t, dir, oneWord)
	for _, expr := range []string{"authors", "(authors)*", "authors-.authors"} {
		q := chainQuery(t, expr)
		want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenSpillSource(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1})
		if err == nil {
			t.Errorf("count(%s) over one-word bitmaps = %d (in-memory %d) with a nil error", expr, got, want)
		} else if !strings.Contains(err.Error(), "words") {
			t.Errorf("count(%s): error %q does not name the word count", expr, err)
		}
	}
}

// rewriteDomainFiles overwrites every active-domain bitmap file of a
// spill directory with data.
func rewriteDomainFiles(t *testing.T, dir string, data []byte) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "dom-*.bin"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no domain files found (%v)", err)
	}
	for _, m := range matches {
		if err := os.WriteFile(m, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
