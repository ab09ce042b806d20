package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// spillTestQueries builds a query battery over a schema's first
// predicates covering every streaming projection (pair, source,
// target, boolean), recursion, inverses, and a star-shaped rule that
// exercises the join fallback over the source.
func spillTestQueries(preds []string) []*query.Query {
	p0 := preds[0]
	p1 := preds[len(preds)-1]
	bin := func(exprs ...string) *query.Query {
		var body []query.Conjunct
		for i, e := range exprs {
			body = append(body, query.Conjunct{
				Src: query.Var(i), Dst: query.Var(i + 1), Expr: regpath.MustParse(e),
			})
		}
		return &query.Query{Rules: []query.Rule{{
			Head: []query.Var{0, query.Var(len(exprs))},
			Body: body,
		}}}
	}
	unary := func(head query.Var, expr string) *query.Query {
		return &query.Query{Rules: []query.Rule{{
			Head: []query.Var{head},
			Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(expr)}},
		}}}
	}
	qs := []*query.Query{
		bin(p0),
		bin(p0 + "-"),
		bin("(" + p0 + "+" + p1 + "-)"),
		bin(p0, p1+"-"),
		bin("(" + p0 + ")*"),
		unary(0, p0),
		unary(1, p0+"."+p0+"-"),
		// Mixed-projection unary union (the PR's pinned bug class).
		{Rules: []query.Rule{
			{Head: []query.Var{0}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(p0)}}},
			{Head: []query.Var{1}, Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(p1)}}},
		}},
		// Boolean.
		{Rules: []query.Rule{
			{Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(p0)}}},
		}},
		// Star shape: join fallback.
		{Rules: []query.Rule{{
			Head: []query.Var{1, 2},
			Body: []query.Conjunct{
				{Src: 0, Dst: 1, Expr: regpath.MustParse(p0)},
				{Src: 0, Dst: 2, Expr: regpath.MustParse(p0)},
			},
		}}},
	}
	return qs
}

// TestSpillSourceCountMatchesInMemory is the round-trip property of
// the out-of-core loop: CSRSpillSink (incremental writer) ->
// OpenSpillSource -> CountWith must equal the in-memory count for every
// built-in use case at shard widths 1, 7 and the default, under a
// cache budget small enough to force evictions mid-query. Queries run
// concurrently over one shared SpillSource so -race exercises the
// shard-cache locking.
func TestSpillSourceCountMatchesInMemory(t *testing.T) {
	for _, name := range usecases.Names {
		for _, shardNodes := range []int{1, 7, 0} {
			n := 400
			if shardNodes == 1 {
				n = 150 // width 1 writes two files per (node, predicate)
			}
			cfg := testutil.Config(t, name, n)
			opt := graphgen.Options{Seed: 7}
			g, err := graphgen.Generate(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "csr")
			sink, err := graphgen.NewCSRSpillSinkWith(dir, cfg, shardNodes, graphgen.SpillCompressVarint)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := graphgen.Emit(cfg, opt, sink); err != nil {
				t.Fatal(err)
			}
			// 4 KiB: tiny on purpose. Persisted active-domain bitmaps
			// mean StarDomain and the scan's start-pruning load no
			// shards at all, so the budget must sit below the walk's
			// own working set for evictions to still be exercised.
			src, err := OpenSpillSource(dir, 1<<12)
			if err != nil {
				t.Fatal(err)
			}
			if src.NumNodes() != g.NumNodes() || src.NumEdges() != g.NumEdges() {
				t.Fatalf("%s width=%d: spill reports %d/%d, graph %d/%d",
					name, shardNodes, src.NumNodes(), src.NumEdges(), g.NumNodes(), g.NumEdges())
			}

			preds := make([]string, 0, 2)
			for _, p := range cfg.Schema.Predicates {
				preds = append(preds, p.Name)
			}
			var wg sync.WaitGroup
			for qi, q := range spillTestQueries(preds) {
				wg.Add(1)
				go func(qi int, q *query.Query) {
					defer wg.Done()
					want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
					if err != nil {
						t.Errorf("%s width=%d q%d in-memory: %v", name, shardNodes, qi, err)
						return
					}
					got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1})
					if err != nil {
						t.Errorf("%s width=%d q%d spill: %v", name, shardNodes, qi, err)
						return
					}
					if got != want {
						t.Errorf("%s width=%d q%d: spill=%d in-memory=%d for\n%s",
							name, shardNodes, qi, got, want, q)
					}
				}(qi, q)
			}
			wg.Wait()
			stats := src.CacheStats()
			if stats.Loads == 0 {
				t.Fatalf("%s width=%d: no shards loaded", name, shardNodes)
			}
			if shardNodes == 7 && stats.Evictions == 0 {
				t.Errorf("%s width=7: tiny cache budget never evicted (used=%d)", name, stats.BytesUsed)
			}
			if stats.BytesUsed > 1<<12 && stats.Evictions == 0 {
				t.Errorf("%s width=%d: cache exceeds budget without evicting: %d bytes",
					name, shardNodes, stats.BytesUsed)
			}
		}
	}
}

// TestSpillSourceUnknownPredicate: a query naming a predicate the
// spill does not carry must fail cleanly, like the in-memory path.
func TestSpillSourceUnknownPredicate(t *testing.T) {
	cfg := testutil.Config(t, "bib", 100)
	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := graphgen.NewCSRSpillSinkWith(dir, cfg, 0, graphgen.SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphgen.Emit(cfg, graphgen.Options{Seed: 1}, sink); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse("nosuchpred")}},
	}}}
	if _, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Fatal("unknown predicate over spill should fail")
	}
}

// TestSpillSourceMissingShard: deleting a shard file out from under an
// opened source must surface as an error from CountWith, never a
// silent short count.
func TestSpillSourceMissingShard(t *testing.T) {
	cfg := testutil.Config(t, "bib", 200)
	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := graphgen.NewCSRSpillSinkWith(dir, cfg, 50, graphgen.SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphgen.Emit(cfg, graphgen.Options{Seed: 1}, sink); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove every forward shard of the first predicate.
	removed := 0
	for _, sh := range src.spill.Manifest.Predicates[0].Fwd {
		if err := os.Remove(filepath.Join(dir, sh.File)); err == nil {
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no shard files removed")
	}
	pname := cfg.Schema.Predicates[0].Name
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(pname)}},
	}}}
	if _, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Fatal("missing shard file should fail the evaluation")
	}
	if src.Err() == nil {
		t.Fatal("sticky load error not recorded")
	}
}

// TestSpillSourceTruncatedManifest: a manifest whose shard list does
// not cover the node range (structural corruption rather than a load
// failure) must also trip the sticky error — a broken spill must never
// read as a sparse one.
func TestSpillSourceTruncatedManifest(t *testing.T) {
	cfg := testutil.Config(t, "bib", 200)
	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := graphgen.NewCSRSpillSinkWith(dir, cfg, 50, graphgen.SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphgen.Emit(cfg, graphgen.Options{Seed: 1}, sink); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fwd := src.spill.Manifest.Predicates[0].Fwd
	if len(fwd) < 2 {
		t.Fatalf("want multiple shards, got %d", len(fwd))
	}
	src.spill.Manifest.Predicates[0].Fwd = fwd[:1] // drop coverage
	pname := cfg.Schema.Predicates[0].Name
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(pname)}},
	}}}
	if _, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1}); err == nil {
		t.Fatal("truncated manifest returned a count instead of an error")
	}
}

// TestSpillSourceNoPredicatesOneRange is the regression test for a
// manifest with no predicates: it passes validation with any grid, and
// the source built one NodeRange per shard_nodes-wide span, 16 777 216
// of them for nodes 1<<24 and shard_nodes 1. With no shard grid there
// is one range over all nodes.
func TestSpillSourceNoPredicatesOneRange(t *testing.T) {
	const nodes = 1 << 20
	dir := t.TempDir()
	manifest := fmt.Sprintf(`{"format_version": 3, "nodes": %d, "shard_nodes": 1, "edges": 0,
		"types": [{"name": "t", "count": %d}], "predicates": []}`, nodes, nodes)
	if err := os.WriteFile(filepath.Join(dir, "csr-index.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSpillSourceWith(dir, SpillSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := src.NodeRanges(); len(got) != 1 || got[0] != (NodeRange{Lo: 0, Hi: nodes}) {
		t.Fatalf("NodeRanges() has %d ranges, want the single [0, %d)", len(got), nodes)
	}
}
