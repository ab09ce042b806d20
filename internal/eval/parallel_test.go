package eval

import (
	"sync"
	"testing"

	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// TestParallelCountMatchesSequential pins the tentpole invariant:
// CountWith at any worker count returns exactly the sequential count,
// for every use case, every streaming projection in the battery, at
// shard widths 1, 7 and the default, both in memory and over a spill.
func TestParallelCountMatchesSequential(t *testing.T) {
	for _, name := range usecases.Names {
		for _, shardNodes := range []int{1, 7, 0} {
			n := 300
			if shardNodes == 1 {
				n = 150 // width 1 writes two files per (node, predicate)
			}
			cfg := testutil.Config(t, name, n)
			g, dir := testutil.Spill(t, name, n, shardNodes, evalFixtureSeed)
			src, err := OpenSpillSource(dir, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			preds := testutil.Predicates(cfg)
			for qi, q := range spillTestQueries(preds) {
				want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
				if err != nil {
					t.Fatalf("%s width=%d q%d sequential: %v", name, shardNodes, qi, err)
				}
				for _, workers := range []int{1, 2, 8} {
					opt := EvalOptions{Workers: workers}
					got, err := CountWith(g, q, Budget{}, opt)
					if err != nil {
						t.Errorf("%s width=%d q%d workers=%d in-memory: %v", name, shardNodes, qi, workers, err)
					} else if got != want {
						t.Errorf("%s width=%d q%d workers=%d: in-memory parallel=%d sequential=%d",
							name, shardNodes, qi, workers, got, want)
					}
					got, err = CountWith(src, q, Budget{}, opt)
					if err != nil {
						t.Errorf("%s width=%d q%d workers=%d spill: %v", name, shardNodes, qi, workers, err)
					} else if got != want {
						t.Errorf("%s width=%d q%d workers=%d: spill parallel=%d sequential=%d",
							name, shardNodes, qi, workers, got, want)
					}
				}
			}
		}
	}
}

// pairQuery builds the two-variable single-conjunct query counting
// distinct (x, y) with x -expr-> y.
func pairQuery(expr string) *query.Query {
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(expr)}},
	}}}
}

// TestSharedResidencyFleet pins the shared-cache acceptance criterion:
// K concurrent evaluations of one query over one spill source perform
// exactly as many shard loads as a single evaluation — each active
// shard is read once for the whole fleet — and that count equals the
// number of node ranges with any active source for the predicate.
func TestSharedResidencyFleet(t *testing.T) {
	g, dir := buildSpill(t, "bib", 400, 25)
	cfg := testutil.Config(t, "bib", 400)
	pred := cfg.Schema.Predicates[0].Name
	q := pairQuery(pred)

	single, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CountWith(single, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	singleLoads := single.CacheStats().Loads

	// Active shards computed from the in-memory twin: ranges holding at
	// least one source with an outgoing pred edge. The scan reads the
	// forward direction only, so this is the full working set.
	pid := g.PredIndex(pred)
	active := int64(0)
	for _, rg := range single.NodeRanges() {
		for v := rg.Lo; v < rg.Hi; v++ {
			if len(g.Neighbors(v, pid, false)) > 0 {
				active++
				break
			}
		}
	}
	if active == 0 || singleLoads != active {
		t.Fatalf("single evaluation: %d loads, want %d (one per active shard)", singleLoads, active)
	}

	fleetSrc, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const K = 6
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := CountWith(fleetSrc, q, Budget{}, EvalOptions{Workers: 2})
			if err != nil {
				t.Error(err)
			} else if got != want {
				t.Errorf("fleet count = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
	st := fleetSrc.CacheStats()
	if st.Loads != singleLoads {
		t.Errorf("fleet of %d loaded %d shards, single evaluation loads %d — residency not shared", K, st.Loads, singleLoads)
	}
	if st.Evictions != 0 {
		t.Errorf("unexpected evictions under a default budget: %d", st.Evictions)
	}
}

// TestSharedCacheAcrossSources: two sources over one spill sharing one
// ShardCache pool their residency — the second evaluator's accesses
// are all hits.
func TestSharedCacheAcrossSources(t *testing.T) {
	_, dir := buildSpill(t, "bib", 400, 25)
	cfg := testutil.Config(t, "bib", 400)
	q := pairQuery(cfg.Schema.Predicates[0].Name)

	spill, err := graphgen.OpenCSRSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewShardCache(0)
	a := NewSpillSourceWith(spill, cache, SpillSourceOptions{})
	b := NewSpillSourceWith(spill, cache, SpillSourceOptions{})
	if a.Cache() != b.Cache() {
		t.Fatal("sources do not share the cache")
	}
	na, err := CountWith(a, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := cache.Stats()
	if first.Loads == 0 {
		t.Errorf("first evaluator stats = %+v, want loads > 0", first)
	}
	nb, err := CountWith(b, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("counts diverge across shared-cache sources: %d vs %d", na, nb)
	}
	if st := cache.Stats(); st.Loads != first.Loads || st.DedupHits != first.DedupHits || st.Hits <= first.Hits {
		t.Errorf("second evaluator moved stats %+v -> %+v, want only hits (residency pooled)", first, st)
	}
}
