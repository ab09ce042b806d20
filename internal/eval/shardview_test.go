package eval

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/schema"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// recipeQueries draws the paper's Section 6.2 protocol the way
// gmark-perf does: for each workload kind (len, dis, con, rec),
// perClass queries of each selectivity class. gmark-perf's query seed
// is 2.
func recipeQueries(t *testing.T, cfg *schema.GraphConfig, seed int64, perClass int) []*query.Query {
	t.Helper()
	var out []*query.Query
	for _, kind := range usecases.WorkloadKinds {
		wcfg, err := usecases.Workload(kind, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := querygen.New(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
			for i := 0; i < perClass; i++ {
				q, err := gen.GenerateWithClass(class)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, q)
			}
		}
	}
	return out
}

// viewTier is one way the shards behind a view can be stored and made
// resident: an encoding, decoded or served in place, mapped or through
// the portable read-into-slice path.
type viewTier struct {
	name      string
	comp      graphgen.SpillCompression
	mmap      bool
	forceRead bool
}

var viewTiers = []viewTier{
	{name: "none", comp: graphgen.SpillCompressNone},
	{name: "varint", comp: graphgen.SpillCompressVarint},
	{name: "deflate", comp: graphgen.SpillCompressDeflate},
	{name: "raw", comp: graphgen.SpillCompressRaw},
	{name: "raw+mmap", comp: graphgen.SpillCompressRaw, mmap: true},
	{name: "raw+forceRead", comp: graphgen.SpillCompressRaw, mmap: true, forceRead: true},
}

func (vt viewTier) open(t *testing.T, dir string, cacheBytes int64) *SpillSource {
	t.Helper()
	src, err := OpenSpillSourceWith(dir, SpillSourceOptions{Mmap: vt.mmap, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	src.forceRead = vt.forceRead
	return src
}

// TestShardViewMatchesSourceAndGraph is the differential pin of the
// view: every predicate's edge count and the adjacency of 10^5 seeded
// probes are the same through a view, through the bare SpillSource and
// from the in-memory graph, for every encoding and residency tier —
// with the cache fitting, and with one so small that the probes evict
// under the view and its epoch check has to drop the memo.
func TestShardViewMatchesSourceAndGraph(t *testing.T) {
	const probes = 100_000
	for _, vt := range viewTiers {
		for _, cacheBytes := range []int64{0, 8 << 10} {
			t.Run(fmt.Sprintf("%s/cache=%d", vt.name, cacheBytes), func(t *testing.T) {
				t.Parallel()
				g, dir := buildSpillComp(t, "bib", 300, 37, vt.comp)
				src := vt.open(t, dir, cacheBytes)
				view, release := WorkerSource(src)
				if _, ok := view.(*shardView); !ok {
					t.Fatalf("WorkerSource(SpillSource) = %T, want a shard view", view)
				}
				rng := rand.New(rand.NewSource(16))
				nodes, preds := int32(g.NumNodes()), int32(g.NumPredicates())
				for p := range preds {
					if got, want := view.PredEdgeCount(p), src.PredEdgeCount(p); got != want || want != g.PredEdgeCount(p) {
						t.Fatalf("pred %d: view counts %d edges, spill %d, graph %d", p, got, want, g.PredEdgeCount(p))
					}
				}
				unpin := func() {}
				defer func() { unpin() }()
				for i := 0; i < probes; i++ {
					// A fresh reader bracket every 1024 probes: slices are
					// compared at once, and a bracket held over the whole
					// run would keep every mapping the small cache evicts.
					if i%1024 == 0 {
						unpin()
						unpin = AcquireSourceReader(src)
					}
					v, p, inv := rng.Int31n(nodes), rng.Int31n(preds), rng.Intn(2) == 1
					want := g.Neighbors(v, p, inv)
					if got := view.Neighbors(v, p, inv); !slices.Equal(got, want) {
						t.Fatalf("probe %d: view.Neighbors(%d, %d, %v) = %v, graph %v", i, v, p, inv, got, want)
					}
					// The bare source every tenth probe: often enough to
					// interleave its loads and evictions with the view's.
					if i%10 == 0 {
						if got := src.Neighbors(v, p, inv); !slices.Equal(got, want) {
							t.Fatalf("probe %d: source.Neighbors(%d, %d, %v) = %v, graph %v", i, v, p, inv, got, want)
						}
					}
				}
				release()
				if err := src.Err(); err != nil {
					t.Fatal(err)
				}
				st := src.CacheStats()
				if got := st.Hits + st.Loads + st.DedupHits; got != probes+probes/10 {
					t.Errorf("hits+loads+dedups = %d, want one per Neighbors call = %d (%+v)", got, probes+probes/10, st)
				}
				if cacheBytes > 0 && st.Evictions == 0 {
					t.Errorf("an %d-byte cache evicted nothing (%+v)", cacheBytes, st)
				}
			})
		}
	}
}

// TestShardViewUnderEviction: four workers count the recipe through a
// cache a quarter of the resident working set. Every count equals the
// in-memory one, evictions happened (so views dropped their memos on
// the epoch), the cache ends within its budget — a view never keeps an
// evicted shard in use — and mapped bytes drain on Purge.
func TestShardViewUnderEviction(t *testing.T) {
	for _, vt := range []viewTier{viewTiers[1], viewTiers[4]} { // varint, raw+mmap
		t.Run(vt.name, func(t *testing.T) {
			t.Parallel()
			g, dir := buildSpillComp(t, "sp", 400, 25, vt.comp)
			queries := recipeQueries(t, testutil.Config(t, "sp", 400), 2, 1)
			want := make([]int64, len(queries))
			for i, q := range queries {
				var err error
				if want[i], err = CountWith(g, q, Budget{}, EvalOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}

			// The working set as the cache charges it: what one warm
			// pass over the recipe leaves resident.
			full := vt.open(t, dir, 0)
			for _, q := range queries {
				if _, err := CountWith(full, q, Budget{}, EvalOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			budget := full.CacheStats().PeakBytes / 4
			full.Cache().Purge()

			src := vt.open(t, dir, budget)
			for i, q := range queries {
				got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 4})
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if got != want[i] {
					t.Errorf("query %d: count %d through a %d-byte cache, in-memory %d", i, got, budget, want[i])
				}
			}
			st := src.CacheStats()
			if st.Evictions == 0 {
				t.Errorf("a quarter-size cache evicted nothing (%+v)", st)
			}
			if st.BytesUsed > budget {
				t.Errorf("resident %d bytes after the run, budget %d", st.BytesUsed, budget)
			}
			if vt.mmap && mmapSupported && st.MappedBytes == 0 {
				t.Errorf("mmap tier holds no mapped bytes (%+v)", st)
			}
			src.Cache().Purge()
			if st := src.CacheStats(); st.MappedBytes != 0 || st.BytesUsed != 0 {
				t.Errorf("after Purge: mapped %d, resident %d; want 0, 0", st.MappedBytes, st.BytesUsed)
			}
		})
	}
}

// countingSource is the in-memory graph counting its Neighbors calls,
// claiming the given node ranges (a spill's, so that the evaluator
// plans the same scan over it as over the spill) or none.
type countingSource struct {
	*graph.Graph
	ranges []NodeRange
	calls  int64
}

func (c *countingSource) Neighbors(v graph.NodeID, p graph.PredID, inverse bool) []int32 {
	c.calls++
	return c.Graph.Neighbors(v, p, inverse)
}

func (c *countingSource) NodeRanges() []NodeRange { return c.ranges }

// TestShardViewStatsConserved: batching the hits loses none. After a
// sequential pass over the recipe, hits + loads + dedup hits equal the
// number of Neighbors calls the same pass makes on the in-memory graph
// — in the cache-wide and in the per-source counters — and the
// counters are complete the moment each count returns.
func TestShardViewStatsConserved(t *testing.T) {
	g, dir := buildSpill(t, "sp", 400, 100)
	src, err := OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingSource{Graph: g, ranges: src.NodeRanges()}
	for i, q := range recipeQueries(t, testutil.Config(t, "sp", 400), 2, 2) {
		want, err := CountWith(counting, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: spill count %d, in-memory %d", i, got, want)
		}
		if st := src.CacheStats(); st.Hits+st.Loads+st.DedupHits != counting.calls {
			t.Fatalf("after query %d: hits+loads+dedups = %d, Neighbors calls = %d (%+v)", i, st.Hits+st.Loads+st.DedupHits, counting.calls, st)
		}
	}
	if counting.calls == 0 {
		t.Fatal("the recipe made no Neighbors call")
	}
}

// TestShardViewCorruptShardSticky: a shard that fails to load, and one
// whose manifest range is shifted off its content, fail a count made
// through views with the very error the bare source records.
func TestShardViewCorruptShardSticky(t *testing.T) {
	const width = 25
	g, dir := buildSpill(t, "bib", 400, width)
	// A (predicate, shard) whose first node has an out-edge, so both a
	// bare probe of that node and a scan of the predicate reach it.
	pred, idx := graph.PredID(-1), 0
search:
	for p := 0; p < g.NumPredicates(); p++ {
		for i := 1; i*width < g.NumNodes(); i++ {
			if len(g.Neighbors(int32(i*width), graph.PredID(p), false)) > 0 {
				pred, idx = graph.PredID(p), i
				break search
			}
		}
	}
	if pred < 0 {
		t.Fatal("fixture has no shard whose first node is active")
	}
	node := graph.NodeID(idx * width)
	q := pairQuery(g.PredName(pred))

	// A corruption is an edit of the opened manifest, made on every
	// source, or of the directory, made once; the latter runs last.
	corruptions := []struct {
		name     string
		manifest func(s *SpillSource)
		disk     func(t *testing.T)
	}{
		{name: "manifest Lo off by one", manifest: func(s *SpillSource) {
			sh := &s.spill.Manifest.Predicates[pred].Fwd[idx]
			sh.Lo++
			sh.Hi++
		}},
		{name: "truncated file", disk: func(t *testing.T) {
			spill, err := graphgen.OpenCSRSpill(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := spill.ShardPath(spill.Manifest.Predicates[pred].Fwd[idx])
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if c.disk != nil {
				c.disk(t)
			}
			open := func() *SpillSource {
				s, err := OpenSpillSource(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				if c.manifest != nil {
					c.manifest(s)
				}
				return s
			}
			bare := open()
			if adj := bare.Neighbors(node, pred, false); adj != nil {
				t.Fatalf("bare source served %v from a corrupt shard", adj)
			}
			want := bare.Err()
			if want == nil {
				t.Fatal("bare source recorded no error")
			}
			src := open()
			if n, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 2}); err == nil {
				t.Fatalf("count over a corrupt shard returned %d", n)
			}
			if got := src.Err(); got == nil || got.Error() != want.Error() {
				t.Errorf("sticky error through views = %v, bare source = %v", got, want)
			}
		})
	}
}

// TestSpillSourceRejectsOutsideIds: a negative predicate used to index
// the manifest and panic; like a predicate past the end, and like a
// node outside the instance, it is a sticky error — on the bare source
// and through a view alike.
func TestSpillSourceRejectsOutsideIds(t *testing.T) {
	g, dir := buildSpill(t, "bib", 200, 50)
	probes := []struct {
		v       graph.NodeID
		p       graph.PredID
		wantErr string
	}{
		{v: 0, p: -1, wantErr: "no predicate -1"},
		{v: 0, p: 1 << 20, wantErr: "no predicate"},
		{v: -1, p: 0, wantErr: "outside"},
		{v: -1000, p: 0, wantErr: "outside"},
		{v: graph.NodeID(g.NumNodes()), p: 0, wantErr: "outside"},
	}
	for _, pr := range probes {
		for _, through := range []string{"source", "view"} {
			src, err := OpenSpillSource(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			var s Source = src
			release := func() {}
			if through == "view" {
				s, release = WorkerSource(src)
			}
			if adj := s.Neighbors(pr.v, pr.p, false); adj != nil {
				t.Errorf("%s.Neighbors(%d, %d) = %v, want nil", through, pr.v, pr.p, adj)
			}
			release()
			if err := src.Err(); err == nil || !strings.Contains(err.Error(), pr.wantErr) {
				t.Errorf("%s.Neighbors(%d, %d): sticky error %v, want one containing %q", through, pr.v, pr.p, err, pr.wantErr)
			}
		}
	}
}
