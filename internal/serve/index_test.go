package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/manifest"
	"gmark/internal/usecases"
)

// sliceSpecs lists every graph slice of a job a range at a time: each
// range as forward and backward CSR in every compression, and as text.
func sliceSpecs(pred, nRanges int) []*graphSliceSpec {
	var specs []*graphSliceSpec
	for rng := 0; rng < nRanges; rng++ {
		for _, dir := range []byte{'f', 'b'} {
			for _, comp := range []graphgen.SpillCompression{
				graphgen.SpillCompressNone, graphgen.SpillCompressRaw,
				graphgen.SpillCompressVarint, graphgen.SpillCompressDeflate,
			} {
				specs = append(specs, &graphSliceSpec{pred: pred, enc: "csr", dir: dir, rng: rng, comp: comp})
			}
		}
		specs = append(specs, &graphSliceSpec{pred: pred, enc: "text", rng: rng})
	}
	return specs
}

// name renders a slice spec for failure messages.
func (g *graphSliceSpec) name() string {
	if g.enc == "text" {
		return fmt.Sprintf("text/%d", g.rng)
	}
	return fmt.Sprintf("csr-%c/%d/%s", g.dir, g.rng, g.comp)
}

// TestIndexedCutsMatchFilterRange pins the index against the filtering
// cut on columns whose key intervals sit inside the node range: ranges
// wholly inside, straddling and outside each side's interval, both
// directions, every compression, and text.
func TestIndexedCutsMatchFilterRange(t *testing.T) {
	srv := New(Options{Parallelism: 2})
	rng := rand.New(rand.NewSource(3))
	for trial, shape := range []struct {
		sLo, sSpan, dLo, dSpan, edges int
		sorted                        bool
	}{
		{40, 50, 10, 50, 400, false}, // sources from range 2 to 5 of 8, targets from 0 to 3
		{37, 1, 90, 3, 25, false},    // one source, three targets: a single busy row
		{0, 128, 0, 128, 900, false}, // both sides span every range
		{0, 128, 0, 128, 900, true},  // sources in node order, as most emissions leave them
		{64, 16, 64, 16, 0, false},   // no edges
	} {
		j := &job{id: "synthetic", numNodes: 128, shardNodes: 16, nRanges: 8}
		plain := &edgeList{}
		for i := 0; i < shape.edges; i++ {
			plain.srcs = append(plain.srcs, graph.NodeID(shape.sLo+rng.Intn(shape.sSpan)))
			plain.dsts = append(plain.dsts, graph.NodeID(shape.dLo+rng.Intn(shape.dSpan)))
		}
		if shape.sorted {
			slices.Sort(plain.srcs)
		}
		held := packEdges(plain)    // as the emitting request holds them
		resident := held.resident() // as a cache hit finds them
		for _, g := range sliceSpecs(0, j.nRanges) {
			want, err := srv.cutGraphSlice(j, g, held, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range []struct {
				name string
				e    predEdges
				idx  *cutIndex
			}{
				{"packed filtering", resident, nil},
				{"indexed from plain", held, buildCutIndex(held, j.shardNodes)},
				{"indexed from packed", resident, buildCutIndex(resident, j.shardNodes)},
			} {
				got, err := srv.cutGraphSlice(j, g, cut.e, cut.idx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("shape %d %s: %s cut is %d bytes, plain filtering cut %d",
						trial, g.name(), cut.name, len(got), len(want))
				}
			}
		}
	}
}

// TestConcurrentCutsWhileIndexing has 8 goroutines cut every slice of
// one resident predicate at once, so the second cut's index build races
// the others' cuts; every slice must equal its filtering cut, and one
// index must be built.
func TestConcurrentCutsWhileIndexing(t *testing.T) {
	const K = 8
	srv, j := policyServer(t, 0)
	e, err := srv.predicateEdges(j, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := sliceSpecs(0, j.nRanges)
	want := make([][]byte, len(specs))
	for i, g := range specs {
		if want[i], err = srv.cutGraphSlice(j, g, e, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < K; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range specs {
				i := (k + w*len(specs)/K) % len(specs) // each goroutine starts elsewhere
				got, err := srv.computeGraphSlice(j, specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: %s differs from its filtering cut", w, specs[i].name())
				}
			}
		}(w)
	}
	wg.Wait()
	if st := srv.Stats(); st.ColumnIndexes != 1 || st.Emissions != 1 {
		t.Errorf("%d concurrent sweeps of one predicate: %d indexes, %d emissions; want 1 and 1",
			K, st.ColumnIndexes, st.Emissions)
	}
}

// TestCacheGrow pins the index's charge: grow adds bytes to a resident
// entry only from the free part of the budget, refuses absent keys and
// other values, and eviction releases the grown size with the entry.
func TestCacheGrow(t *testing.T) {
	c := intCache(10)
	get := func(key string, size int) {
		t.Helper()
		if _, _, err := c.get(key, func() (int, error) { return size, nil }); err != nil {
			t.Fatal(err)
		}
	}
	same := func(want int) func(int) bool { return func(v int) bool { return v == want } }
	get("a", 4)
	get("b", 4)
	if c.grow("absent", 1, same(0)) {
		t.Error("grew a key that is not resident")
	}
	if c.grow("a", 3, same(4)) {
		t.Error("grew past the budget; that would have to evict")
	}
	if c.grow("a", 1, same(5)) {
		t.Error("grew an entry whose value is not the caller's")
	}
	if st := c.stats(); st.Bytes != 8 || st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("refused grows changed the cache: %+v", st)
	}
	if !c.grow("a", 2, same(4)) {
		t.Fatal("refused a grow that fits the free budget")
	}
	if st := c.stats(); st.Bytes != 10 {
		t.Fatalf("after growing a by 2 the cache holds %d bytes, want 10", st.Bytes)
	}
	get("z", 10) // a full-budget entry evicts a with its grown size, then b
	if st := c.stats(); st.Bytes != 10 || st.Entries != 1 || st.Evictions != 2 {
		t.Errorf("after evicting the grown entry: %+v, want only z's 10 bytes", st)
	}
}

// TestHugeShardNodesTextRange is the regression test for a range bound
// built in NodeID: at shard_nodes of 2³¹ or more, range 0 holds every
// node, so its text slice is the whole predicate and its CSR slices are
// the whole adjacency, on both the filtering and the indexed cut.
func TestHugeShardNodesTextRange(t *testing.T) {
	gcfg, err := usecases.ByName("bib", 130)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphgen.Generate(gcfg, graphgen.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := g.PredIndex("authors")
	var wantText []byte
	g.Edges(func(e graph.Edge) {
		if e.Pred == pred {
			wantText = append(wantText, fmt.Sprintf("%d %d\n", e.Src, e.Dst)...)
		}
	})
	for _, width64 := range []int64{1 << 31, 1 << 32, 1<<62 + 5, math.MaxInt} {
		if width64 > math.MaxInt {
			continue // past a 32-bit int; math.MaxInt is the widest there
		}
		width := int(width64)
		for _, budget := range cacheBudgets { // indexed after the first cut, and never
			srv := New(Options{Parallelism: 2, CacheBytes: budget})
			spec := &manifest.JobSpec{
				FormatVersion: manifest.JobSpecFormatVersion,
				Usecase:       "bib", Nodes: 130, Seed: 3, ShardNodes: width,
			}
			body, err := manifest.EncodeJobSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			j, _, herr := srv.register(body)
			if herr != nil {
				t.Fatalf("shard_nodes %d: register: %d %s", width, herr.code, herr.msg)
			}
			if j.nRanges != 1 {
				t.Fatalf("shard_nodes %d: %d ranges, want 1", width, j.nRanges)
			}
			// Text range 0 twice, so both cuts run at the default budget.
			for _, g := range []*graphSliceSpec{
				{pred: int(pred), enc: "text", rng: 0},
				{pred: int(pred), enc: "text", rng: 0},
			} {
				got, err := srv.computeGraphSlice(j, g)
				if err != nil {
					t.Fatal(err)
				}
				if !sameLines(got, wantText) {
					t.Errorf("shard_nodes %d, budget %d: text range 0 is %d bytes, the whole predicate %d",
						width, budget, len(got), len(wantText))
				}
			}
			for _, inverse := range []bool{false, true} {
				off, adj := g.Adjacency(pred, inverse)
				want, err := graphgen.EncodeCSRShard(off, adj, graphgen.SpillCompressVarint)
				if err != nil {
					t.Fatal(err)
				}
				dir := byte('f')
				if inverse {
					dir = 'b'
				}
				got, err := srv.computeGraphSlice(j, &graphSliceSpec{pred: int(pred), enc: "csr", dir: dir, rng: 0, comp: graphgen.SpillCompressVarint})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("shard_nodes %d, budget %d: csr-%c range 0 is %d bytes, the whole adjacency %d",
						width, budget, dir, len(got), len(want))
				}
			}
			if st, want := srv.Stats(), int64(1-budget); st.ColumnIndexes != want {
				t.Errorf("shard_nodes %d, budget %d: %d indexes built, want %d", width, budget, st.ColumnIndexes, want)
			}
		}
	}
}

// sameLines reports whether two text slices hold the same lines in
// any order: a range slice is in emission order, Edges in CSR order.
func sameLines(a, b []byte) bool {
	x, y := nonEmptyLines(string(a)), nonEmptyLines(string(b))
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
