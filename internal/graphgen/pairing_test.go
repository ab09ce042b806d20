package graphgen

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// FuzzSparseShuffle checks the sparse pairing path against the dense
// one: for fuzzed degrees (one byte a node), m in [1, L) and seed, the
// replay over the first m occurrences must leave exactly what
// partialShuffle leaves in the first m entries of the whole vector,
// and leave the RNG where partialShuffle leaves it.
func FuzzSparseShuffle(f *testing.F) {
	ones := func(n int) []byte { return slices.Repeat([]byte{1}, n) }
	f.Add(ones(41), uint32(9), int64(1))                                   // L = pairDense·m+1, m = 10
	f.Add([]byte{0, 0, 255, 0, 0}, uint32(4), int64(2))                    // a single hub
	f.Add([]byte{3, 0, 0, 0, 0, 0, 7, 0, 0, 2, 0, 0}, uint32(2), int64(3)) // runs of zero degrees
	f.Add([]byte{5, 9, 2, 200, 1}, uint32(0), int64(4))                    // m = 1
	f.Add(ones(300), uint32(296), int64(5))                                // m = L-3: 297 draws over 3 positions past m
	f.Add(slices.Repeat([]byte{2, 0, 1}, 100), uint32(290), int64(6))
	f.Fuzz(func(t *testing.T, degs []byte, mRaw uint32, seed int64) {
		deg := make([]int32, len(degs))
		L := 0
		for i, b := range degs {
			deg[i] = int32(b)
			L += int(b)
		}
		if L < 2 {
			return
		}
		m := 1 + int(mRaw%uint32(L-1))

		dense := newShardScratch()
		dense.src.Seed(seed)
		want := expand(nil, deg, L)
		partialShuffle(want, m, &dense.src)

		sparse := newShardScratch()
		sparse.src.Seed(seed)
		got := expand(make([]int32, 4*m), deg, m)
		sparse.sparseShuffle(got, got[m:cap(got)], slices.Clone(deg), L)
		if !slices.Equal(got, want[:m]) {
			t.Fatalf("L %d, m %d: sparse replay %v, partialShuffle %v", L, m, got, want[:m])
		}
		if a, b := sparse.src.Int63(), dense.src.Int63(); a != b {
			t.Fatalf("L %d, m %d: the RNG moved on to %d, partialShuffle's to %d", L, m, a, b)
		}
	})
}

// TestPinnedRowsTakeBothPairings checks that emitted.crc's rows reach
// both pairing paths, so the pin holds the bytes of each: the use
// cases' stream rows write their long sides whole (dense), and every
// pairing row replays over the paired prefix (sparse).
func TestPinnedRowsTakeBothPairings(t *testing.T) {
	s := newShardScratch()
	// paths counts the shards with both sides specified that pair
	// densely and sparsely.
	paths := func(cfg *schema.GraphConfig, opt Options) (dense, sparse int) {
		p, err := newPlan(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.shards {
			sp := &p.shards[i]
			m, err := sp.draw(s)
			if err != nil {
				t.Fatal(err)
			}
			if m == 0 || sp.cp.out == nil || sp.cp.in == nil {
				continue
			}
			if sparsePairing(max(s.outTotal, s.inTotal), m) {
				sparse++
			} else {
				dense++
			}
		}
		return dense, sparse
	}
	dense := 0
	for _, uc := range usecases.Names {
		cfg, err := usecases.ByName(uc, pinNodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7} {
			for _, shardEdges := range []int{0, 7} {
				d, _ := paths(cfg, Options{Seed: seed, ShardEdges: shardEdges})
				dense += d
			}
		}
	}
	if dense == 0 {
		t.Error("no stream row pairs a shard densely")
	}
	for _, c := range sparsePins() {
		if _, sparse := paths(c.cfg, Options{Seed: 7}); sparse == 0 {
			t.Errorf("pairing.%s pairs no shard sparsely", c.name)
		}
	}
}

// TestSparsePairingHoldsNothingSizedByTheLongSide pairs a long side of
// 5·10⁷ occurrences — 1 000 sources of Gaussian(50 000, 1) out-degree —
// with 1 000 targets of in-degree 1. The shard must emit its 1 000
// edges allocating under 8 MB; written whole, the long side alone
// would take 200 MB.
func TestSparsePairingHoldsNothingSizedByTheLongSide(t *testing.T) {
	cfg := twoTypeConfig(2000, dist.NewUniform(1, 1), dist.NewGaussian(50_000, 1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := Emit(cfg, Options{Seed: 1, Parallelism: 1}, &countingSink{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("emitted %d edges, want 1000", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("the shard allocated %s, want under 8 MB", fmt.Sprintf("%.1f MB", float64(alloc)/(1<<20)))
	}
}

// TestUniformPairingHoldsNothingSizedByTheDegree pairs 1 000 sources of
// Gaussian(50 000, 1) out-degree with random targets (in-degree
// non-specified) in one shard: 5·10⁷ edges, every node a hub. The runs
// must come in blocks of at most partnerBlock partners and the shard
// must allocate under 8 MB; written whole, the random side alone would
// take 200 MB.
func TestUniformPairingHoldsNothingSizedByTheDegree(t *testing.T) {
	cfg := twoTypeConfig(2000, dist.Unspecified(), dist.NewGaussian(50_000, 1))
	p, err := newPlan(cfg, Options{Seed: 1, ShardEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	sp := &p.shards[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := newShardScratch()
	m, err := sp.draw(s)
	if err != nil {
		t.Fatal(err)
	}
	edges, longest := 0, 0
	err = sp.pair(s, m, func(_ graph.NodeID, partners []int32, _ int32) error {
		edges += len(partners)
		longest = max(longest, len(partners))
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if edges != m || m < 1000*49_990 {
		t.Errorf("paired %d edges of %d, want all of about 5·10⁷", edges, m)
	}
	if longest > partnerBlock {
		t.Errorf("a run of %d partners, want at most %d", longest, partnerBlock)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("the shard allocated %.1f MB, want under 8 MB", float64(alloc)/(1<<20))
	}
}
