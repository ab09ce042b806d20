package engines

import (
	"testing"

	"gmark/internal/eval"
	"gmark/internal/graphgen"
	"gmark/internal/testutil"
)

// TestEnginesOverMmapSpillMatchInMemory: every engine run through
// EvaluateOpt with two workers over the zero-copy mapping path counts
// pinned equal to its own in-memory evaluation over a raw spill. This
// is the engines-level half of the mmap acceptance property; eval's
// TestRawMmapCountsIdentical covers the reference evaluator.
func TestEnginesOverMmapSpillMatchInMemory(t *testing.T) {
	cfg := testutil.Config(t, "bib", 220)
	g, dir := testutil.SpillComp(t, "bib", 220, 20, 11, graphgen.SpillCompressRaw)
	src, err := eval.OpenSpillSourceWith(dir, eval.SpillSourceOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	preds := testutil.Predicates(cfg)
	opt := eval.EvalOptions{Workers: 2}
	for qi, q := range engineSpillQueries(preds) {
		for _, eng := range All() {
			want, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("q%d engine %s in-memory: %v", qi, eng.Name(), err)
			}
			got, err := EvaluateOpt(eng, src, q, eval.Budget{}, opt)
			if err != nil {
				t.Fatalf("q%d engine %s mmap spill: %v", qi, eng.Name(), err)
			}
			if got != want {
				t.Errorf("q%d engine %s: mmap spill=%d in-memory=%d", qi, eng.Name(), got, want)
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("sticky spill error: %v", err)
	}
	st := src.CacheStats()
	if st.Loads == 0 {
		t.Fatal("engines never loaded a shard")
	}
}

// TestEngineMethodsBracketMappedReads: every engine evaluation holds
// the reader bracket, sequential or range-sharded. A one-byte cache
// evicts — munmaps — the previous shard on every load, so without the
// bracket a traversal still iterating one shard's adjacency reads an
// unmapped page as soon as it loads the next.
func TestEngineMethodsBracketMappedReads(t *testing.T) {
	cfg := testutil.Config(t, "bib", 220)
	g, dir := testutil.SpillComp(t, "bib", 220, 20, 11, graphgen.SpillCompressRaw)
	src, err := eval.OpenSpillSourceWith(dir, eval.SpillSourceOptions{Mmap: true, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range engineSpillQueries(testutil.Predicates(cfg)) {
		for _, eng := range All() {
			want, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("q%d engine %s in-memory: %v", qi, eng.Name(), err)
			}
			for _, workers := range []int{1, 2} {
				got, err := EvaluateOpt(eng, src, q, eval.Budget{}, eval.EvalOptions{Workers: workers})
				if err != nil {
					t.Fatalf("q%d engine %s workers=%d: %v", qi, eng.Name(), workers, err)
				}
				if got != want {
					t.Errorf("q%d engine %s workers=%d: mmap spill=%d in-memory=%d", qi, eng.Name(), workers, got, want)
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("sticky spill error: %v", err)
	}
	if st := src.CacheStats(); st.Evictions == 0 {
		t.Fatalf("one-byte cache evicted nothing (%+v)", st)
	}
}
