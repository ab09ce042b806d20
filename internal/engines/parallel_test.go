package engines

import (
	"math/rand"
	"testing"

	"gmark/internal/eval"
	"gmark/internal/query"
	"gmark/internal/testutil"
)

// TestWorkerEnginesMatchSequential pins the engine half of the
// parallel-evaluation invariant: EvaluateOpt at any worker count
// returns exactly the sequential count, for engines S and G, over random
// in-memory graphs and over a spill, across the spill query battery.
func TestWorkerEnginesMatchSequential(t *testing.T) {
	workerEngines := []Engine{NewTripleStore(), NewGraphDB()}

	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 200, 3, 600)
	queries := []*query.Query{
		chainQuery(false, "a"),
		chainQuery(false, "a", "b-"),
		chainQuery(false, "(a+b-)", "c"),
		chainQuery(true, "a"),
	}
	for _, eng := range workerEngines {
		for qi, q := range queries {
			want, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s q%d sequential: %v", eng.Name(), qi, err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: workers})
				if err != nil {
					t.Errorf("%s q%d workers=%d: %v", eng.Name(), qi, workers, err)
				} else if got != want {
					t.Errorf("%s q%d workers=%d: parallel=%d sequential=%d", eng.Name(), qi, workers, got, want)
				}
			}
		}
	}
}

// TestWorkerEnginesOverSpill: the same pin over a spill-backed source,
// so parallel engine workers exercise the shared shard cache under
// -race, including the tiny-budget eviction path.
func TestWorkerEnginesOverSpill(t *testing.T) {
	cfg := testutil.Config(t, "bib", 200)
	g, dir := testutil.Spill(t, "bib", 200, 16, 7)
	preds := testutil.Predicates(cfg)
	for _, eng := range []Engine{NewTripleStore(), NewGraphDB()} {
		for qi, q := range engineSpillQueries(preds) {
			want, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s q%d in-memory: %v", eng.Name(), qi, err)
			}
			src := eval.NewSpillSource(mustOpen(t, dir), 1<<13)
			got, err := EvaluateOpt(eng, src, q, eval.Budget{}, eval.EvalOptions{Workers: 4})
			if err == nil {
				err = src.Err()
			}
			if err != nil {
				t.Errorf("%s q%d spill workers=4: %v", eng.Name(), qi, err)
			} else if got != want {
				t.Errorf("%s q%d spill workers=4: parallel=%d in-memory=%d", eng.Name(), qi, got, want)
			}
		}
	}
}

// TestEvaluateWithFallback: EvaluateOpt applies the worker count to
// S and G and evaluates P and D sequentially, with identical counts
// everywhere.
func TestEvaluateWithFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 120, 2, 300)
	q := chainQuery(false, "a", "b-")
	for _, eng := range All() {
		want, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", eng.Name(), err)
		}
		got, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 4})
		if err != nil {
			t.Errorf("%s EvaluateOpt: %v", eng.Name(), err)
		} else if got != want {
			t.Errorf("%s EvaluateOpt: %d != %d", eng.Name(), got, want)
		}
	}
}
