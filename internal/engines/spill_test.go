package engines

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gmark/internal/eval"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// engineSpillQueries builds the cross-source battery over a schema's
// predicates: non-recursive chains (single symbol, inverse,
// alternation, two conjuncts), a Kleene star, and a star-shaped rule
// that exercises each engine's generic binding machinery.
func engineSpillQueries(preds []string) []*query.Query {
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
	return []*query.Query{
		bin(p0),
		bin(p0 + "-"),
		bin("(" + p0 + "+" + p1 + "-)"),
		bin(p0, p1+"-"),
		bin("(" + p0 + ")*"),
		{Rules: []query.Rule{{
			Head: []query.Var{1, 2},
			Body: []query.Conjunct{
				{Src: 0, Dst: 1, Expr: regpath.MustParse(p0)},
				{Src: 0, Dst: 2, Expr: regpath.MustParse(p1)},
			},
		}}},
	}
}

// TestEnginesOverSpillMatchInMemory is the PR's acceptance property:
// every engine produces the same count over a SpillSource as over the
// frozen in-memory graph, for every built-in use case at shard widths
// 1, 7 and the default. G's recursive answers differ from the other
// engines by design (openCypher rewriting), so each engine is compared
// against itself across sources, which pins exactly the porting
// contract. Queries run concurrently over one shared SpillSource so
// -race exercises the shard cache under engine access patterns.
func TestEnginesOverSpillMatchInMemory(t *testing.T) {
	for _, name := range usecases.Names {
		for _, shardNodes := range []int{1, 7, 0} {
			n := 220
			if shardNodes == 1 {
				n = 100 // width 1 writes two files per (node, predicate)
			}
			cfg := testutil.Config(t, name, n)
			g, dir := testutil.Spill(t, name, n, shardNodes, 11)
			// Small budget: engine access patterns must survive
			// evictions mid-evaluation, not just a warm cache.
			src := eval.NewSpillSource(mustOpen(t, dir), 1<<13)

			preds := testutil.Predicates(cfg)
			var wg sync.WaitGroup
			for qi, q := range engineSpillQueries(preds) {
				for _, eng := range All() {
					wg.Add(1)
					go func(qi int, q *query.Query, eng Engine) {
						defer wg.Done()
						want, err := EvaluateOpt(eng, g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
						if err != nil {
							t.Errorf("%s width=%d q%d engine %s in-memory: %v", name, shardNodes, qi, eng.Name(), err)
							return
						}
						got, err := EvaluateOpt(eng, src, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
						if err != nil {
							t.Errorf("%s width=%d q%d engine %s spill: %v", name, shardNodes, qi, eng.Name(), err)
							return
						}
						if got != want {
							t.Errorf("%s width=%d q%d engine %s: spill=%d in-memory=%d for\n%s",
								name, shardNodes, qi, eng.Name(), got, want, q)
						}
					}(qi, q, eng)
				}
				wg.Wait()
			}
			if err := src.Err(); err != nil {
				t.Fatalf("%s width=%d: sticky spill error: %v", name, shardNodes, err)
			}
			if st := src.CacheStats(); st.Loads == 0 {
				t.Fatalf("%s width=%d: engines never loaded a shard", name, shardNodes)
			}
		}
	}
}

func hasStar(q *query.Query) bool {
	for _, r := range q.Rules {
		for _, c := range r.Body {
			if c.Expr.Star {
				return true
			}
		}
	}
	return false
}

func mustOpen(t *testing.T, dir string) *graphgen.CSRSpill {
	t.Helper()
	spill, err := graphgen.OpenCSRSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	return spill
}

// TestEnginesAgainstReferenceOverSpill cross-checks P, S and D against
// the reference evaluator with BOTH sides running over the spill — the
// engines' counts must stay engine-independent out of core exactly as
// they are in memory.
func TestEnginesAgainstReferenceOverSpill(t *testing.T) {
	cfg := testutil.Config(t, "bib", 200)
	_, dir := testutil.Spill(t, "bib", 200, 31, 3)
	src, err := eval.OpenSpillSource(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	preds := testutil.Predicates(cfg)
	for qi, q := range engineSpillQueries(preds) {
		want, err := eval.CountWith(src, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range All() {
			if eng.Name() == "G" && hasStar(q) {
				// Cypher's *0.. matches every node on the zero-length
				// path (and rewrites richer patterns), so G's recursive
				// counts are not reference-comparable; the port contract
				// for G is pinned by the in-memory-vs-spill test above.
				continue
			}
			got, err := EvaluateOpt(eng, src, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("q%d engine %s: %v", qi, eng.Name(), err)
			}
			if got != want {
				t.Errorf("q%d engine %s over spill = %d, reference = %d", qi, eng.Name(), got, want)
			}
		}
	}
}

// TestSpillLoadFailureSurfaces: over a spill whose first predicate's
// forward shards are gone, every evaluation verb — the reference
// evaluator at one and two workers and each engine — fails with the
// source's shard-load error instead of returning a silently small
// count. The in-memory count is 148; a verb that skips the source's
// sticky error reads 0 with a nil error.
func TestSpillLoadFailureSurfaces(t *testing.T) {
	cfg := testutil.Config(t, "bib", 200)
	g, dir := testutil.Spill(t, "bib", 200, 0, 1)
	q := engineSpillQueries(testutil.Predicates(cfg))[0]
	want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil || want == 0 {
		t.Fatalf("in-memory count = %d, %v: the query must have answers", want, err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "csr-f-000-*.bin"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no forward shards of predicate 0 in %s (%v)", dir, err)
	}
	for _, path := range shards {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	verbs := map[string]func(src eval.Source) (int64, error){}
	for _, workers := range []int{1, 2} {
		verbs[fmt.Sprintf("CountWith workers=%d", workers)] = func(src eval.Source) (int64, error) {
			return eval.CountWith(src, q, eval.Budget{}, eval.EvalOptions{Workers: workers})
		}
	}
	for _, eng := range All() {
		verbs["engine "+eng.Name()] = func(src eval.Source) (int64, error) {
			return EvaluateOpt(eng, src, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
		}
	}
	for name, verb := range verbs {
		src, err := eval.OpenSpillSource(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := verb(src)
		if err == nil {
			t.Errorf("%s: count %d with a nil error over missing shards (in memory: %d)", name, n, want)
			continue
		}
		if !errors.Is(err, src.Err()) || !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: err = %v, want the source's shard-load error", name, err)
		}
	}
}
