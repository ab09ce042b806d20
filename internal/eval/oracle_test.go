package eval

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// The naive oracle: a map-based, one-source-at-a-time evaluator of
// chain rules with endpoint heads over Source.Neighbors. It shares no
// code with the window kernel (no bitsets, no masks, no compiled
// expressions), which is what the kernel, the join path's relations and
// every storage tier are compared against.

type nodeSet map[int32]bool

// naivePathImage walks one concatenation of symbols from a node set.
func naivePathImage(g Source, p regpath.Path, from nodeSet) nodeSet {
	for _, s := range p {
		next := nodeSet{}
		for v := range from {
			for _, w := range g.Neighbors(v, g.PredIndex(s.Pred), s.Inverse) {
				next[w] = true
			}
		}
		from = next
	}
	return from
}

// naiveImage is the image of a node set under e. A star matches the
// zero-length path only at nodes that can start or end one of its
// non-empty disjuncts (the star's active domain, see StarDomain).
func naiveImage(g Source, e regpath.Expr, from nodeSet) nodeSet {
	out := nodeSet{}
	if e.Star {
		for v := range from {
			for _, p := range e.Paths {
				if len(p) == 0 {
					continue
				}
				first, last := p[0], p[len(p)-1]
				if len(g.Neighbors(v, g.PredIndex(first.Pred), first.Inverse)) > 0 ||
					len(g.Neighbors(v, g.PredIndex(last.Pred), !last.Inverse)) > 0 {
					out[v] = true
				}
			}
		}
	}
	for len(from) > 0 {
		fresh := nodeSet{}
		for _, p := range e.Paths {
			for w := range naivePathImage(g, p, from) {
				if !out[w] {
					out[w], fresh[w] = true, true
				}
			}
		}
		if from = fresh; !e.Star {
			break
		}
	}
	return out
}

// naiveRows is the relation of e as sorted rows, empty rows omitted.
func naiveRows(g Source, e regpath.Expr) map[int32][]int32 {
	rows := map[int32][]int32{}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		var row []int32
		for w := range naiveImage(g, e, nodeSet{v: true}) {
			row = append(row, w)
		}
		if slices.Sort(row); len(row) > 0 {
			rows[v] = row
		}
	}
	return rows
}

// naiveCount counts the distinct head tuples of a union of chain rules
// whose heads use only the chain's endpoints, at most two of them.
func naiveCount(t testing.TB, g Source, q *query.Query) int64 {
	tuples := map[[2]int32]bool{}
	for _, r := range q.Rules {
		start, end := r.Body[0].Src, r.Body[len(r.Body)-1].Dst
		if len(r.Head) > 2 {
			t.Fatalf("naive oracle: head of arity %d: %v", len(r.Head), r)
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			reach := nodeSet{v: true}
			for i, c := range r.Body {
				if i > 0 && c.Src != r.Body[i-1].Dst {
					t.Fatalf("naive oracle: rule is not a chain: %v", r)
				}
				reach = naiveImage(g, c.Expr, reach)
			}
			for w := range reach {
				var tuple [2]int32
				for i, h := range r.Head {
					switch h {
					case start:
						tuple[i] = v
					case end:
						tuple[i] = w
					default:
						t.Fatalf("naive oracle: head variable %v is not an endpoint of %v", h, r)
					}
				}
				tuples[tuple] = true
			}
		}
	}
	return int64(len(tuples))
}

// TestCountMatchesNaiveOracle is the differential test: the Section 6.2
// recipe (4 workload kinds x 3 classes x 5 queries), over every use
// case and three seeds of graph and queries, must count what the naive
// oracle counts — at worker counts 1/2/8, in
// memory, over varint spills at shard widths 1, 7, 100 (none a multiple
// of the window) and the default, and over a raw spill served in place.
func TestCountMatchesNaiveOracle(t *testing.T) {
	const n = 300
	for _, uc := range usecases.Names {
		for seed := int64(1); seed <= 3; seed++ {
			cfg, g := testutil.Graph(t, uc, n, seed)
			sources := map[string]Source{"memory": g}
			for _, width := range []int{1, 7, 100, 0} {
				if width == 1 && seed > 1 {
					continue // two files per (node, predicate): once per use case
				}
				dir := filepath.Join(t.TempDir(), "csr")
				if err := graphgen.WriteCSRSpillFromGraphWith(dir, g, width, graphgen.SpillCompressVarint); err != nil {
					t.Fatal(err)
				}
				src, err := OpenSpillSource(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				sources[fmt.Sprintf("varint/%d", width)] = src
			}
			raw := filepath.Join(t.TempDir(), "csr")
			if err := graphgen.WriteCSRSpillFromGraphWith(raw, g, 0, graphgen.SpillCompressRaw); err != nil {
				t.Fatal(err)
			}
			mm, err := OpenSpillSourceWith(raw, SpillSourceOptions{Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			sources["raw+mmap"] = mm

			for qi, q := range recipeQueries(t, cfg, seed, 5) {
				want := naiveCount(t, g, q)
				for name, src := range sources {
					for _, workers := range []int{1, 2, 8} {
						got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: workers})
						if err != nil || got != want {
							t.Errorf("(%s, seed %d, query %d) %s workers=%d: count %d (%v), naive oracle %d\n%s",
								uc, seed, qi, name, workers, got, err, want, q)
						}
					}
				}
			}
			mm.Cache().Purge()
		}
	}
}

// TestCountMatchesNaiveOracleWideWindows is the differential test at a
// size of more than two widest windows (512 sources each): the recipe
// over every use case at 1 200 nodes, at worker counts 1/8, in memory
// (three windows of 512) and over a varint spill at shard width 100
// (windows of 128, cut mid-word by every other shard).
func TestCountMatchesNaiveOracleWideWindows(t *testing.T) {
	const n, seed = 1200, 1
	for _, uc := range usecases.Names {
		cfg, g := testutil.Graph(t, uc, n, seed)
		dir := filepath.Join(t.TempDir(), "csr")
		if err := graphgen.WriteCSRSpillFromGraphWith(dir, g, 100, graphgen.SpillCompressVarint); err != nil {
			t.Fatal(err)
		}
		spill, err := OpenSpillSource(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range recipeQueries(t, cfg, seed, 5) {
			want := naiveCount(t, g, q)
			for name, src := range map[string]Source{"memory": g, "varint/100": spill} {
				for _, workers := range []int{1, 8} {
					got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: workers})
					if err != nil || got != want {
						t.Errorf("(%s, query %d) %s workers=%d: count %d (%v), naive oracle %d\n%s",
							uc, qi, name, workers, got, err, want, q)
					}
				}
			}
		}
	}
}
