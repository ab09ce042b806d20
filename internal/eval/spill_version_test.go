package eval

import (
	"fmt"
	"testing"

	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// spillVersionFixtures builds one spill per on-disk generation readers
// accept, of the same instance: v2 (raw shards + bitmaps) and v3 in
// both codecs.
func spillVersionFixtures(t *testing.T, uc string, n, shardNodes int) (want map[string]int64, dirs map[string]string) {
	t.Helper()
	g, v2 := buildSpillComp(t, uc, n, shardNodes, graphgen.SpillCompressNone)
	_, v3 := buildSpillComp(t, uc, n, shardNodes, graphgen.SpillCompressVarint)
	_, v3z := buildSpillComp(t, uc, n, shardNodes, graphgen.SpillCompressDeflate)
	dirs = map[string]string{"v2": v2, "v3-varint": v3, "v3-deflate": v3z}

	cfg := testutil.Config(t, uc, n)
	pred := cfg.Schema.Predicates[0].Name
	want = make(map[string]int64)
	for _, expr := range []string{pred, pred + "-." + pred, "(" + pred + ")*"} {
		q := chainQuery(t, expr)
		got, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s in-memory %s: %v", uc, expr, err)
		}
		want[expr] = got
	}
	return want, dirs
}

func chainQuery(t *testing.T, expr string) *query.Query {
	t.Helper()
	e, err := regpath.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: e}},
	}}}
}

// TestSpillVersionsCountIdentical: the same (seed, shard width)
// instance spilled as v2 and v3 (both codecs) evaluates to
// pinned-identical counts for every built-in use
// case, at shard widths 1, 7, and the default. Run with -race in CI.
func TestSpillVersionsCountIdentical(t *testing.T) {
	for _, uc := range usecases.Names {
		for _, width := range []int{1, 7, 0} {
			size := 150
			t.Run(fmt.Sprintf("%s/width=%d", uc, width), func(t *testing.T) {
				t.Parallel()
				want, dirs := spillVersionFixtures(t, uc, size, width)
				for ver, dir := range dirs {
					src, err := OpenSpillSource(dir, 0)
					if err != nil {
						t.Fatalf("%s: %v", ver, err)
					}
					for expr, wantN := range want {
						got, err := CountWith(src, chainQuery(t, expr), Budget{}, EvalOptions{Workers: 2})
						if err != nil {
							t.Fatalf("%s %s: %v", ver, expr, err)
						}
						if got != wantN {
							t.Errorf("%s count(%s) = %d, in-memory = %d", ver, expr, got, wantN)
						}
					}
				}
			})
		}
	}
}

// TestSpillVersionsDiskBytes: the disk-traffic stat must track what
// the encodings actually store — a v3 spill's cold loads read fewer
// bytes from disk than the decoded shards it holds resident, while raw
// v2 reads at least the decoded size (header bytes on top).
func TestSpillVersionsDiskBytes(t *testing.T) {
	want, dirs := spillVersionFixtures(t, "bib", 400, 25)
	expr := "authors-.authors"
	for _, ver := range []string{"v2", "v3-varint", "v3-deflate"} {
		src, err := OpenSpillSource(dirs[ver], 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CountWith(src, chainQuery(t, expr), Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != want[expr] {
			t.Fatalf("%s count %d != %d", ver, got, want[expr])
		}
		st := src.CacheStats()
		if st.Loads == 0 || st.DiskBytesLoaded == 0 {
			t.Fatalf("%s: no loads recorded (%+v)", ver, st)
		}
		if ver == "v2" && st.DiskBytesLoaded < st.BytesUsed {
			t.Errorf("v2 read %d disk bytes for %d resident; raw shards cannot shrink", st.DiskBytesLoaded, st.BytesUsed)
		}
		if ver != "v2" && st.DiskBytesLoaded >= st.BytesUsed {
			t.Errorf("%s read %d disk bytes for %d resident; compressed shards should read less", ver, st.DiskBytesLoaded, st.BytesUsed)
		}
	}
}
