package querygen_test

import (
	"runtime"
	"testing"

	"gmark/internal/querygen"
	"gmark/internal/translate"
)

// TestEmitWindowMatchesFullRun pins the window contract the slice
// server depends on: every query of EmitWindow [from, to) is identical
// to the query a full run delivers at the same index — including a
// window of one.
func TestEmitWindowMatchesFullRun(t *testing.T) {
	cfg := bibConfig(t, 31)
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != cfg.Count {
		t.Fatalf("full run produced %d queries, want %d", len(full), cfg.Count)
	}

	windows := [][2]int{{0, cfg.Count}, {2, 7}, {cfg.Count - 1, cfg.Count}, {4, 4}}
	for _, w := range windows {
		from, to := w[0], w[1]
		sink := &querygen.SliceSink{}
		n, err := gen.EmitWindow(querygen.Options{}, from, to, sink)
		if err != nil {
			t.Fatalf("window [%d, %d): %v", from, to, err)
		}
		if n != to-from || len(sink.Queries) != to-from {
			t.Fatalf("window [%d, %d) delivered %d queries", from, to, len(sink.Queries))
		}
		for i, q := range sink.Queries {
			idx := from + i
			want, err := querygen.QueryFileContent(idx, full[idx], translate.SPARQL)
			if err != nil {
				t.Fatal(err)
			}
			got, err := querygen.QueryFileContent(idx, q, translate.SPARQL)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("window [%d, %d): query %d differs from the full run:\n got %s\nwant %s",
					from, to, idx, got, want)
			}
		}
	}
}

// TestEmitWindowRejectsOutOfBounds checks window validation (after
// flushing, like every pipeline error path).
func TestEmitWindowRejectsOutOfBounds(t *testing.T) {
	cfg := bibConfig(t, 31)
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{-1, 2}, {0, cfg.Count + 1}, {5, 3}} {
		if _, err := gen.EmitWindow(querygen.Options{}, w[0], w[1], &querygen.SliceSink{}); err == nil {
			t.Errorf("window [%d, %d) accepted", w[0], w[1])
		}
	}
}

// TestEmitWindowAllocatesOnlyTheWindow pins that a window's cost in
// memory is its own queries, not the workload's: a 50-query window of
// a 1 000 000-query workload (the slice server's default cap) once
// allocated one planned unit per query of the workload, 40 MB. The
// window at the end still draws the whole plan but keeps 50 units.
func TestEmitWindowAllocatesOnlyTheWindow(t *testing.T) {
	cfg := bibConfig(t, 31)
	cfg.Count = 1_000_000
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const window = 50
	const maxBytes = 1 << 20
	for _, from := range []int{0, cfg.Count - window} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sink := &querygen.SliceSink{}
		if _, err := gen.EmitWindow(querygen.Options{Parallelism: 1}, from, from+window, sink); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
			t.Errorf("window [%d, %d) of %d queries allocated %d bytes, want at most %d",
				from, from+window, cfg.Count, got, maxBytes)
		}
		if len(sink.Queries) != window {
			t.Fatalf("window [%d, %d) delivered %d queries", from, from+window, len(sink.Queries))
		}
	}
}
