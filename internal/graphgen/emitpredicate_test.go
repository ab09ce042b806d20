package graphgen

import (
	"bytes"
	"sync"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/schema"
)

// edgeListSink records (src, pred, dst) triples in delivery order.
type edgeListSink struct {
	srcs  []graph.NodeID
	preds []graph.PredID
	dsts  []graph.NodeID
}

func (s *edgeListSink) AddEdgeBatch(pred graph.PredID, srcs, dsts []graph.NodeID) error {
	if err := checkBatch(srcs, dsts); err != nil {
		return err
	}
	s.srcs = append(s.srcs, srcs...)
	for range srcs {
		s.preds = append(s.preds, pred)
	}
	s.dsts = append(s.dsts, dsts...)
	return nil
}

func (s *edgeListSink) Flush() error { return nil }

// twoPredConfig extends the two-type fixture with a second predicate
// so predicate filtering has something to filter.
func twoPredConfig(n int) *schema.GraphConfig {
	return &schema.GraphConfig{
		Nodes: n,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "src", Occurrence: schema.Proportion(0.5)},
				{Name: "trg", Occurrence: schema.Proportion(0.5)},
			},
			Predicates: []schema.Predicate{
				{Name: "p", Occurrence: schema.Proportion(0.7)},
				{Name: "q", Occurrence: schema.Proportion(0.3)},
			},
			Constraints: []schema.EdgeConstraint{
				{Source: "src", Target: "trg", Predicate: "p",
					In: dist.NewGaussian(3, 1), Out: dist.NewZipfian(2.5)},
				{Source: "trg", Target: "src", Predicate: "q",
					In: dist.NewGaussian(2, 1), Out: dist.NewGaussian(2, 1)},
				{Source: "src", Target: "src", Predicate: "p",
					In: dist.NewGaussian(1, 1), Out: dist.NewGaussian(1, 1)},
			},
		},
	}
}

// TestEmitPredicateMatchesFullRun pins the property the slice server
// is built on: EmitPredicate delivers exactly the full run's edges of
// that predicate, in the full run's relative order, for every
// predicate — so per-predicate slices reassemble the whole instance.
func TestEmitPredicateMatchesFullRun(t *testing.T) {
	cfg := twoPredConfig(600)
	opt := Options{Seed: 23, ShardEdges: 128} // force multi-shard constraints
	full := &edgeListSink{}
	if _, err := Emit(cfg, opt, full); err != nil {
		t.Fatal(err)
	}
	if len(full.srcs) == 0 {
		t.Fatal("fixture generated no edges")
	}

	seen := 0
	for pi, pred := range []string{"p", "q"} {
		part := &edgeListSink{}
		n, err := EmitPredicate(cfg, opt, pred, part)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(part.srcs) {
			t.Fatalf("%s: EmitPredicate reported %d edges, delivered %d", pred, n, len(part.srcs))
		}
		var wantS, wantD []graph.NodeID
		for i := range full.srcs {
			if full.preds[i] == graph.PredID(pi) {
				wantS = append(wantS, full.srcs[i])
				wantD = append(wantD, full.dsts[i])
			}
		}
		if len(part.srcs) != len(wantS) {
			t.Fatalf("%s: %d edges, full run has %d", pred, len(part.srcs), len(wantS))
		}
		for i := range wantS {
			if part.srcs[i] != wantS[i] || part.dsts[i] != wantD[i] {
				t.Fatalf("%s: edge %d is (%d, %d), full run has (%d, %d)",
					pred, i, part.srcs[i], part.dsts[i], wantS[i], wantD[i])
			}
			if part.preds[i] != graph.PredID(pi) {
				t.Fatalf("%s: edge %d delivered with predicate %d", pred, i, part.preds[i])
			}
		}
		seen += len(part.srcs)
	}
	if seen != len(full.srcs) {
		t.Fatalf("per-predicate runs cover %d edges, full run %d", seen, len(full.srcs))
	}

	// Unknown predicates are an error, not an empty slice.
	if _, err := EmitPredicate(cfg, opt, "nope", &edgeListSink{}); err == nil {
		t.Fatal("EmitPredicate accepted an unknown predicate")
	}
}

// TestEmitPredicateParallelismInvariant re-runs one predicate at
// several worker counts; the slice server inherits byte determinism
// from this invariance.
func TestEmitPredicateParallelismInvariant(t *testing.T) {
	cfg := twoPredConfig(600)
	var base *edgeListSink
	for _, par := range []int{1, 2, 8} {
		opt := Options{Seed: 23, ShardEdges: 128, Parallelism: par}
		got := &edgeListSink{}
		if _, err := EmitPredicate(cfg, opt, "p", got); err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		if len(got.srcs) != len(base.srcs) {
			t.Fatalf("parallelism %d: %d edges, want %d", par, len(got.srcs), len(base.srcs))
		}
		for i := range base.srcs {
			if got.srcs[i] != base.srcs[i] || got.dsts[i] != base.dsts[i] {
				t.Fatalf("parallelism %d: edge %d differs", par, i)
			}
		}
	}
}

// TestEmitPredicateConcurrent runs EmitPredicate from 8 goroutines over
// one configuration at once, as gmark serve does on concurrent slice
// misses. Every shard of every run takes its scratch from one shared
// pool; each result must equal the sequential one. The CI race step
// runs it under the detector.
func TestEmitPredicateConcurrent(t *testing.T) {
	cfg := twoPredConfig(2000)
	preds := []string{"p", "q"}
	emitText := func(pred string, par int) ([]byte, error) {
		var b bytes.Buffer
		ws, err := NewWriterSink(&b, cfg)
		if err != nil {
			return nil, err
		}
		_, err = EmitPredicate(cfg, Options{Seed: 31, ShardEdges: 128, Parallelism: par}, pred, ws)
		return b.Bytes(), err
	}
	want := make(map[string][]byte, len(preds))
	for _, pred := range preds {
		b, err := emitText(pred, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[pred] = b
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				pred, par := preds[(w+i)%len(preds)], 1+(w+i)%2
				got, err := emitText(pred, par)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[pred]) {
					t.Errorf("goroutine %d, run %d: %s at parallelism %d differs from the sequential run", w, i, pred, par)
					return
				}
			}
		}()
	}
	wg.Wait()
}
