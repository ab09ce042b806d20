package querygen_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/translate"
	"gmark/internal/usecases"
	"gmark/internal/workload"
)

// pipelineConfig builds a workload configuration exercising both the
// class-constrained chain path and every plain shape.
func pipelineConfig(t *testing.T, name string, seed int64) querygen.Config {
	t.Helper()
	gcfg, err := usecases.ByName(name, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := usecases.Workload("con", gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.Count = 24
	wcfg.Shapes = []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	wcfg.Classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
	return wcfg
}

// workloadText renders a workload into one canonical byte blob.
func workloadText(qs []*query.Query) string {
	var b strings.Builder
	for i, q := range qs {
		fmt.Fprintf(&b, "-- %d shape=%s class=%v/%v relaxed=%v\n%s\n",
			i, q.Shape, q.HasClass, q.Class, q.Relaxed, q.String())
	}
	return b.String()
}

// TestParallelismInvarianceAllUseCases checks the hard determinism
// requirement of the workload pipeline: for a fixed seed the emitted
// workload is byte-identical at worker counts 1, 2 and 8, on every
// built-in use case.
func TestParallelismInvarianceAllUseCases(t *testing.T) {
	for _, name := range usecases.Names {
		wcfg := pipelineConfig(t, name, 21)
		gen, err := querygen.New(wcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ref string
		for _, par := range []int{1, 2, 8} {
			qs, err := gen.GenerateWith(querygen.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", name, par, err)
			}
			if len(qs) != wcfg.Count {
				t.Fatalf("%s parallelism %d: %d queries, want %d", name, par, len(qs), wcfg.Count)
			}
			got := workloadText(qs)
			if par == 1 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("%s: workload at parallelism %d differs from parallelism 1", name, par)
			}
		}
	}
}

// TestPipelineRepeatable pins that two independent generators with the
// same configuration emit the same workload (the pipeline consumes no
// shared mutable state).
func TestPipelineRepeatable(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 33)
	gen1, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs1, err := gen1.GenerateWith(querygen.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs2, err := gen2.GenerateWith(querygen.Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if workloadText(qs1) != workloadText(qs2) {
		t.Error("two generators with equal configuration disagree")
	}
}

// TestPipelineQueriesValid checks every pipeline-emitted query
// validates and respects the size bounds (relaxation aside).
func TestPipelineQueriesValid(t *testing.T) {
	wcfg := pipelineConfig(t, "lsn", 7)
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateWith(querygen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("query %d invalid: %v\n%s", i, err, q)
		}
		m := q.Measure()
		if m.Conjuncts.Max > wcfg.Size.Conjuncts.Max {
			t.Errorf("query %d: too many conjuncts: %v", i, m.Conjuncts)
		}
		if !q.Relaxed && (m.Length.Max > wcfg.Size.Length.Max || m.Length.Min < wcfg.Size.Length.Min) {
			t.Errorf("query %d: length %v outside %v without relaxation", i, m.Length, wcfg.Size.Length)
		}
	}
}

// TestProfileSinkMatchesAnalyze is the streaming-profile equivalence
// contract: the profile streamed out of the pipeline equals the
// profile of the materialized workload.
func TestProfileSinkMatchesAnalyze(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 42)
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	slice := &querygen.SliceSink{}
	prof := querygen.NewProfileSink()
	n, err := gen.Emit(querygen.Options{Parallelism: 4}, querygen.MultiSink(slice, prof))
	if err != nil {
		t.Fatal(err)
	}
	if n != wcfg.Count || len(slice.Queries) != wcfg.Count {
		t.Fatalf("emitted %d queries (slice %d), want %d", n, len(slice.Queries), wcfg.Count)
	}
	want := workload.Analyze(slice.Queries)
	got := prof.Profile()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("streamed profile differs from Analyze:\nstreamed: %+v\nanalyze:  %+v", got, want)
	}
}

// TestSyntaxDirSink checks the multi-syntax directory sink: one file
// per (query, syntax), each carrying a plausible, well-formed program
// of its language.
func TestSyntaxDirSink(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 9)
	wcfg.Count = 6
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sink, err := querygen.NewSyntaxDirSink(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(querygen.Options{Parallelism: 2}, sink); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != wcfg.Count {
		t.Fatalf("sink wrote %d queries, want %d", sink.Count(), wcfg.Count)
	}
	mustContain := map[translate.Syntax][]string{
		translate.SPARQL:     {"SELECT", "WHERE"},
		translate.OpenCypher: {"MATCH", "RETURN"},
		translate.PostgreSQL: {"SELECT", "FROM"},
		translate.Datalog:    {":-", "ans"},
	}
	balanced := map[byte]byte{'{': '}', '(': ')', '[': ']'}
	for i := 0; i < wcfg.Count; i++ {
		for _, syn := range translate.Syntaxes {
			path := filepath.Join(dir, fmt.Sprintf("query-%d.%s", i, syn))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing translation file: %v", err)
			}
			text := string(data)
			for _, token := range mustContain[syn] {
				if !strings.Contains(text, token) {
					t.Errorf("%s lacks %q:\n%s", path, token, text)
				}
			}
			depth := map[byte]int{}
			for j := 0; j < len(text); j++ {
				switch text[j] {
				case '{', '(', '[':
					depth[text[j]]++
				case '}', ')', ']':
					for open, close := range balanced {
						if text[j] == close {
							depth[open]--
						}
					}
				}
			}
			for open, d := range depth {
				if d != 0 {
					t.Errorf("%s: unbalanced %c", path, open)
				}
			}
		}
	}
}

// TestSyntaxDirSinkSubset checks syntax selection and rejection of
// unknown syntaxes.
func TestSyntaxDirSinkSubset(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 10)
	wcfg.Count = 2
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Leftover files from a previous run must be cleared — including
	// syntaxes not requested this time — so the directory always
	// describes exactly one workload.
	for _, stale := range []string{"query-99.sparql", "query-99.cypher"} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("# stale\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sink, err := querygen.NewSyntaxDirSink(dir, []translate.Syntax{translate.SPARQL})
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"query-99.sparql", "query-99.cypher"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Errorf("stale file %s survived sink construction", stale)
		}
	}
	if _, err := gen.Emit(querygen.Options{Parallelism: 1}, sink); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("wrote %d files, want 2 (sparql only)", len(entries))
	}
	if _, err := querygen.NewSyntaxDirSink(t.TempDir(), []translate.Syntax{"gremlin"}); err == nil {
		t.Error("unknown syntax accepted")
	}
}

// errorQuerySink fails on the k-th query, to exercise error
// propagation through the ordered flusher.
type errorQuerySink struct {
	after int
	seen  int
}

func (s *errorQuerySink) AddQuery(int, *query.Query) error {
	s.seen++
	if s.seen > s.after {
		return fmt.Errorf("sink full after %d queries", s.after)
	}
	return nil
}

func (s *errorQuerySink) Flush() error { return nil }

func TestEmitPropagatesSinkErrors(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 3)
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		if _, err := gen.Emit(querygen.Options{Parallelism: par}, &errorQuerySink{after: 5}); err == nil {
			t.Errorf("parallelism %d: sink error not propagated", par)
		}
	}
}

// TestEmitEmptyWorkload pins the zero-query edge case.
func TestEmitEmptyWorkload(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 1)
	wcfg.Count = 0
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Emit(querygen.Options{}, &querygen.SliceSink{})
	if err != nil || n != 0 {
		t.Fatalf("empty workload: n=%d err=%v", n, err)
	}
}

// TestSequentialAPIUnaffectedByPipeline checks that running the
// pipeline does not perturb the sequential GenerateWithClass stream
// (the pipeline must not consume the generator's seeded RNG).
func TestSequentialAPIUnaffectedByPipeline(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 17)

	gen1, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := gen1.GenerateWithClass(query.Linear)
	if err != nil {
		t.Fatal(err)
	}

	gen2, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen2.GenerateWith(querygen.Options{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	q2, err := gen2.GenerateWithClass(query.Linear)
	if err != nil {
		t.Fatal(err)
	}
	if q1.String() != q2.String() {
		t.Errorf("pipeline run perturbed the sequential stream:\n%s\nvs\n%s", q1, q2)
	}
}

// TestSyntaxDirSinkWriteErrorSurfaces: the batched writes must report
// file-system failures at Flush (or earlier, from the AddQuery that
// fills a batch) instead of swallowing them.
func TestSyntaxDirSinkWriteErrorSurfaces(t *testing.T) {
	wcfg := pipelineConfig(t, "bib", 12)
	wcfg.Count = 4
	gen, err := querygen.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "queries")
	sink, err := querygen.NewSyntaxDirSink(dir, []translate.Syntax{translate.SPARQL})
	if err != nil {
		t.Fatal(err)
	}
	// Yank the directory out from under the sink: every create fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(querygen.Options{Parallelism: 2}, sink); err == nil {
		t.Fatal("write failures were not surfaced")
	}
}
