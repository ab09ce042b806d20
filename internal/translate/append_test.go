package translate_test

import (
	"strings"
	"testing"

	"gmark/internal/datalog"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// TestSQLCycleDeterministic pins the operand order of a cycle's join
// conditions: the conjunct closing the cycle has both endpoints bound
// already, and binding them by ranging over a map literal used to emit
// its two equalities in either order.
func TestSQLCycleDeterministic(t *testing.T) {
	cycle := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
		},
	}}}
	first, err := translate.To(translate.PostgreSQL, cycle, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "\nWHERE c0_t.src = c1_t.src AND c0_t.trg = c1_t.trg;\n"; !strings.HasSuffix(first, want) {
		t.Errorf("cycle join conditions not in source-then-target order:\n%s", first)
	}
	for i := 0; i < 100; i++ {
		again, err := translate.To(translate.PostgreSQL, cycle, translate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("rendering %d differs:\n%s\n--- first:\n%s", i, again, first)
		}
	}
}

// TestToAllocs pins what a translation allocates: the returned string
// only, the text itself being built in a stack scratch.
func TestToAllocs(t *testing.T) {
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("(a.b+c-)")},
			{Src: 1, Dst: 2, Expr: regpath.MustParse("(a+b.c)*")},
		},
	}}}
	for _, syn := range translate.Syntaxes {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := translate.To(syn, q, translate.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: To allocates %v times per call, want 1", syn, allocs)
		}
		buf := make([]byte, 0, 4096)
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := translate.AppendTo(buf, syn, q, translate.Options{Count: true}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendTo into spare capacity allocates %v times per call, want 0", syn, allocs)
		}
	}
}

// TestAppendToErrorKeepsPrefix checks that a failed rendering hands
// the caller's bytes back untouched, for an error found before any
// byte is written and for one found mid-query.
func TestAppendToErrorKeepsPrefix(t *testing.T) {
	unlabeled := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 2},
		Body: []query.Conjunct{
			{Src: 0, Dst: 1, Expr: regpath.MustParse("a")},
			{Src: 1, Dst: 2, Expr: regpath.MustParse("(eps)*")},
		},
	}}}
	for _, tc := range []struct {
		name string
		syn  translate.Syntax
		q    *query.Query
	}{
		{"invalid query", translate.SPARQL, &query.Query{}},
		{"unknown syntax", "prolog", unlabeled},
		{"cypher star", translate.OpenCypher, unlabeled},
	} {
		out, err := translate.AppendTo([]byte("prefix"), tc.syn, tc.q, translate.Options{})
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if string(out) != "prefix" {
			t.Errorf("%s: prefix became %q", tc.name, out)
		}
	}
}

// FuzzAppendQuery drives the renderers with generator output over the
// fuzzed (use case, preset, shape, seed, size): in every syntax
// appending after a prefix must equal the prefix plus the standalone
// translation, with and without the count wrapper, and the Datalog
// text must parse back.
func FuzzAppendQuery(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(int64(7), uint8(1), uint8(3), uint8(2), uint8(1))
	f.Add(int64(-3), uint8(2), uint8(2), uint8(1), uint8(6))
	f.Add(int64(99), uint8(3), uint8(1), uint8(3), uint8(4))
	shapes := []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
	f.Fuzz(func(t *testing.T, seed int64, uc, kind, shape, size uint8) {
		gcfg, err := usecases.ByName(usecases.Names[int(uc)%len(usecases.Names)], 1000)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := usecases.Workload(usecases.WorkloadKinds[int(kind)%len(usecases.WorkloadKinds)], gcfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Count = 2
		cfg.Shapes = []query.Shape{shapes[int(shape)%len(shapes)]}
		cfg.Size.Conjuncts = query.Interval{Min: 1, Max: 1 + int(size)%8}
		cfg.Arity = query.Interval{Min: 0, Max: int(size) % 4}
		gen, err := querygen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := gen.GenerateWith(querygen.Options{Parallelism: 1})
		if err != nil {
			t.Skip(err) // the schema cannot instantiate this size
		}
		const prefix = "-- prefix\n"
		for _, q := range qs {
			for _, syn := range translate.Syntaxes {
				for _, opt := range []translate.Options{{}, {Count: true}} {
					text, err := translate.To(syn, q, opt)
					if err != nil {
						t.Fatalf("%s: %v\n%s", syn, err, q)
					}
					appended, err := translate.AppendTo([]byte(prefix), syn, q, opt)
					if err != nil {
						t.Fatalf("%s: %v\n%s", syn, err, q)
					}
					if string(appended) != prefix+text {
						t.Fatalf("%s: AppendTo after a prefix differs from To:\n%s\n--- To:\n%s", syn, appended, text)
					}
					if syn == translate.Datalog {
						if _, err := datalog.Parse(text); err != nil {
							t.Fatalf("datalog rendering does not parse back: %v\n%s", err, text)
						}
					}
				}
			}
		}
	})
}
