package querygen_test

import (
	"slices"
	"testing"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/usecases"
)

// fuzzInterval decodes a closed interval from two fuzzed bytes:
// Min in [base, base+n), Max in [Min, Min+n).
func fuzzInterval(lo, hi uint8, base, n int) query.Interval {
	min := base + int(lo)%n
	return query.Interval{Min: min, Max: min + int(hi)%n}
}

// FuzzWorkloadConfig generates a 12-query workload from a fuzzed
// configuration — use case, rule/conjunct/disjunct/length/arity
// intervals, shapes, a class subset, p_r in {0, 0.5, 1} and a seed —
// and checks that Emit delivers every query, valid and of a configured
// shape; that the estimator gives every classed, non-recursive,
// non-relaxed query its declared class; and that one and three workers
// give the same workload.
func FuzzWorkloadConfig(f *testing.F) {
	// The con preset on bib with two rules of arity 3: rules of one
	// query used to get different head sizes and fail Validate.
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(3), uint8(0), uint8(2), uint8(1), uint8(2), uint8(3), uint8(0),
		uint8(0b1111), uint8(0), uint8(0), int64(7))
	// The len preset on bib with Length {0,3}, constant chains only:
	// class steps used to draw eps and lose the walk's type.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(2), uint8(0),
		uint8(0b0001), uint8(0b001), uint8(0), int64(7))
	// The rec preset with every shape and class.
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), uint8(1), uint8(1), uint8(2), uint8(2), uint8(0),
		uint8(0b1111), uint8(0b111), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, uc, rLo, rHi, cLo, cHi, dLo, dHi, lLo, lHi, aLo, aHi, shapeMask, classMask, pr uint8, seed int64) {
		gcfg, err := usecases.ByName(usecases.Names[int(uc)%len(usecases.Names)], 2000)
		if err != nil {
			t.Fatal(err)
		}
		cfg := querygen.Config{
			Graph:         gcfg,
			Count:         12,
			Arity:         fuzzInterval(aLo, aHi, 0, 4),
			RecursionProb: []float64{0, 0.5, 1}[pr%3],
			Size: query.Size{
				Rules:     fuzzInterval(rLo, rHi, 1, 2),
				Conjuncts: fuzzInterval(cLo, cHi, 1, 4),
				Disjuncts: fuzzInterval(dLo, dHi, 1, 4),
				Length:    fuzzInterval(lLo, lHi, 0, 4),
			},
			Seed: seed,
		}
		cfg.Size.Length.Max = max(cfg.Size.Length.Max, 1)
		for i, s := range []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain} {
			if shapeMask&(1<<i) != 0 {
				cfg.Shapes = append(cfg.Shapes, s)
			}
		}
		for i, c := range []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic} {
			if classMask&(1<<i) != 0 {
				cfg.Classes = append(cfg.Classes, c)
			}
		}
		gen, err := querygen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := gen.GenerateWith(querygen.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%+v: %v", cfg.Size, err)
		}
		if len(qs) != cfg.Count {
			t.Fatalf("%d queries delivered, %d configured", len(qs), cfg.Count)
		}
		shapes := cfg.Shapes
		if len(shapes) == 0 {
			shapes = []query.Shape{query.Chain}
		}
		for i, q := range qs {
			if err := q.Validate(); err != nil {
				t.Fatalf("query %d invalid: %v\n%s", i, err, q)
			}
			if !slices.Contains(shapes, q.Shape) {
				t.Fatalf("query %d has shape %s, configured %v", i, q.Shape, shapes)
			}
			if !q.HasClass || q.Relaxed || q.HasRecursion() {
				continue
			}
			got, ok, err := gen.Estimator().EstimateClass(q)
			if err != nil || !ok || got != q.Class {
				t.Fatalf("query %d declared %v, estimator says %v (ok %v, err %v)\n%s", i, q.Class, got, ok, err, q)
			}
		}
		par, err := gen.GenerateWith(querygen.Options{Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := workloadText(qs), workloadText(par); a != b {
			t.Fatalf("Parallelism 1 and 3 differ:\n%s\nvs\n%s", a, b)
		}
	})
}
