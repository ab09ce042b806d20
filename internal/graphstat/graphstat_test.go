package graphstat

import (
	"math"
	"math/rand"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/graphgen"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

func TestFitZipfExponentOnSyntheticData(t *testing.T) {
	// Draw from a known zipf and recover an exponent in the right
	// region; the MLE with kmin=1 is approximate but must be monotone.
	r := rand.New(rand.NewSource(1))
	draw := func(s float64) []int {
		d := dist.Distribution{Kind: dist.Zipfian, S: s, N: 1000}
		sampler, err := d.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 20000)
		for i := range out {
			out[i] = sampler.Sample(r)
		}
		return out
	}
	s15 := FitZipfExponent(draw(1.5))
	s25 := FitZipfExponent(draw(2.5))
	if s15 >= s25 {
		t.Errorf("exponent estimates not monotone: s(1.5)=%.2f >= s(2.5)=%.2f", s15, s25)
	}
	if s25 < 1.5 || s25 > 4 {
		t.Errorf("s(2.5) estimate = %.2f out of plausible range", s25)
	}
}

func TestFitZipfExponentDegenerate(t *testing.T) {
	if FitZipfExponent(nil) != 0 {
		t.Error("empty input")
	}
	if FitZipfExponent([]int{0, 0}) != 0 {
		t.Error("all-zero input")
	}
}

func TestCheckOnAllUseCases(t *testing.T) {
	for _, name := range usecases.Names {
		cfg, err := usecases.ByName(name, 4000)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		reports := Check(g, cfg, 0.25)
		if len(reports) == 0 {
			t.Fatalf("%s: no reports", name)
		}
		for _, r := range reports {
			if !r.OK {
				t.Errorf("%s: %s", name, r)
			}
		}
	}
}

func TestCheckDetectsShapeViolation(t *testing.T) {
	// A graph generated with uniform out-degrees, checked against a
	// deliberately wrong configuration claiming a smaller uniform max,
	// must fail.
	gen := &schema.GraphConfig{
		Nodes: 2000,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "a", Occurrence: schema.Proportion(0.5)},
				{Name: "b", Occurrence: schema.Proportion(0.5)},
			},
			Predicates: []schema.Predicate{{Name: "p", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "a", Target: "b", Predicate: "p",
					In: dist.Unspecified(), Out: dist.NewUniform(3, 5)},
			},
		},
	}
	g, err := graphgen.Generate(gen, graphgen.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lying := *gen
	lying.Schema.Constraints = []schema.EdgeConstraint{
		{Source: "a", Target: "b", Predicate: "p",
			In: dist.Unspecified(), Out: dist.NewUniform(0, 2)},
	}
	detected := false
	for _, r := range Check(g, &lying, 0.1) {
		detected = detected || !r.OK
	}
	if !detected {
		t.Error("wrong uniform bound should be detected")
	}
}

func TestCheckGaussianMean(t *testing.T) {
	cfg := &schema.GraphConfig{
		Nodes: 4000,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "a", Occurrence: schema.Proportion(0.5)},
				{Name: "b", Occurrence: schema.Proportion(0.5)},
			},
			Predicates: []schema.Predicate{{Name: "p", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "a", Target: "b", Predicate: "p",
					In: dist.NewGaussian(4, 1), Out: dist.NewGaussian(4, 1)},
			},
		},
	}
	g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reports := Check(g, cfg, 0.15)
	for _, r := range reports {
		if !r.OK {
			t.Errorf("%s", r)
		}
		if math.Abs(r.ObservedMean-4) > 0.5 {
			t.Errorf("observed mean %.2f far from mu=4", r.ObservedMean)
		}
	}
}

func TestCheckZipfHeavyTail(t *testing.T) {
	cfg := &schema.GraphConfig{
		Nodes: 4000,
		Schema: schema.Schema{
			Types:      []schema.NodeType{{Name: "u", Occurrence: schema.Proportion(1)}},
			Predicates: []schema.Predicate{{Name: "knows", Occurrence: schema.Proportion(1)}},
			Constraints: []schema.EdgeConstraint{
				{Source: "u", Target: "u", Predicate: "knows",
					In: dist.NewZipfian(1.8), Out: dist.NewZipfian(1.8)},
			},
		},
	}
	g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Check(g, cfg, 0.15) {
		if !r.OK {
			t.Errorf("%s", r)
		}
		if r.HeavyTail < 3 {
			t.Errorf("zipf side tail ratio %.1f too light", r.HeavyTail)
		}
	}
}
