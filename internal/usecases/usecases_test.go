package usecases

import (
	"testing"

	"gmark/internal/graphgen"
	"gmark/internal/selectivity"
)

func TestByName(t *testing.T) {
	for _, name := range Names {
		cfg, err := ByName(name, 1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Nodes != 1000 {
			t.Errorf("%s nodes = %d", name, cfg.Nodes)
		}
	}
	if _, err := ByName("nope", 10); err == nil {
		t.Error("unknown use case should fail")
	}
	// Case-insensitive.
	if _, err := ByName("BIB", 10); err != nil {
		t.Error("ByName should be case-insensitive")
	}
}

func TestAllSchemasValidate(t *testing.T) {
	for _, name := range Names {
		cfg, _ := ByName(name, 10000)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBibMatchesFig2(t *testing.T) {
	cfg := Bib(10000)
	s := &cfg.Schema
	// Fig. 2(a): researcher 50%, paper 30%, journal 10%, conference
	// 10%, city fixed 100.
	if got := cfg.TypeCount("researcher"); got != 5000 {
		t.Errorf("researchers = %d", got)
	}
	if got := cfg.TypeCount("city"); got != 100 {
		t.Errorf("cities = %d", got)
	}
	if s.Types[s.TypeIndex("city")].Occurrence.Proportional {
		t.Error("city must be fixed")
	}
	// Fig. 2(c): 4 constraints with the stated distribution families.
	if len(s.Constraints) != 4 {
		t.Fatalf("constraints = %d", len(s.Constraints))
	}
	est, err := selectivity.NewEstimator(s)
	if err != nil {
		t.Fatal(err)
	}
	if est.NumTypes() != 5 {
		t.Error("type count")
	}
}

func TestAllSchemasProportionsSumToOne(t *testing.T) {
	for _, name := range Names {
		cfg, _ := ByName(name, 1000)
		sum := 0.0
		for _, tp := range cfg.Schema.Types {
			if tp.Occurrence.Proportional {
				sum += tp.Occurrence.Proportion
			}
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: type proportions sum to %g", name, sum)
		}
		psum := 0.0
		for _, p := range cfg.Schema.Predicates {
			if p.Occurrence.Proportional {
				psum += p.Occurrence.Proportion
			}
		}
		if psum < 0.99 || psum > 1.01 {
			t.Errorf("%s: predicate proportions sum to %g", name, psum)
		}
	}
}

func TestAllSchemasHaveFixedType(t *testing.T) {
	// Constant queries need at least one fixed-occurrence type.
	for _, name := range Names {
		cfg, _ := ByName(name, 1000)
		found := false
		for _, tp := range cfg.Schema.Types {
			if !tp.Occurrence.Proportional {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no fixed type (constant class unreachable)", name)
		}
	}
}

func TestAllSchemasGenerate(t *testing.T) {
	for _, name := range Names {
		cfg, _ := ByName(name, 2000)
		g, err := graphgen.Generate(cfg, graphgen.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s generated no edges", name)
		}
	}
}

// TestWDDensity checks the Section 6.2 observation: WD instances are
// 1-2 orders of magnitude denser than Bib instances of the same size.
func TestWDDensity(t *testing.T) {
	n := 2000
	bib, err := graphgen.Generate(Bib(n), graphgen.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := graphgen.Generate(WD(n), graphgen.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(wd.NumEdges()) / float64(bib.NumEdges())
	if ratio < 10 {
		t.Errorf("WD/Bib edge ratio = %.1f, want >= 10 (got %d vs %d edges)",
			ratio, wd.NumEdges(), bib.NumEdges())
	}
}

func TestWorkloadKinds(t *testing.T) {
	cfg := Bib(1000)
	for _, kind := range WorkloadKinds {
		wcfg, err := Workload(kind, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := wcfg.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		switch kind {
		case "len":
			if wcfg.Size.Conjuncts.Max != 1 || wcfg.Size.Disjuncts.Max != 1 {
				t.Errorf("len must have no conjuncts and no disjuncts: %+v", wcfg.Size)
			}
			if wcfg.RecursionProb != 0 {
				t.Error("len has no recursion")
			}
		case "dis":
			if wcfg.Size.Disjuncts.Max < 2 || wcfg.Size.Conjuncts.Max != 1 {
				t.Errorf("dis must vary disjuncts only: %+v", wcfg.Size)
			}
		case "con":
			if wcfg.Size.Conjuncts.Max < 2 {
				t.Errorf("con must vary conjuncts: %+v", wcfg.Size)
			}
		case "rec":
			if wcfg.RecursionProb == 0 {
				t.Error("rec must enable recursion")
			}
		}
	}
	if _, err := Workload("weird", cfg, 1); err == nil {
		t.Error("unknown kind should fail")
	}
}

// TestQuadraticChokepointPresent verifies each schema has at least one
// diamond- or cross-classified label path of length <= 2, so quadratic
// workloads are generatable.
func TestQuadraticChokepointPresent(t *testing.T) {
	for _, name := range Names {
		cfg, _ := ByName(name, 1000)
		est, err := selectivity.NewEstimator(&cfg.Schema)
		if err != nil {
			t.Fatal(err)
		}
		sg := selectivity.NewSchemaGraph(est)
		pc := sg.PathCounts(4)
		found := false
		for i := range sg.Nodes {
			if sg.Alpha(i) == 2 {
				// Reachable from some identity node within 4 steps?
				for tIdx := 0; tIdx < est.NumTypes(); tIdx++ {
					for l := 0; l <= 4; l++ {
						if pc.ToNode[i][l][sg.IdentityNode(tIdx)] > 0 {
							found = true
						}
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: no quadratic selectivity node reachable within 4 symbols", name)
		}
	}
}
