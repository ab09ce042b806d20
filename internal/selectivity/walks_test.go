package selectivity_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gmark/internal/query"
	"gmark/internal/selectivity"
	"gmark/internal/usecases"
)

// maxRelaxation mirrors querygen's relaxation ladder: the widest length
// window it requests is the configured one widened by this many steps.
const maxRelaxation = 3

var classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}

// perCallWalk is the class walk with its table built for this one call:
// Walk from every identity node to the class.
func perCallWalk(est *selectivity.Estimator, sg *selectivity.SchemaGraph, gsel *selectivity.SelectivityGraph, rng *rand.Rand, steps int, class query.SelectivityClass) ([]int, bool) {
	var starts []int
	for t := 0; t < est.NumTypes(); t++ {
		starts = append(starts, sg.IdentityNode(t))
	}
	return gsel.Walk(rng, steps, starts, func(v int) bool { return sg.ClassOf(v) == class })
}

// TestClassWalksMatchPerCallWalk draws every class walk a generator
// can ask for — built-in use case x workload kind x length window up to
// the widest ladder window x class x steps up to the kind's maximum
// conjunct count, and one past it (the fallback) — from the table built
// once and from the per-call Walk on the same seed: the walk, ok and
// the next draw of the RNG must be identical.
func TestClassWalksMatchPerCallWalk(t *testing.T) {
	for _, uc := range usecases.Names {
		gcfg, err := usecases.ByName(uc, 1000)
		if err != nil {
			t.Fatal(err)
		}
		est, err := selectivity.NewEstimator(&gcfg.Schema)
		if err != nil {
			t.Fatal(err)
		}
		sg := selectivity.NewSchemaGraph(est)
		for _, kind := range usecases.WorkloadKinds {
			cfg, err := usecases.Workload(kind, gcfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			maxSteps := cfg.Size.Conjuncts.Max
			lmax := cfg.Size.Length.Max + maxRelaxation
			drawn := 0
			for lo := 0; lo <= lmax; lo++ {
				for hi := max(lo, 1); hi <= lmax; hi++ {
					gsel := sg.Selectivity(lo, hi)
					for _, class := range classes {
						cw := gsel.ClassWalks(class, maxSteps)
						for steps := 0; steps <= maxSteps+1; steps++ {
							for seed := int64(0); seed < 4; seed++ {
								a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
								got, gotOK := cw.Walk(a, steps)
								want, wantOK := perCallWalk(est, sg, gsel, b, steps, class)
								if gotOK != wantOK || !reflect.DeepEqual(got, want) || a.Int63() != b.Int63() {
									t.Fatalf("%s.%s window [%d,%d] %s steps %d seed %d: table walk (%v, %v), per-call (%v, %v)",
										uc, kind, lo, hi, class, steps, seed, got, gotOK, want, wantOK)
								}
								if gotOK {
									drawn++
								}
							}
						}
					}
				}
			}
			if drawn == 0 {
				t.Errorf("%s.%s: no class walk exists in any window", uc, kind)
			}
		}
	}
}

// TestClassWalksConcurrentReaders shares one table among goroutines,
// each with its own RNG, and checks every walk against a sequential
// draw on the same seed. The race step runs it under the detector.
func TestClassWalksConcurrentReaders(t *testing.T) {
	gcfg, err := usecases.ByName("lsn", 1000)
	if err != nil {
		t.Fatal(err)
	}
	est, err := selectivity.NewEstimator(&gcfg.Schema)
	if err != nil {
		t.Fatal(err)
	}
	const maxSteps, draws = 4, 200
	gsel := selectivity.NewSchemaGraph(est).Selectivity(1, 4)
	var tables []*selectivity.ClassWalks
	for _, class := range classes {
		tables = append(tables, gsel.ClassWalks(class, maxSteps))
	}
	walks := func(seed int64) [][]int {
		rng := rand.New(rand.NewSource(seed))
		var out [][]int
		for i := 0; i < draws; i++ {
			walk, _ := tables[i%len(tables)].Walk(rng, i%(maxSteps+1))
			out = append(out, walk)
		}
		return out
	}
	const readers = 8
	got := make([][][]int, readers)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r] = walks(int64(r))
		}()
	}
	wg.Wait()
	for r := range got {
		if want := walks(int64(r)); !reflect.DeepEqual(got[r], want) {
			t.Errorf("reader %d: concurrent walks differ from a sequential draw", r)
		}
	}
}
