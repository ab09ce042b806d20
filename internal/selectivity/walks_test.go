package selectivity_test

import (
	"math/rand"
	"reflect"
	"slices"
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

// splitMix is a rand.Source that costs nothing to seed: checkWindow
// seeds two for every walk it draws.
type splitMix uint64

func (s *splitMix) Seed(seed int64) { *s = splitMix(seed) }
func (s *splitMix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitMix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func newSplitMix(seed int64) *rand.Rand {
	s := splitMix(seed)
	return rand.New(&s)
}

// checkWindow checks one length window of a schema graph against the
// breadth-first reference: G_sel read off pc must equal
// selectivity.BruteForceGsel, and for every class and every walk length
// up to maxSteps, a class walk must exist exactly when the reference
// has one, be a G_sel walk from an identity node ending in its class,
// and be drawn alike, with the same RNG consumption, from a table one
// row longer (a table to L+1 starts with the table to L). It returns
// the reference G_sel and how many walks it drew.
func checkWindow(t testing.TB, sg *selectivity.SchemaGraph, pc *selectivity.PathCounts, numTypes, lmin, lmax, maxSteps int) (want [][]int, drawn int) {
	t.Helper()
	gsel := pc.Selectivity(lmin, lmax)
	want = selectivity.BruteForceGsel(sg, lmin, lmax)
	if !reflect.DeepEqual(gsel.Adj, want) {
		t.Fatalf("G_sel [%d,%d] from the counts = %v, breadth-first = %v", lmin, lmax, gsel.Adj, want)
	}
	for _, class := range classes {
		cw, longer := gsel.ClassWalks(class, maxSteps), gsel.ClassWalks(class, maxSteps+1)
		// reach holds the nodes a walk of steps edges from an identity
		// node can end at.
		reach := make([]bool, len(sg.Nodes))
		for typ := 0; typ < numTypes; typ++ {
			reach[sg.IdentityNode(typ)] = true
		}
		for steps := 0; steps <= maxSteps; steps++ {
			exists := false
			for v, r := range reach {
				exists = exists || (r && sg.ClassOf(v) == class)
			}
			for seed := int64(0); seed < 3; seed++ {
				a, b := newSplitMix(seed), newSplitMix(seed)
				walk, ok := cw.Walk(a, steps)
				if again, againOK := longer.Walk(b, steps); againOK != ok || !reflect.DeepEqual(again, walk) || a.Int63() != b.Int63() {
					t.Fatalf("[%d,%d] %s steps %d seed %d: table to %d drew (%v, %v), table to %d (%v, %v)",
						lmin, lmax, class, steps, seed, maxSteps, walk, ok, maxSteps+1, again, againOK)
				}
				if ok != exists {
					t.Fatalf("[%d,%d] %s steps %d: walk found %v, reference says %v", lmin, lmax, class, steps, ok, exists)
				}
				if !ok {
					continue
				}
				drawn++
				if len(walk) != steps+1 || walk[0] != sg.IdentityNode(sg.Nodes[walk[0]].Type) || sg.ClassOf(walk[steps]) != class {
					t.Fatalf("[%d,%d] %s steps %d: walk %v is not an identity-to-class walk", lmin, lmax, class, steps, walk)
				}
				for i := 0; i < steps; i++ {
					if !slices.Contains(want[walk[i]], walk[i+1]) {
						t.Fatalf("[%d,%d] %s: walk %v steps %d -> %d outside G_sel", lmin, lmax, class, walk, walk[i], walk[i+1])
					}
				}
			}
			next := make([]bool, len(reach))
			for v, r := range reach {
				for _, w := range want[v] {
					next[w] = next[w] || r
				}
			}
			reach = next
		}
	}
	return want, drawn
}

// TestClassWalksMatchBruteForce checks every G_sel and every class walk
// a generator can ask for — built-in use case x workload kind x length
// window up to the widest ladder window x class x steps up to the
// kind's maximum conjunct count — against the breadth-first reference.
func TestClassWalksMatchBruteForce(t *testing.T) {
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
			lmax := cfg.Size.Length.Max + maxRelaxation
			pc := sg.PathCounts(lmax)
			drawn := 0
			for lo := 0; lo <= lmax; lo++ {
				for hi := max(lo, 1); hi <= lmax; hi++ {
					_, n := checkWindow(t, sg, pc, est.NumTypes(), lo, hi, cfg.Size.Conjuncts.Max)
					drawn += n
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
	gsel := selectivity.NewSchemaGraph(est).PathCounts(4).Selectivity(1, 4)
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
