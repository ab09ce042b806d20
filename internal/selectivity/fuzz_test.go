package selectivity_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gmark/internal/dist"
	"gmark/internal/regpath"
	"gmark/internal/schema"
	"gmark/internal/selectivity"
)

// fuzzMaxLen is the widest length window FuzzSchemaGraphWalks checks.
const fuzzMaxLen = 6

// fuzzSchema decodes a small schema from data: 2–5 types, each fixed
// or proportional; 1–4 predicates; up to 8 constraints, each side
// unspecified, uniform (the "0" macro included), Gaussian or Zipfian.
// Bytes past the end of data read as zero.
func fuzzSchema(data []byte) *schema.Schema {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	s := &schema.Schema{}
	for t := 2 + next()%4; t > 0; t-- {
		occ := schema.Proportion(0.25)
		if next()%2 == 0 {
			occ = schema.Fixed(1 + next()%3)
		}
		s.Types = append(s.Types, schema.NodeType{Name: fmt.Sprintf("T%d", len(s.Types)), Occurrence: occ})
	}
	for p := 1 + next()%4; p > 0; p-- {
		s.Predicates = append(s.Predicates, schema.Predicate{Name: fmt.Sprintf("p%d", len(s.Predicates)), Occurrence: schema.Proportion(0.5)})
	}
	side := func() dist.Distribution {
		switch next() % 4 {
		case 0:
			return dist.Unspecified()
		case 1:
			return dist.NewUniform(0, next()%3)
		case 2:
			return dist.NewGaussian(2, 1)
		default:
			return dist.NewZipfian(2)
		}
	}
	seen := make(map[[3]string]bool)
	for c := next() % 9; c > 0; c-- {
		ec := schema.EdgeConstraint{
			Source:    s.Types[next()%len(s.Types)].Name,
			Target:    s.Types[next()%len(s.Types)].Name,
			Predicate: s.Predicates[next()%len(s.Predicates)].Name,
			In:        side(),
			Out:       side(),
		}
		if !ec.In.Specified() && !ec.Out.Specified() {
			ec.Out = dist.NewUniform(1, 2)
		}
		key := [3]string{ec.Source, ec.Target, ec.Predicate}
		if !seen[key] {
			seen[key] = true
			s.Constraints = append(s.Constraints, ec)
		}
	}
	return s
}

// follow returns the G_S nodes a label path from `from` can end at.
func follow(sg *selectivity.SchemaGraph, from int, p regpath.Path) []bool {
	cur := make([]bool, len(sg.Nodes))
	cur[from] = true
	for _, sym := range p {
		next := make([]bool, len(cur))
		for v, r := range cur {
			for _, e := range sg.Out[v] {
				if r && e.Sym == sym {
					next[e.To] = true
				}
			}
		}
		cur = next
	}
	return cur
}

// FuzzSchemaGraphWalks builds G_S for a fuzzed schema and checks, for
// every length window up to fuzzMaxLen, that G_sel from the path counts
// equals the breadth-first reference and every class walk is a G_sel
// walk ending in its class (checkWindow), and that every sampled path
// exists exactly when the reference has one, has a length in the
// window, and can end at its target.
func FuzzSchemaGraphWalks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 1, 1, 1, 4, 0, 0, 0, 3, 2, 0, 1, 1, 1, 0, 2, 1, 0, 1, 1, 3})
	f.Add([]byte{3, 0, 2, 1, 0, 0, 1, 3, 8, 0, 1, 2, 3, 3, 1, 2, 0, 1, 1, 2, 2, 1, 0, 3, 4, 1, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := selectivity.NewEstimator(fuzzSchema(data))
		if err != nil {
			t.Fatalf("decoded schema refused: %v", err)
		}
		sg := selectivity.NewSchemaGraph(est)
		pc := sg.PathCounts(fuzzMaxLen)
		rng := rand.New(rand.NewSource(int64(len(data))))
		n := len(sg.Nodes)
		for lmin := 0; lmin <= fuzzMaxLen; lmin++ {
			for lmax := max(lmin, 1); lmax <= fuzzMaxLen; lmax++ {
				gsel, _ := checkWindow(t, sg, pc, est.NumTypes(), lmin, lmax, 3)
				for from := 0; from < n; from++ {
					// reaches[v]: some path from `from` of a length in
					// the window ends at v.
					reaches := make([]bool, n)
					for _, v := range gsel[from] {
						reaches[v] = true
					}
					check := func(what string, p regpath.Path, end int, ok, want bool, target func(int) bool) {
						t.Helper()
						if ok != want {
							t.Fatalf("[%d,%d] from %d to %s: sampled %v, reference says %v", lmin, lmax, from, what, ok, want)
						}
						if !ok {
							return
						}
						ends := follow(sg, from, p)
						if len(p) < lmin || len(p) > lmax || !ends[end] || !target(end) {
							t.Fatalf("[%d,%d] from %d to %s: path %v ending at %d does not get there", lmin, lmax, from, what, p, end)
						}
					}
					target := rng.Intn(n)
					p, ok := pc.SampleToNode(rng, from, target, lmin, lmax)
					check(fmt.Sprintf("node %d", target), p, target, ok, reaches[target], func(v int) bool { return v == target })
					typ := rng.Intn(est.NumTypes())
					anyOfType := false
					for v, r := range reaches {
						anyOfType = anyOfType || (r && sg.Nodes[v].Type == typ)
					}
					p, end, ok := pc.SampleToType(rng, from, typ, lmin, lmax)
					check(fmt.Sprintf("type %d", typ), p, end, ok, anyOfType, func(v int) bool { return sg.Nodes[v].Type == typ })
					p, end, ok = pc.SampleToAny(rng, from, lmin, lmax)
					check("any node", p, end, ok, len(gsel[from]) > 0, func(int) bool { return true })
				}
			}
		}
	})
}
