// Package workload analyzes generated query workloads: size and shape
// histograms, selectivity-class mix, predicate coverage and diversity
// metrics. It quantifies the paper's workload-centric design goal —
// "the control of diversity of both graph schemas and query workloads"
// (Section 1) — and is used by the coverage tests and the CLI.
package workload

import (
	"fmt"
	"io"
	"math"
	"sort"

	"gmark/internal/query"
)

// Profile summarizes a workload.
type Profile struct {
	Count    int
	Distinct int // distinct queries by normal form

	ByShape map[query.Shape]int
	// ByClass counts queries per declared selectivity class;
	// Unclassed counts queries without a class (plain generation or
	// dropped constraints).
	ByClass   map[query.SelectivityClass]int
	Unclassed int

	Recursive int
	Relaxed   int

	ArityHist    map[int]int
	RuleHist     map[int]int
	ConjunctHist map[int]int
	DisjunctHist map[int]int
	LengthHist   map[int]int

	// PredicateUses counts how many queries mention each predicate.
	PredicateUses map[string]int
}

// Analyze profiles a materialized workload. Streaming callers (e.g.
// the query-generation pipeline's profile sink) use an Accumulator
// directly; both paths produce identical profiles.
func Analyze(queries []*query.Query) Profile {
	a := NewAccumulator()
	for _, q := range queries {
		a.Add(q)
	}
	return a.Profile()
}

// Accumulator builds a Profile incrementally, one query at a time, so
// a workload can be profiled while it streams out of the generator
// without ever being materialized. Not safe for concurrent use.
type Accumulator struct {
	p    Profile
	seen map[string]bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		p: Profile{
			ByShape:       map[query.Shape]int{},
			ByClass:       map[query.SelectivityClass]int{},
			ArityHist:     map[int]int{},
			RuleHist:      map[int]int{},
			ConjunctHist:  map[int]int{},
			DisjunctHist:  map[int]int{},
			LengthHist:    map[int]int{},
			PredicateUses: map[string]int{},
		},
		seen: map[string]bool{},
	}
}

// Add folds one query into the profile.
func (a *Accumulator) Add(q *query.Query) {
	p := &a.p
	p.Count++
	key := q.String()
	if !a.seen[key] {
		a.seen[key] = true
		p.Distinct++
	}
	p.ByShape[q.Shape]++
	if q.HasClass {
		p.ByClass[q.Class]++
	} else {
		p.Unclassed++
	}
	if q.HasRecursion() {
		p.Recursive++
	}
	if q.Relaxed {
		p.Relaxed++
	}
	p.ArityHist[q.Arity()]++
	p.RuleHist[len(q.Rules)]++
	for _, r := range q.Rules {
		p.ConjunctHist[len(r.Body)]++
		for _, c := range r.Body {
			p.DisjunctHist[c.Expr.NumDisjuncts()]++
			for _, path := range c.Expr.Paths {
				p.LengthHist[len(path)]++
			}
		}
	}
	for _, name := range q.Predicates() {
		p.PredicateUses[name]++
	}
}

// Profile returns the profile accumulated so far. The returned value
// shares its maps with the accumulator; call it once, after the last
// Add.
func (a *Accumulator) Profile() Profile { return a.p }

// CoverageRatio returns the fraction of the given predicate alphabet
// mentioned by at least one query.
func (p Profile) CoverageRatio(alphabet []string) float64 {
	if len(alphabet) == 0 {
		return 0
	}
	used := 0
	for _, name := range alphabet {
		if p.PredicateUses[name] > 0 {
			used++
		}
	}
	return float64(used) / float64(len(alphabet))
}

// ShapeEntropy returns the Shannon entropy (bits) of the shape mix; 0
// for a single-shape workload, up to 2 bits for a uniform mix of the
// four shapes.
func (p Profile) ShapeEntropy() float64 {
	return entropy(countsOf(p.ByShape))
}

// ClassEntropy returns the entropy of the declared-class mix
// (unclassed queries count as their own bucket).
func (p Profile) ClassEntropy() float64 {
	counts := countsOf(p.ByClass)
	if p.Unclassed > 0 {
		counts = append(counts, p.Unclassed)
	}
	return entropy(counts)
}

func countsOf[K comparable](m map[K]int) []int {
	out := make([]int, 0, len(m))
	for _, c := range m {
		if c > 0 {
			out = append(out, c)
		}
	}
	// Float summation is order-sensitive in its last bits; a fixed
	// order keeps the entropy of a profile reproducible.
	sort.Ints(out)
	return out
}

func entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// Render prints a human-readable profile.
func (p Profile) Render(w io.Writer) {
	fmt.Fprintf(w, "queries: %d (%d distinct)\n", p.Count, p.Distinct)
	fmt.Fprintf(w, "shapes:  %s (entropy %.2f bits)\n", renderCounts(p.ByShape), p.ShapeEntropy())
	fmt.Fprintf(w, "classes: %s", renderCounts(p.ByClass))
	if p.Unclassed > 0 {
		fmt.Fprintf(w, " unclassed=%d", p.Unclassed)
	}
	fmt.Fprintf(w, " (entropy %.2f bits)\n", p.ClassEntropy())
	fmt.Fprintf(w, "recursive: %d   relaxed: %d\n", p.Recursive, p.Relaxed)
	fmt.Fprintf(w, "arity:     %s\n", renderIntHist(p.ArityHist))
	fmt.Fprintf(w, "conjuncts: %s\n", renderIntHist(p.ConjunctHist))
	fmt.Fprintf(w, "disjuncts: %s\n", renderIntHist(p.DisjunctHist))
	fmt.Fprintf(w, "lengths:   %s\n", renderIntHist(p.LengthHist))
	fmt.Fprintf(w, "predicates used: %d\n", len(p.PredicateUses))
}

func renderCounts[K interface {
	comparable
	fmt.Stringer
}](m map[K]int) string {
	type kv struct {
		k K
		v int
	}
	var items []kv
	for k, v := range m {
		if v > 0 {
			items = append(items, kv{k, v})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].k.String() < items[j].k.String() })
	s := ""
	for i, it := range items {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", it.k, it.v)
	}
	return s
}

func renderIntHist(m map[int]int) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", k, m[k])
	}
	return s
}
