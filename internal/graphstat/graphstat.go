// Package graphstat verifies generated instances against their
// configuration: for every eta constraint it compares the observed in-
// and out-degree statistics with the configured distributions —
// supporting the paper's claim that the heuristic generator preserves
// the distribution *types* even when exact parameters are trimmed
// (Section 4).
package graphstat

import (
	"fmt"
	"math"

	"gmark/internal/dist"
	"gmark/internal/graph"
	"gmark/internal/schema"
)

// Report is the verification result for one side of one constraint.
type Report struct {
	Source, Target, Predicate string
	Side                      string // "out" or "in"
	Configured                dist.Distribution

	NodeCount    int
	EdgeCount    int
	ObservedMean float64
	ObservedMax  int
	// ExpectedMean is the per-node mean after the min-side trimming of
	// Fig. 5: generated edges / nodes on this side.
	ExpectedMean float64
	// ZipfExponent is the discrete power-law MLE exponent of the
	// non-zero degrees (meaningful for Zipfian sides).
	ZipfExponent float64
	// HeavyTail is max/mean over non-zero degrees: near 1 for uniform
	// degrees, large for power laws.
	HeavyTail float64

	OK   bool
	Note string
}

func (r Report) String() string {
	return fmt.Sprintf("eta(%s,%s,%s) %s %v: mean=%.2f (expect %.2f) max=%d tail=%.1f ok=%v %s",
		r.Source, r.Target, r.Predicate, r.Side, r.Configured,
		r.ObservedMean, r.ExpectedMean, r.ObservedMax, r.HeavyTail, r.OK, r.Note)
}

// Check verifies every specified distribution side of every constraint
// of cfg against the generated graph g. tolerance is the allowed
// relative deviation of the observed mean from the trimmed expectation
// (e.g. 0.15).
func Check(g *graph.Graph, cfg *schema.GraphConfig, tolerance float64) []Report {
	var reports []Report
	for _, c := range cfg.Schema.Constraints {
		srcType := g.TypeIndex(c.Source)
		trgType := g.TypeIndex(c.Target)
		pred := g.PredIndex(c.Predicate)
		if srcType < 0 || trgType < 0 || pred < 0 {
			continue
		}
		edges := g.PredEdgeCount(pred)
		if c.Out.Specified() {
			stats := g.OutDegreeStats(srcType, pred)
			reports = append(reports, sideReport(c, "out", c.Out, stats, edges, tolerance))
		}
		if c.In.Specified() {
			stats := g.InDegreeStats(trgType, pred)
			reports = append(reports, sideReport(c, "in", c.In, stats, edges, tolerance))
		}
	}
	return reports
}

func sideReport(c schema.EdgeConstraint, side string, d dist.Distribution, stats graph.DegreeStats, edges int, tolerance float64) Report {
	r := Report{
		Source: c.Source, Target: c.Target, Predicate: c.Predicate,
		Side:         side,
		Configured:   d,
		NodeCount:    stats.Count,
		EdgeCount:    stats.EdgeSum,
		ObservedMean: stats.Mean,
		ObservedMax:  stats.Max,
		ZipfExponent: FitZipfExponent(stats.Degrees),
		HeavyTail:    heavyTail(stats),
	}
	if stats.Count > 0 {
		// The generator emits min(|vsrc|,|vtrg|) edges for the whole
		// predicate; this side's share is the predicate's edges over
		// its node count. (Multiple constraints can share a predicate;
		// stats.EdgeSum is already restricted to this type pair.)
		r.ExpectedMean = float64(stats.EdgeSum) / float64(stats.Count)
	}

	switch d.Kind {
	case dist.Uniform:
		// Degrees must respect the configured bounds unless trimming
		// removed edges (observed mean below the configured minimum
		// signals trimming, which is legal).
		if stats.Max > d.Max {
			r.Note = fmt.Sprintf("max degree %d exceeds uniform max %d", stats.Max, d.Max)
			return r
		}
		r.OK = true
	case dist.Gaussian:
		// The shape claim: observed mean near the configured mu, or
		// below it when this side was trimmed.
		if d.Mu > 0 && stats.Mean > d.Mu*(1+tolerance) {
			r.Note = fmt.Sprintf("mean %.2f above gaussian mu %.2f", stats.Mean, d.Mu)
			return r
		}
		r.OK = true
	case dist.Zipfian:
		// The shape claim: a heavy tail survives trimming.
		if stats.EdgeSum >= 100 && r.HeavyTail < 3 {
			r.Note = fmt.Sprintf("tail ratio %.1f too light for a zipfian side", r.HeavyTail)
			return r
		}
		r.OK = true
	default:
		r.OK = true
	}
	return r
}

func heavyTail(stats graph.DegreeStats) float64 {
	if stats.NonZero == 0 {
		return 0
	}
	meanNonZero := float64(stats.EdgeSum) / float64(stats.NonZero)
	if meanNonZero == 0 {
		return 0
	}
	return float64(stats.Max) / meanNonZero
}

// FitZipfExponent estimates the discrete power-law exponent of the
// non-zero degrees with the Clauset-Shalizi-Newman MLE
// (s = 1 + n / sum ln(k_i / (kmin - 1/2)), kmin = 1). It returns 0
// when there are no positive degrees.
func FitZipfExponent(degrees []int) float64 {
	n := 0
	sum := 0.0
	for _, k := range degrees {
		if k <= 0 {
			continue
		}
		n++
		sum += math.Log(float64(k) / 0.5)
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}
