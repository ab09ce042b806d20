package experiments

import (
	"fmt"
	"io"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/usecases"
	"gmark/internal/workload"
)

// CoverageRow is the Section 6.1 coverage study for one use case: the
// diversity profile of a mixed-shape, class-controlled workload
// generated against its schema.
type CoverageRow struct {
	Scenario string
	Profile  workload.Profile
	// AlphabetCoverage is the fraction of the schema's predicates
	// mentioned by the workload.
	AlphabetCoverage float64
}

// Coverage reproduces the diversity claims of Section 6.1: for each of
// the four scenarios, generate one workload spanning all shapes and
// selectivity classes and profile it.
func Coverage(opt Options) ([]CoverageRow, error) {
	opt = opt.withDefaults()
	count := 40
	if opt.Full {
		count = 200
	}
	var rows []CoverageRow
	for _, sc := range []string{"bib", "lsn", "sp", "wd"} {
		gcfg, err := usecases.ByName(sc, 10000)
		if err != nil {
			return nil, err
		}
		wcfg, err := usecases.Workload("con", gcfg, opt.Seed)
		if err != nil {
			return nil, err
		}
		wcfg.Count = count
		wcfg.Shapes = []query.Shape{query.Chain, query.Star, query.Cycle, query.StarChain}
		wcfg.Classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
		wcfg.RecursionProb = 0.2
		gen, err := querygen.New(wcfg)
		if err != nil {
			return nil, err
		}
		qs, err := gen.GenerateWith(querygen.Options{})
		if err != nil {
			return nil, err
		}
		profile := workload.Analyze(qs)
		alphabet := make([]string, 0, len(gcfg.Schema.Predicates))
		for _, p := range gcfg.Schema.Predicates {
			alphabet = append(alphabet, p.Name)
		}
		rows = append(rows, CoverageRow{
			Scenario:         sc,
			Profile:          profile,
			AlphabetCoverage: profile.CoverageRatio(alphabet),
		})
		opt.progressf("coverage %s done (%d queries)", sc, len(qs))
	}
	return rows, nil
}

// RenderCoverage prints the per-scenario profiles.
func RenderCoverage(w io.Writer, rows []CoverageRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "\n--- %s (alphabet coverage %.0f%%) ---\n", r.Scenario, r.AlphabetCoverage*100)
		r.Profile.Render(w)
	}
}
