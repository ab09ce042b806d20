package experiments

import (
	"fmt"
	"io"
	"time"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// ScalabilityRow reports the Section 6.2 workload-generation
// scalability study for one use case: the time to generate a
// 1000-query workload and to translate it into all four concrete
// syntaxes.
type ScalabilityRow struct {
	Scenario      string
	NumQueries    int
	GenerateTime  time.Duration
	TranslateTime time.Duration
}

// QGenScalability reproduces the query-generation scalability numbers
// of Section 6.2: "gMark easily generates workloads of a thousand
// queries ... in around one second" and "query translation of a
// thousand queries into all four supported syntaxes ... took a mere
// tenth of a second".
func QGenScalability(opt Options) ([]ScalabilityRow, error) {
	opt = opt.withDefaults()
	numQueries := 1000
	if !opt.Full {
		numQueries = 200
	}

	var rows []ScalabilityRow
	for _, sc := range []string{"bib", "lsn", "sp", "wd"} {
		gcfg, err := usecases.ByName(sc, 100000)
		if err != nil {
			return nil, err
		}
		wcfg, err := usecases.Workload("con", gcfg, opt.Seed)
		if err != nil {
			return nil, err
		}
		wcfg.Count = numQueries
		wcfg.Classes = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}
		gen, err := querygen.New(wcfg)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		// Pinned to one worker: this experiment reproduces the paper's
		// single-threaded Section 6.2 numbers; the parallel pipeline is
		// gmark-perf's qgen workload (querygen.emit_s / emit_seq_s).
		queries, err := gen.GenerateWith(querygen.Options{Parallelism: 1})
		if err != nil {
			return nil, err
		}
		genTime := time.Since(start)

		start = time.Now()
		for _, q := range queries {
			for _, syntax := range translate.Syntaxes {
				if _, err := translate.To(syntax, q, translate.Options{}); err != nil {
					return nil, err
				}
			}
		}
		translateTime := time.Since(start)

		rows = append(rows, ScalabilityRow{
			Scenario:      sc,
			NumQueries:    len(queries),
			GenerateTime:  genTime,
			TranslateTime: translateTime,
		})
		opt.progressf("scalability %s: %d queries in %v, translated in %v",
			sc, len(queries), genTime, translateTime)
	}
	return rows, nil
}

// RenderScalability prints the rows.
func RenderScalability(w io.Writer, rows []ScalabilityRow) {
	fmt.Fprintf(w, "%-6s %10s %14s %16s\n", "", "#queries", "generation", "translation(x4)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10d %14v %16v\n",
			r.Scenario, r.NumQueries,
			r.GenerateTime.Round(time.Millisecond),
			r.TranslateTime.Round(time.Millisecond))
	}
}
