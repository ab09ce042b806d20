package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gmark/internal/eval"
	"gmark/internal/query"
)

// fastOpts keeps the smoke runs tiny.
func fastOpts() Options {
	return Options{
		Sizes:           []int{300, 600},
		Seed:            1,
		QueriesPerClass: 2,
		Budget:          eval.Budget{MaxPairs: 5_000_000, Timeout: 30 * time.Second},
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed == 0 || o.QueriesPerClass == 0 || o.Budget.MaxPairs == 0 || o.Budget.Timeout == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	full := Options{Full: true}.withDefaults()
	if full.QueriesPerClass != 10 {
		t.Errorf("full queries per class = %d", full.QueriesPerClass)
	}
	if len(full.qualitySizes()) != 5 || full.qualitySizes()[4] != 32000 {
		t.Errorf("full quality sizes = %v", full.qualitySizes())
	}
}

func TestMeasureEngineProtocol(t *testing.T) {
	// Single-run mode: exactly one evaluation.
	calls := 0
	d, c, err := measureEngine(Options{Runs: 1}, func() (int64, error) {
		calls++
		return 7, nil
	})
	if err != nil || c != 7 || calls != 1 || d < 0 {
		t.Errorf("single run: calls=%d count=%d err=%v", calls, c, err)
	}
	// Protocol mode: one cold + Runs warm evaluations.
	calls = 0
	_, c, err = measureEngine(Options{Runs: 5}, func() (int64, error) {
		calls++
		return 9, nil
	})
	if err != nil || c != 9 || calls != 6 {
		t.Errorf("protocol: calls=%d count=%d err=%v", calls, c, err)
	}
	// An error on any run fails the measurement.
	calls = 0
	_, _, err = measureEngine(Options{Runs: 3}, func() (int64, error) {
		calls++
		if calls == 2 {
			return 0, errTest
		}
		return 1, nil
	})
	if err == nil {
		t.Error("expected error propagation")
	}
}

var errTest = fmt.Errorf("test error")

func TestTable1Smoke(t *testing.T) {
	opt := fastOpts()
	// Boundedness classification needs a real size spread.
	opt.Sizes = []int{500, 4000}
	rows, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The eq row must stay bounded in both directions; the cross row
	// (through the fixed hub type) must grow on both sides and measure
	// superlinear alpha.
	for _, r := range rows {
		switch r.Op.String() {
		case "=":
			if !r.OutBounded || !r.InBounded {
				t.Errorf("= row should be bounded both ways: %+v", r)
			}
		case "x":
			if r.OutBounded || r.InBounded {
				t.Errorf("x row should be unbounded both ways: %+v", r)
			}
			if r.Alpha < 1.5 {
				t.Errorf("x row alpha = %.2f, want near 2", r.Alpha)
			}
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "heldIn.heldIn-") {
		t.Error("render output incomplete")
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	rows, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 3 scenarios x 4 kinds + SP = 13 rows.
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(rows))
	}
	labels := map[string]bool{}
	for _, r := range rows {
		labels[r.Label()] = true
	}
	for _, want := range []string{"LSN-Len", "BIB-Rec", "WD-Con", "SP"} {
		if !labels[want] {
			t.Errorf("missing row %s (have %v)", want, labels)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Constant") {
		t.Error("render output incomplete")
	}
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	series, err := Fig11(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 4 kinds x 3 classes.
	if len(series) != 12 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Failed {
			continue
		}
		if len(s.Measured) != len(s.Sizes) || len(s.Fitted) != len(s.Sizes) {
			t.Errorf("%s/%s: ragged series", s.Kind, s.Label)
		}
	}
	var buf bytes.Buffer
	RenderFig11(&buf, series)
	if !strings.Contains(buf.String(), "Bib-len") {
		t.Error("render output incomplete")
	}
}

func TestTable3Smoke(t *testing.T) {
	opt := Options{Sizes: []int{1000, 5000}, Seed: 1}
	rows, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Skipped {
				continue
			}
			if c.Edges == 0 {
				t.Errorf("%s at %d: no edges", r.Scenario, c.Nodes)
			}
			if c.Elapsed <= 0 {
				t.Errorf("%s at %d: no time measured", r.Scenario, c.Nodes)
			}
		}
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "bib") {
		t.Error("render output incomplete")
	}
}

func TestTable3WDCappedByDefault(t *testing.T) {
	opt := Options{Sizes: []int{wdCap * 2}, Seed: 1}
	rows, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scenario == "wd" && !r.Cells[0].Skipped {
			t.Error("WD above the cap should be skipped in the default sweep")
		}
		if r.Scenario == "bib" && r.Cells[0].Skipped {
			t.Error("bib should not be capped")
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	rows, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 2 queries x 4 engines.
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// D must complete everything (the paper's conclusion).
	for _, r := range rows {
		if r.Engine != "D" {
			continue
		}
		for _, c := range r.Cells {
			if c.Failed {
				t.Errorf("D failed query %d at %d: %s", r.Query, c.Size, c.Err)
			}
		}
	}
	// G must be annotated as semantically incomparable on both
	// queries (they use inverse+concat under the star).
	for _, r := range rows {
		if r.Engine != "G" {
			continue
		}
		for _, c := range r.Cells {
			if !c.Semantic {
				t.Errorf("G cells should carry the semantics annotation")
			}
		}
	}
	var buf bytes.Buffer
	RenderTable4(&buf, rows)
	if !strings.Contains(buf.String(), "Query 1") {
		t.Error("render output incomplete")
	}
}

func TestTable4QueriesClasses(t *testing.T) {
	qs := Table4Queries()
	if qs[0].Class != query.Constant || qs[1].Class != query.Quadratic {
		t.Error("Table 4 query classes")
	}
	for _, q := range qs {
		if !q.HasRecursion() {
			t.Error("Table 4 queries must be recursive")
		}
		if err := q.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// ReferenceCounts evaluates the Table 4 queries with the reference
// evaluator, for validating engine agreement.
func ReferenceCounts(opt Options) (map[int][2]int64, error) {
	opt = opt.withDefaults()
	sizes := opt.engineSizes()
	graphs, err := buildGraphs(opt, "bib", sizes)
	if err != nil {
		return nil, err
	}
	queries := Table4Queries()
	out := make(map[int][2]int64, len(sizes))
	for _, n := range sizes {
		var pair [2]int64
		for qi, q := range queries {
			c, err := eval.CountWith(graphs[n], q, opt.Budget, eval.EvalOptions{Workers: 1})
			if err != nil {
				return nil, err
			}
			pair[qi] = c
		}
		out[n] = pair
	}
	return out, nil
}

func TestTable4EnginesAgreeWithReference(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	ref, err := ReferenceCounts(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Engine == "G" {
			continue
		}
		for _, c := range r.Cells {
			if c.Failed {
				continue
			}
			if want := ref[c.Size][r.Query-1]; c.Count != want {
				t.Errorf("engine %s query %d size %d: count %d, reference %d",
					r.Engine, r.Query, c.Size, c.Count, want)
			}
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	series, err := Fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 3 classes x 2 origins.
	if len(series) != 6 {
		t.Fatalf("series = %d", len(series))
	}
	var buf bytes.Buffer
	RenderFig10(&buf, series)
	if !strings.Contains(buf.String(), "org") {
		t.Error("render output incomplete")
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	opt.QueriesPerClass = 1
	results, err := Fig12(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		// 3 kinds x 4 engines.
		if len(res.Rows) != 12 {
			t.Errorf("%v rows = %d", res.Class, len(res.Rows))
		}
	}
	var buf bytes.Buffer
	RenderFig12(&buf, results)
	if !strings.Contains(buf.String(), "Fig. 12") {
		t.Error("render output incomplete")
	}
}

func TestCoverageSmoke(t *testing.T) {
	opt := fastOpts()
	rows, err := Coverage(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AlphabetCoverage < 0.5 {
			t.Errorf("%s: alphabet coverage %.2f too low", r.Scenario, r.AlphabetCoverage)
		}
		if r.Profile.ShapeEntropy() < 1.0 {
			t.Errorf("%s: shape entropy %.2f too low", r.Scenario, r.Profile.ShapeEntropy())
		}
		if r.Profile.Distinct < r.Profile.Count*3/4 {
			t.Errorf("%s: only %d/%d distinct", r.Scenario, r.Profile.Distinct, r.Profile.Count)
		}
	}
	var buf bytes.Buffer
	RenderCoverage(&buf, rows)
	if !strings.Contains(buf.String(), "alphabet coverage") {
		t.Error("render output incomplete")
	}
}

func TestQGenScalabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	rows, err := QGenScalability(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NumQueries == 0 || r.GenerateTime <= 0 {
			t.Errorf("%s: %+v", r.Scenario, r)
		}
	}
	var buf bytes.Buffer
	RenderScalability(&buf, rows)
	if !strings.Contains(buf.String(), "generation") {
		t.Error("render output incomplete")
	}
}

// smokeOpts is the size CI's "paper artefacts smoke" step runs at.
func smokeOpts() Options {
	return Options{Sizes: []int{500, 1000}, Seed: 1, QueriesPerClass: 1}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.ID == "all" || seen[e.ID] {
			t.Errorf("registry id %q is empty, reserved or duplicated", e.ID)
		}
		seen[e.ID] = true
		if e.Paper == "" {
			t.Errorf("%s: no paper reference", e.ID)
		}
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(smokeOpts(), &buf); err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(buf.String()) == "" {
				t.Error("rendered nothing")
			}
			one, err := Select(e.ID)
			if err != nil || len(one) != 1 || one[0].ID != e.ID {
				t.Errorf("Select(%q) = %v, %v", e.ID, one, err)
			}
		})
	}
	if all, err := Select("all"); err != nil || len(all) != len(All()) {
		t.Errorf("Select(all) = %d experiments, %v; want %d", len(all), err, len(All()))
	}
	_, err := Select("bogus")
	if err == nil {
		t.Fatal("Select(bogus) succeeded")
	}
	for id := range seen {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not name %s", err, id)
		}
	}
}

// TestOnlyBudgetErrorsAreFailureCells pins the difference between the
// paper's failure cell and a crash: a budget violation renders as "-",
// any other evaluation error aborts the driver. The crash is provoked
// by handing each driver LSN instances, which lack every predicate its
// Bib/SP queries mention.
func TestOnlyBudgetErrorsAreFailureCells(t *testing.T) {
	opt := smokeOpts().withDefaults()
	sizes := opt.Sizes
	lsn, err := buildGraphs(opt, "lsn", sizes)
	if err != nil {
		t.Fatal(err)
	}
	tight := smokeOpts()
	tight.Budget.MaxPairs = 1

	for _, tc := range []struct {
		id     string
		onLSN  func() (any, error)
		marker string // how the renderer prints a failure cell
	}{
		{"table2", func() (any, error) { return table2Row(opt, "bib", "con", sizes, lsn) }, " -\n"},
		{"table4", func() (any, error) { return table4Rows(opt, sizes, lsn) }, " -\n"},
		{"fig10", func() (any, error) { return fig10Series(opt, sizes, lsn) }, "evaluation failed (budget)"},
		{"fig11", func() (any, error) { return fig11Series(opt, sizes, lsn) }, "evaluation failed (budget)"},
		{"fig12", func() (any, error) { return fig12Results(opt, sizes, lsn) }, " -\n"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			_, err := tc.onLSN()
			if err == nil || errors.Is(err, eval.ErrBudget) || !strings.Contains(err.Error(), "unknown predicate") {
				t.Errorf("queries over an instance lacking their predicates: err = %v, want an unknown-predicate abort", err)
			}
			exps, err := Select(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := exps[0].Run(tight, &buf); err != nil {
				t.Fatalf("1-pair budget aborted the driver: %v", err)
			}
			if !strings.Contains(buf.String(), tc.marker) {
				t.Errorf("1-pair budget rendered no failure cell %q:\n%s", tc.marker, buf.String())
			}
		})
	}
}
