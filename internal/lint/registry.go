package lint

// Analyzers is the gmarklint registry. The internal/lint tier-1 test
// and cmd/gmark-lint both run exactly this slice, so the CLI and CI
// can never check different invariants. Each entry is catalogued in
// docs/LINTS.md.
var Analyzers = []*Analyzer{
	DeterminismAnalyzer,
	FormatsAnalyzer,
	ConcurrencyAnalyzer,
	SinkFlushAnalyzer,
	ExportedDocAnalyzer,
	LadderAnalyzer,
	UnusedAnalyzer,
}
