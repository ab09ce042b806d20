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
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}
