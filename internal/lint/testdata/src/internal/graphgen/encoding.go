// Package graphgenfix is the clean formats/determinism fixture: it
// sits at the fixture-relative dir internal/graphgen, the one place
// magic strings and format-version constants may be defined, and its
// map iteration uses the collect-then-sort idiom. Its one violation is
// seed.go's math/rand.NewSource, which only emission packages refuse.
package graphgenfix

import "sort"

// Magic constants: defined exactly once, in the encoding package —
// exactly what the formats analyzer demands.
const (
	fixMagic = "GMKFIX1\n"
	useMagic = "GMKUSE1\n" // the bad fixture re-spells this at a use site
)

// fixFormatVersion is the named version constant; compliant code
// compares and assigns through it, never an inline literal.
const fixFormatVersion = 2

// manifest is a minimal on-disk index.
type manifest struct {
	FormatVersion int
}

// openManifest demonstrates compliant format_version handling.
func openManifest(m *manifest) bool {
	if m.FormatVersion > fixFormatVersion {
		return false
	}
	m.FormatVersion = fixFormatVersion
	return true
}

// header demonstrates compliant magic use via the named constant.
func header() string { return fixMagic + useMagic }

// sortedKeys collects map keys then sorts: iteration order never
// reaches the output, so the determinism analyzer stays quiet.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
