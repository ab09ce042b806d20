// Package fixtureroot sits at the fixture tree's root, where the
// module's facade lives: its re-exports count as uses.
package fixtureroot

import "gmark/internal/lint/testdata/src/internal/unusedclean"

// Limit re-exports an internal function, the way the facade does.
var Limit = unusedclean.FromRoot
