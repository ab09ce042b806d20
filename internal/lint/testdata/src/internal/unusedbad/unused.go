// Package unusedbad is the violating unused fixture. A cmd/ program
// imports it, so it is shipped code, not test support, and each of its
// exported names needs a non-test user.
package unusedbad

import "gmark/internal/lint/testdata/src/internal/unusedclean"

// Used is called by the cmd/ fixture; it keeps the package imported.
func Used() (unusedclean.FromInternal, int) { return unusedclean.FromInternal{}, OwnUse() }

// DeadFunc has no caller at all.
func DeadFunc() {} // want `unused: DeadFunc is exported but no non-test file of the module uses it`

// DeadType is named nowhere.
type DeadType struct{} // want `unused: DeadType is exported but no non-test file`

// DeadVar is read nowhere.
var DeadVar = 1 // want `unused: DeadVar is exported but no non-test file`

// DeadConst is read nowhere.
const DeadConst = "x" // want `unused: DeadConst is exported but no non-test file`

// TestedOnly is called only by this package's own test, which does
// not count as a use.
func TestedOnly() int { return 1 } // want `unused: TestedOnly is exported but no non-test file`

// OwnUse is called only by Used: a use from the package's own
// non-test files counts.
func OwnUse() int { return 2 }
