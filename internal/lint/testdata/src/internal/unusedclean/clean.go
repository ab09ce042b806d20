// Package unusedclean is the clean unused fixture: every exported name
// has a user outside the package, each from a different kind of
// caller, so none is a finding.
package unusedclean

// FromCmd is called by a cmd/ main package.
func FromCmd() {}

// FromExamples is called by an examples/ program.
func FromExamples() {}

// FromRoot is re-exported by the root (facade) package.
func FromRoot() int { return limit }

// FromInternal is a type another internal package names.
type FromInternal struct{}

// limit is unexported: the analyzer only weighs exported names.
const limit = 3
