// Package unusedsupport is test support: no non-test file imports it,
// so its exports exist for tests and the unused analyzer skips it.
package unusedsupport

// Oracle would be a finding in a shipped package.
func Oracle() {}
