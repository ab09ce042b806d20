// Package main uses the unused fixtures from examples/.
package main

import "gmark/internal/lint/testdata/src/internal/unusedclean"

func main() { unusedclean.FromExamples() }
