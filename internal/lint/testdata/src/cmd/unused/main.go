// Package main uses the unused fixtures from cmd/.
package main

import (
	"gmark/internal/lint/testdata/src/internal/unusedbad"
	"gmark/internal/lint/testdata/src/internal/unusedclean"
)

func main() {
	unusedclean.FromCmd()
	_, _ = unusedbad.Used()
}
