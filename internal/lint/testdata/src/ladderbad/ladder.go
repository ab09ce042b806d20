// Package ladderbad seeds the verb ladders: a func, a method and a
// package-level var F, each next to an FWith or FOpt rung of the same
// scope.
package ladderbad

// Options tunes a count.
type Options struct{ Workers int }

// Count forwards to CountWith with the defaults filled in.
func Count(n int) int { return CountWith(n, Options{}) } // want `ladder: Count sits next to CountWith`

// CountWith is the options-taking rung.
func CountWith(n int, opt Options) int { return n * opt.Workers }

// Generator generates.
type Generator struct{}

// Generate forwards to GenerateWith.
func (g *Generator) Generate() int { return g.GenerateWith(Options{}) } // want `ladder: Generate sits next to GenerateWith`

// GenerateWith is the options-taking rung.
func (g *Generator) GenerateWith(opt Options) int { return opt.Workers }

// Open is a var alias beside a func rung.
var Open = func() int { return OpenOpt(Options{}) } // want `ladder: Open sits next to OpenOpt`

// OpenOpt is the options-taking rung.
func OpenOpt(opt Options) int { return opt.Workers }

// Stream stays only because an outside caller still uses it; the
// suppression is the reviewed exception.
//
//lint:ignore ladder an outside caller still uses this rung
func Stream() int { return StreamWith(Options{}) }

// StreamWith is the options-taking rung.
func StreamWith(opt Options) int { return opt.Workers }
