// Package ladderclean shows what is not a ladder: a lone options-taking
// rung, names on different receivers or at different scopes, and
// unexported pairs.
package ladderclean

// Options tunes a run.
type Options struct{ Workers int }

// EmitWith is a lone rung: there is no Emit beside it.
func EmitWith(opt Options) int { return opt.Workers }

// A and B are different receivers.
type A struct{}

// B is the other receiver.
type B struct{}

// Run is A's verb.
func (A) Run() int { return 0 }

// RunWith is B's verb; A.Run is not its rung.
func (B) RunWith(opt Options) int { return opt.Workers }

// Set is a bit set.
type Set struct{ n int }

// Union is a package-level func; (*Set).UnionWith is a method, so the
// two sit in different scopes.
func Union(a, b *Set) *Set { return &Set{a.n | b.n} }

// UnionWith unions o into s.
func (s *Set) UnionWith(o *Set) { s.n |= o.n }

// count and countWith are unexported helpers, not API surface.
func count() int { return countWith(Options{}) }

func countWith(opt Options) int { return opt.Workers }

// Total keeps the helpers referenced.
func Total() int { return count() }
