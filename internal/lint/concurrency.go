package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcurrencyAnalyzer enforces the two goroutine-hygiene rules the
// parallel pipelines rely on. First, 64-bit atomic fields
// (atomic.Int64/atomic.Uint64) must form a prefix of their struct:
// Go 1.19+ aligns these types everywhere, so the rule is
// belt-and-braces, but keeping hot shared counters at offset zero is
// also the layout the budget meter (eval.Meter) already uses, and
// a drifted layout is the first symptom of an unplanned field. Second,
// every `go` statement in library code must be visibly accounted for
// before it starts — a WaitGroup.Add or a slot-ring/semaphore channel
// send earlier in the same function — so no goroutine can outlive its
// pipeline unobserved (the goroutine-leak class). Third, library code
// (internal/ and the root package) starts goroutines only inside
// internal/fanout: every worker pool is fanout.Each or fanout.Ordered,
// so bounds, stop and error rules live in one place, and any other go
// statement needs a //lint:ignore concurrency <reason>. Lock copying,
// the fourth classic hazard, is delegated to `go vet -copylocks`,
// which the CI lint job runs alongside this suite.
var ConcurrencyAnalyzer = &Analyzer{
	Name: "concurrency",
	Doc: "64-bit atomic fields first in their struct; go statements " +
		"preceded by WaitGroup.Add or a slot acquisition in the same " +
		"function; no go statement in library code outside internal/fanout",
	Run: runConcurrency,
}

func runConcurrency(p *Pass) {
	for _, file := range p.Files {
		checkAtomicLayout(p, file)
		checkGoAccounting(p, file)
		checkGoInFanout(p, file)
	}
}

// checkGoInFanout flags every go statement of a library package other
// than internal/fanout.
func checkGoInFanout(p *Pass, file *ast.File) {
	if !(p.Dir == "" || inDir(p.Dir, "internal")) || inDir(p.Dir, "internal/fanout") {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			p.Reportf(gs.Pos(), "go statement in library code outside internal/fanout; run the loop through fanout.Each or fanout.Ordered, or justify with //lint:ignore concurrency <reason>")
		}
		return true
	})
}

// is64BitAtomic reports whether t is sync/atomic.Int64 or Uint64.
func is64BitAtomic(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	return obj.Name() == "Int64" || obj.Name() == "Uint64"
}

// checkAtomicLayout flags any atomic.Int64/Uint64 field declared after
// a non-atomic field.
func checkAtomicLayout(p *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		prefixDone := false
		for _, field := range st.Fields.List {
			t := p.Info.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if !is64BitAtomic(t) {
				prefixDone = true
				continue
			}
			if prefixDone {
				p.Reportf(field.Pos(), "64-bit atomic field must be declared before non-atomic fields (keep atomics a prefix of the struct)")
			}
		}
		return true
	})
}

// checkGoAccounting flags go statements with no preceding
// WaitGroup.Add call or channel send in the innermost enclosing
// function. A send models semaphore admission; receives inside the
// spawned goroutine do not count because they happen after the spawn.
func checkGoAccounting(p *Pass, file *ast.File) {
	funcs := funcBodies(file)
	ast.Inspect(file, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := enclosingBody(funcs, gs.Pos())
		if body == nil || accountedBefore(p, body, gs.Pos()) {
			return true
		}
		p.Reportf(gs.Pos(), "go statement without a preceding WaitGroup.Add or slot acquisition in the same function; account for the goroutine or justify with //lint:ignore concurrency <how it is joined>")
		return true
	})
}

// accountedBefore reports whether body contains, before pos, a
// (*sync.WaitGroup).Add call or a channel send.
func accountedBefore(p *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() >= pos {
			return !found
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" {
				return true
			}
			t := p.Info.TypeOf(sel.X)
			if t == nil {
				return true
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
