package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repo's core contract (gMark, ICDE
// 2017): for a fixed (seed, constraint, shard) the output is
// byte-identical at any worker count. Two things break that silently:
// reading ambient nondeterminism (wall clock, the global math/rand
// stream, which is both seeded ambiently and mutex-shared across
// goroutines in arrival order), and iterating a Go map — randomized
// per run — on a path that feeds ordered output.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "no wall clock or global math/rand outside the allowlisted " +
		"measurement dirs and budget meter; map iteration in emission packages " +
		"must not feed ordered output unsorted, and their RNGs come " +
		"from prng.New, not math/rand.NewSource",
	Run: runDeterminism,
}

// clockExemptDirs hold code whose whole purpose is measurement or
// interactive reporting, never deterministic artifact bytes.
var clockExemptDirs = []string{"cmd", "examples", "internal/experiments"}

// clockExemptFiles holds the one wall-clock budget implementation,
// eval.Meter, shared by the reference evaluator and every simulated
// engine. Timeouts are part of the Section 7 contract; counts, not
// timings, are the deterministic output. Keeping every deadline check
// behind this file is itself an invariant — new time.Now call sites
// must either move here or carry an ignore with a reason.
var clockExemptFiles = map[string]bool{
	"internal/eval/meter.go": true,
}

// emissionDirs are the packages whose output order is part of the
// determinism contract: graph emission, query emission, the evaluator
// (whose counts must not depend on visit order), and the packages that
// render query bytes — the translators, the rule and path-expression
// text they embed, and the workload profile report.
var emissionDirs = []string{
	"internal/graphgen", "internal/querygen", "internal/eval",
	"internal/translate", "internal/query", "internal/regpath", "internal/workload",
}

// orderedEmitVerbs are method names that commit bytes or ordered
// entries; reaching one from inside a map range is order-dependent.
var orderedEmitVerbs = map[string]bool{
	"AddEdge": true, "AddEdgeBatch": true, "AddQuery": true,
	"Write": true, "WriteString": true, "WriteByte": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runDeterminism(p *Pass) {
	checkClocks := !inAnyDir(p.Dir, clockExemptDirs)
	checkMaps := inAnyDir(p.Dir, emissionDirs)
	if !checkClocks && !checkMaps {
		return
	}
	for _, file := range p.Files {
		if checkClocks && !clockExemptFiles[p.RelFile(file.Pos())] {
			reportClockAndRand(p, file)
		}
		if checkMaps {
			reportUnsortedMapEmission(p, file)
			reportNewSource(p, file)
		}
	}
}

// reportClockAndRand flags calls to time.Now/Since/Until and to any
// package-level function of math/rand (v1 or v2). Methods on an
// explicit *rand.Rand are fine — the repo threads seeded generators
// everywhere — it is the ambient global stream that is banned.
func reportClockAndRand(p *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, fn := calledFunc(p, n)
		if fn == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				p.Reportf(call.Pos(), "time.%s in a deterministic path; move measurement under cmd/, examples/ or internal/experiments, or into the budget meter, or justify with //lint:ignore determinism <reason>", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			// Constructors (New, NewSource, NewZipf, ...) build the
			// explicit seeded generators the repo threads everywhere;
			// only the package-level draw/seed functions touch the
			// ambient shared stream.
			if strings.HasPrefix(fn.Name(), "New") {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				p.Reportf(call.Pos(), "global math/rand.%s draws from the ambient shared stream; thread a seeded *rand.Rand instead", fn.Name())
			}
		}
		return true
	})
}

// reportNewSource flags math/rand.NewSource in the emission packages.
// Its Seed walks a 1 841-step LCG chain serially (≈ 11 µs) once per
// query and per shard; internal/prng draws the identical stream and
// seeds it by jump-ahead, so a new unit loop must not bring the walk
// back.
func reportNewSource(p *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		if call, fn := calledFunc(p, n); fn != nil && fn.Pkg().Path() == "math/rand" && fn.Name() == "NewSource" {
			p.Reportf(call.Pos(), "math/rand.NewSource in an emission package; use prng.New: the same stream, seeded by jump-ahead")
		}
		return true
	})
}

// calledFunc returns n and the function it calls when n is a pkg.F or
// x.M call of a function that belongs to a package; otherwise fn is nil.
func calledFunc(p *Pass, n ast.Node) (call *ast.CallExpr, fn *types.Func) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, ok = p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, nil
	}
	return call, fn
}

// reportUnsortedMapEmission flags a range over a map whose body
// appends or emits ordered output, unless the same function sorts
// after the loop (the collect-keys-then-sort idiom justifies itself).
// Anything else needs //lint:ignore determinism <why the order cannot
// reach output>.
func reportUnsortedMapEmission(p *Pass, file *ast.File) {
	funcs := funcBodies(file)
	ast.Inspect(file, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if !bodyEmitsOrdered(rs.Body) {
			return true
		}
		if body := enclosingBody(funcs, rs.Pos()); body != nil && sortsAfter(p, body, rs.End()) {
			return true
		}
		p.Reportf(rs.Pos(), "map iteration order is randomized but this loop feeds ordered output; sort before emitting or justify with //lint:ignore determinism <reason>")
		return true
	})
}

// bodyEmitsOrdered reports whether the loop body appends to a slice or
// calls an ordered-emission verb.
func bodyEmitsOrdered(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				found = true
			}
		case *ast.SelectorExpr:
			if orderedEmitVerbs[fun.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortsAfter reports whether body calls into package sort or slices
// (or any function whose name starts with "Sort") after pos.
func sortsAfter(p *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}

// funcBody pairs a function-like node's body with its span.
type funcBody struct {
	pos, end token.Pos
	body     *ast.BlockStmt
}

// funcBodies collects every FuncDecl and FuncLit body in the file.
func funcBodies(file *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{fn.Body.Pos(), fn.Body.End(), fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{fn.Body.Pos(), fn.Body.End(), fn.Body})
		}
		return true
	})
	return out
}

// enclosingBody returns the innermost collected body containing pos.
func enclosingBody(funcs []funcBody, pos token.Pos) *ast.BlockStmt {
	var best *funcBody
	for i := range funcs {
		f := &funcs[i]
		if pos < f.pos || pos >= f.end {
			continue
		}
		if best == nil || f.end-f.pos < best.end-best.pos {
			best = f
		}
	}
	if best == nil {
		return nil
	}
	return best.body
}
