package lint

import (
	"go/ast"
	"go/token"
)

// LadderAnalyzer keeps one entry point per verb. An exported F next to
// an FWith or FOpt in the same package is a ladder: F spells the verb
// a second time, usually forwarding to the options-taking rung with
// defaults filled in, and every later change (a new option, a context,
// an error check) has to be threaded through both or, as happened
// with spill load errors, lands in only one. The options struct's zero
// value is the place for defaults.
var LadderAnalyzer = &Analyzer{
	Name: "ladder",
	Doc: "an exported func, method or package-level var F must not sit " +
		"next to an FWith or FOpt of the same package (methods: of the " +
		"same receiver); fold F into the options-taking rung",
	Run: runLadder,
}

// ladderSuffixes name the options-taking rungs.
var ladderSuffixes = []string{"With", "Opt"}

func runLadder(p *Pass) {
	// Package-level funcs and vars share scope ""; methods are scoped
	// by their receiver's type name.
	names := make(map[string]map[string]bool)
	var decls []ladderDecl
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				decls = append(decls, ladderDecl{recvTypeName(d), d.Name})
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						decls = append(decls, ladderDecl{"", n})
					}
				}
			}
		}
	}
	for _, d := range decls {
		if names[d.scope] == nil {
			names[d.scope] = make(map[string]bool)
		}
		names[d.scope][d.name.Name] = true
	}
	for _, d := range decls {
		if !d.name.IsExported() {
			continue
		}
		for _, suffix := range ladderSuffixes {
			if rung := d.name.Name + suffix; names[d.scope][rung] {
				p.Reportf(d.name.Pos(), "%s sits next to %s: one verb, one options-taking entry point; fold %s into it", d.name.Name, rung, d.name.Name)
			}
		}
	}
}

// ladderDecl is one func, method or package-level var name with its
// scope.
type ladderDecl struct {
	scope string
	name  *ast.Ident
}

// recvTypeName returns the name of a method's receiver type ("" for a
// plain func), with pointers and type parameters stripped.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}
