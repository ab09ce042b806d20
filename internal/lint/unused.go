package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
)

// UnusedAnalyzer keeps the internal packages free of dead exported
// surface. An exported name that no shipped code refers to is not API
// (internal/ packages are only reachable from this module) but it is
// still read, documented, tested and threaded through every later
// refactor; a name kept alive only by its own package's tests is the
// same cost with a test pinning it in place.
//
// Uses are matched by (package dir, name), not by types.Object
// identity: the source importer type-checks each dependency a second
// time, under its module import path ("gmark/internal/..."), while the
// load checks it under its dir-relative path, so a use in another
// package never points at the defining package's own object. Both
// copies are parsed into the one FileSet, so an imported package's
// declarations name its directory.
//
// Methods are out of scope: a method can be called through an
// interface of a package outside the load (fmt.Stringer, io.Writer,
// sort.Interface), and such calls leave no use behind.
var UnusedAnalyzer = &Analyzer{
	Name: "unused",
	Doc: "an exported package-level func, type, var or const of an " +
		"imported internal/ package must be used by some non-test file " +
		"of the module",
	Finish: finishUnused,
}

// unusedKey names one package-level object by its package dir.
type unusedKey struct {
	dir, name string
}

func finishUnused(pkgs []*Package, report func(pos token.Pos, msg string)) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	byAbs := make(map[string]string) // absolute directory -> package Dir
	dirOf := make(map[string]string) // import path -> package Dir
	for _, pkg := range pkgs {
		byAbs[absDir(fset, pkg.Files[0].Pos())] = pkg.Dir
		dirOf[pkg.Pkg.Path()] = pkg.Dir
	}
	imported := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, imp := range pkg.Pkg.Imports() {
			names := imp.Scope().Names()
			if len(names) == 0 {
				continue
			}
			if dir, ok := byAbs[absDir(fset, imp.Scope().Lookup(names[0]).Pos())]; ok {
				dirOf[imp.Path()] = dir
				imported[dir] = true
			}
		}
	}
	used := make(map[unusedKey]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			p := obj.Pkg()
			if p == nil || p.Scope().Lookup(obj.Name()) != obj {
				continue
			}
			if dir, ok := dirOf[p.Path()]; ok {
				used[unusedKey{dir, obj.Name()}] = true
			}
		}
	}
	for _, pkg := range pkgs {
		// A package no shipped file imports is test support: its
		// exports exist for tests by construction.
		if !inDir(pkg.Dir, "internal") || !imported[pkg.Dir] {
			continue
		}
		for _, file := range pkg.Files {
			for _, id := range packageLevelNames(file) {
				if id.IsExported() && !used[unusedKey{pkg.Dir, id.Name}] {
					report(id.Pos(), id.Name+" is exported but no non-test file of the module uses it; delete it, or move it into the _test.go file that does")
				}
			}
		}
	}
}

// absDir returns the absolute directory of the file holding pos.
func absDir(fset *token.FileSet, pos token.Pos) string {
	dir, err := filepath.Abs(filepath.Dir(fset.Position(pos).Filename))
	if err != nil {
		return ""
	}
	return dir
}

// packageLevelNames returns the identifiers a file declares at package
// level: funcs (not methods), types, vars and consts.
func packageLevelNames(file *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return ids
}
