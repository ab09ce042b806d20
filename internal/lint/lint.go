// Package lint implements gmarklint, the repo's invariant-enforcing
// static-analysis suite. A registry of repo-specific analyzers
// (determinism, formats, concurrency, sinkflush, exporteddoc, ladder,
// unused — see docs/LINTS.md) runs over every buildable package of the
// module, loaded once with go/parser and typechecked with go/types
// through the stdlib source importer, so the suite needs no external
// linter binaries or module downloads. Findings print as
//
//	file:line: analyzer: message
//
// and are suppressed only by an explicit
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the flagged line or the line above it; a suppression
// without a written reason is itself a finding. The same registry is
// exposed two ways — the internal/lint tier-1 test and the
// cmd/gmark-lint CLI — so local runs and CI can never drift.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Package is one loaded, typechecked package of the linted tree.
// Test files (_test.go) and files excluded by build constraints are
// not loaded: the analyzers state invariants about shipped library
// code, and test code may freely use wall clocks or unordered maps.
type Package struct {
	// Dir is the package directory relative to the lint root, with
	// forward slashes ("" is the root package itself). Analyzer
	// allowlists match against it.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RelFile returns the lint-root-relative path of the file containing
// pos, for matching per-file allowlists.
func (p *Package) RelFile(pos token.Pos) string {
	base := filepath.Base(p.Fset.Position(pos).Filename)
	if p.Dir == "" {
		return base
	}
	return p.Dir + "/" + base
}

// Pass is the per-package view handed to an analyzer's Run hook.
type Pass struct {
	*Package
	report func(pos token.Pos, msg string)
}

// Reportf records one finding for the current analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// An Analyzer checks one invariant. Run, if set, is called once per
// package; Finish, if set, is called once with every loaded package,
// for invariants that only hold module-wide (e.g. "this magic string
// is defined exactly once").
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Finish func(pkgs []*Package, report func(pos token.Pos, msg string))
}

// inDir reports whether a package dir equals prefix or sits below it.
func inDir(dir, prefix string) bool {
	return dir == prefix || strings.HasPrefix(dir, prefix+"/")
}

// inAnyDir reports whether dir sits in any of the listed trees.
func inAnyDir(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		if inDir(dir, p) {
			return true
		}
	}
	return false
}

// LoadTree loads and typechecks every buildable non-test package under
// root, skipping testdata, vendor and dot directories. All packages
// share one FileSet and one source importer, so dependencies are
// typechecked at most once per call.
func LoadTree(root string) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	walk := func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root &&
			(strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		pkg, err := loadPackage(fset, imp, path, filepath.ToSlash(rel), bp)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	}
	if err := filepath.WalkDir(root, walk); err != nil {
		return nil, err
	}
	return pkgs, nil
}

// loadPackage parses and typechecks the buildable non-test files of
// one directory.
func loadPackage(fset *token.FileSet, imp types.Importer, dir, rel string, bp *build.Package) (*Package, error) {
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	pkgPath := bp.ImportPath
	if pkgPath == "" || pkgPath == "." {
		pkgPath = rel
	}
	if pkgPath == "" {
		pkgPath = bp.Name
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", dir, err)
	}
	return &Package{Dir: rel, Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}

// Run executes the analyzers over the loaded packages, applies
// //lint:ignore suppressions, and returns the surviving findings
// sorted by position. Malformed suppressions (no analyzer name or no
// reason) are returned as findings of the pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		report := func(pos token.Pos, msg string) {
			diags = append(diags, Diagnostic{Pos: fset.Position(pos), Analyzer: a.Name, Message: msg})
		}
		if a.Run != nil {
			for _, pkg := range pkgs {
				a.Run(&Pass{Package: pkg, report: report})
			}
		}
		if a.Finish != nil {
			a.Finish(pkgs, report)
		}
	}
	sups, supDiags := collectSuppressions(pkgs)
	diags = append(diags, supDiags...)
	kept := diags[:0]
	for _, d := range diags {
		if !sups.covers(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos.Filename != kept[j].Pos.Filename {
			return kept[i].Pos.Filename < kept[j].Pos.Filename
		}
		if kept[i].Pos.Line != kept[j].Pos.Line {
			return kept[i].Pos.Line < kept[j].Pos.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

// LintTree is LoadTree followed by Run over the default registry: the
// single entry point shared by the tier-1 test and cmd/gmark-lint.
func LintTree(root string) ([]Diagnostic, error) {
	pkgs, err := LoadTree(root)
	if err != nil {
		return nil, err
	}
	return Run(pkgs, Analyzers), nil
}

// ignorePrefix introduces a suppression comment. The analyzer name and
// a human-readable reason are both mandatory: a suppression is a
// reviewed exception, and the reason is the review.
const ignorePrefix = "//lint:ignore"

// suppression records one valid ignore comment.
type suppression struct {
	file     string
	line     int // the comment's own line; it also covers line+1
	analyzer string
}

type suppressionSet map[suppression]bool

// covers reports whether d is silenced by a suppression on its line or
// the line above. The "lint" pseudo-analyzer cannot be suppressed.
func (s suppressionSet) covers(d Diagnostic) bool {
	if d.Analyzer == "lint" {
		return false
	}
	return s[suppression{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s[suppression{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

// collectSuppressions scans every comment of every loaded file for
// //lint:ignore directives, returning the valid ones and a finding for
// each malformed one.
func collectSuppressions(pkgs []*Package) (suppressionSet, []Diagnostic) {
	sups := make(suppressionSet)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "//lint:ignore needs an analyzer name and a reason: //lint:ignore <analyzer> <why this exception is sound>",
						})
						continue
					}
					sups[suppression{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return sups, diags
}
