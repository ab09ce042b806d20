// Command gmark-lint runs gmarklint, the repo's invariant-enforcing
// static-analysis suite (internal/lint), over the module tree.
//
//	go run ./cmd/gmark-lint ./...
//
// It loads every buildable package once, runs the analyzer registry
// (determinism, formats, concurrency, sinkflush, exporteddoc, ladder,
// unused), and prints one "file:line: analyzer: message" per
// unsuppressed finding, exiting 1 if there are any. Suppress a
// finding only with //lint:ignore <analyzer> <reason> on the flagged
// line or the line above; the reason is mandatory. The internal/lint tier-1 test runs
// the exact same registry, so CI and local runs agree by construction.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gmark/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gmark-lint [-list] [./... | dir ...]\n\nRuns the gmarklint analyzer registry over the module (or the given\nsubdirectories). See docs/LINTS.md for the analyzer catalogue.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmark-lint:", err)
		os.Exit(2)
	}

	diags, err := lint.LintTree(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmark-lint:", err)
		os.Exit(2)
	}

	keep := filters(root, flag.Args())
	found := 0
	for _, d := range diags {
		if !keep(d.Pos.Filename) {
			continue
		}
		found++
		fmt.Println(d)
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "gmark-lint: %d finding(s); suppress only with //lint:ignore <analyzer> <reason>\n", found)
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod, so gmark-lint always lints whole packages with a consistent
// root no matter where it is invoked.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// filters interprets the positional arguments: none or "./..." means
// everything; anything else is a directory prefix to keep (with or
// without a trailing "/...").
func filters(root string, args []string) func(file string) bool {
	var prefixes []string
	for _, a := range args {
		a = strings.TrimSuffix(a, "...")
		a = strings.TrimSuffix(a, "/")
		a = strings.TrimPrefix(a, "./")
		if a == "" || a == "." {
			return func(string) bool { return true }
		}
		prefixes = append(prefixes, filepath.Join(root, a)+string(filepath.Separator))
	}
	if len(prefixes) == 0 {
		return func(string) bool { return true }
	}
	return func(file string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(file, p) {
				return true
			}
		}
		return false
	}
}
