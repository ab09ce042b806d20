package main

import (
	"os"
	"strings"
	"testing"

	"gmark/internal/experiments"
)

// TestExperimentListIsTheRegistry pins the two places an id is shown
// to the one place it is defined: -h prints one line per registry
// entry in run order, and the package comment repeats that table
// verbatim.
func TestExperimentListIsTheRegistry(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(experimentList(), "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("help lists %d experiments, registry has %d", len(lines), len(all))
	}
	for i, e := range all {
		if id, _, _ := strings.Cut(lines[i], " "); id != e.ID {
			t.Errorf("help line %d is %q, registry has %q", i, id, e.ID)
		}
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "//\t" + strings.Join(lines, "\n//\t") + "\npackage main\n"
	if !strings.Contains(string(src), want) {
		t.Errorf("package comment of main.go does not end with the registry table:\n%s", want)
	}
}
