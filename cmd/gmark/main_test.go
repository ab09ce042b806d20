package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gmark/internal/eval"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/regpath"
	"gmark/internal/serve"
	"gmark/internal/testutil"
)

var countLine = regexp.MustCompile(`count\(([^)]*)\) = (\d+)`)

// runEval runs evalOverSpill with its logger captured and returns what
// it logged.
func runEval(t *testing.T, dir, expr, engine string, useMmap bool) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := evalOverSpill(log.New(&buf, "", 0), dir, expr, 0, engine, 2, useMmap)
	return buf.String(), err
}

// TestEvalOverSpill pins the -eval-spill mode: over a bib@1000 spill
// with several node ranges, in every tested encoding and through the
// mmap path, each count line the reference evaluator, one engine and
// the whole engine comparison log equals eval.CountWith on the in-memory
// graph.
func TestEvalOverSpill(t *testing.T) {
	_, g := testutil.Graph(t, "bib", 1000, 5)
	const expr = "authors-.authors"
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: regpath.MustParse(expr)}},
	}}}
	want, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name  string
		lines int // count lines it must log
	}{{"", 1}, {"S", 1}, {"all", 4}}

	for _, comp := range []graphgen.SpillCompression{graphgen.SpillCompressNone, graphgen.SpillCompressVarint, graphgen.SpillCompressRaw} {
		dir := filepath.Join(t.TempDir(), "csr")
		if err := graphgen.WriteCSRSpillFromGraphWith(dir, g, 100, comp); err != nil {
			t.Fatal(err)
		}
		mmaps := []bool{false}
		if comp == graphgen.SpillCompressRaw {
			mmaps = append(mmaps, true)
		}
		for _, useMmap := range mmaps {
			for _, eng := range modes {
				name := fmt.Sprintf("comp=%v mmap=%v engine=%q", comp, useMmap, eng.name)
				logged, err := runEval(t, dir, expr, eng.name, useMmap)
				if err != nil {
					t.Fatalf("%s: %v\n%s", name, err, logged)
				}
				matches := countLine.FindAllStringSubmatch(logged, -1)
				if len(matches) != eng.lines {
					t.Fatalf("%s: %d count lines, want %d\n%s", name, len(matches), eng.lines, logged)
				}
				for _, m := range matches {
					got, _ := strconv.ParseInt(m[2], 10, 64)
					if m[1] != expr || got != want {
						t.Errorf("%s: logged count(%s) = %d, in-memory count(%s) = %d", name, m[1], got, expr, want)
					}
				}
				if !strings.Contains(logged, "shard cache: ") {
					t.Errorf("%s: no shard-cache line\n%s", name, logged)
				}
			}
		}
	}
}

// TestEvalOverSpillErrors: a missing expression and an unknown engine
// are reported as errors, not as a count.
func TestEvalOverSpillErrors(t *testing.T) {
	_, dir := testutil.Spill(t, "bib", 200, 100, 5)
	if _, err := runEval(t, dir, "", "", false); !errors.Is(err, errMissingEvalQuery) {
		t.Errorf("missing -eval-query: err = %v, want %v", err, errMissingEvalQuery)
	}
	logged, err := runEval(t, dir, "authors", "X", false)
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("unknown engine: err = %v", err)
	}
	if countLine.MatchString(logged) {
		t.Errorf("unknown engine logged a count:\n%s", logged)
	}
}

// TestNegativeWorkerCountsRejected: -parallelism and -eval-workers
// take 0 (all cores) or a positive count; a negative one fails before
// anything is generated, instead of being accepted as some other count.
func TestNegativeWorkerCountsRejected(t *testing.T) {
	for _, flag := range []string{"-parallelism", "-eval-workers"} {
		out := t.TempDir()
		var stderr bytes.Buffer
		err := run([]string{flag, "-1", "-nodes", "200", "-queries", "1", "-syntax", "", "-out", out}, &stderr)
		if err == nil || !strings.Contains(err.Error(), flag+" -1") {
			t.Errorf("%s -1: err = %v, want an error naming the flag", flag, err)
		}
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("%s -1 wrote %d files", flag, len(entries))
		}
	}
}

// TestBadBudgetsRejected: -eval-cache-mb takes 0 (the default) or a
// positive MiB count below 2^43; a negative one, or one whose byte
// count wraps int64, fails before anything is generated instead of
// silently selecting the default.
func TestBadBudgetsRejected(t *testing.T) {
	for _, mb := range []string{"-1", strconv.FormatInt(1<<43, 10)} {
		out := t.TempDir()
		var stderr bytes.Buffer
		err := run([]string{"-eval-cache-mb", mb, "-nodes", "200", "-queries", "1", "-syntax", "", "-out", out}, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-eval-cache-mb "+mb) {
			t.Errorf("-eval-cache-mb %s: err = %v, want an error naming the flag", mb, err)
		}
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("-eval-cache-mb %s wrote %d files", mb, len(entries))
		}
	}
}

// TestServeFlagsRejectBadLimits: serve's budget and limits take 0 (the
// default) or a positive value; a negative one, or a MiB budget whose
// byte count wraps int64, is an error naming the flag. Good values pass
// through to the server options unchanged.
func TestServeFlagsRejectBadLimits(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-mb", "-1"},
		{"-cache-mb", strconv.FormatInt(1<<43, 10)},
		{"-max-jobs", "-1"},
		{"-max-nodes", "-1"},
		{"-max-queries", "-1"},
		{"-parallelism", "-1"},
	} {
		if _, _, err := parseServeFlags(args); err == nil || !strings.Contains(err.Error(), strings.Join(args, " ")) {
			t.Errorf("%v: err = %v, want an error naming the flag", args, err)
		}
	}
	addr, opt, err := parseServeFlags([]string{"-addr", "127.0.0.1:0", "-cache-mb", "3", "-max-jobs", "4", "-max-nodes", "5", "-max-queries", "6", "-parallelism", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := (serve.Options{CacheBytes: 3 << 20, MaxJobs: 4, MaxNodes: 5, MaxQueries: 6, Parallelism: 2}); addr != "127.0.0.1:0" || opt != want {
		t.Errorf("parsed %q %+v, want 127.0.0.1:0 %+v", addr, opt, want)
	}
}
