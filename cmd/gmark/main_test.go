package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	"gmark/internal/usecases"
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

// TestBadSizesRejected: -nodes takes a positive graph size and
// -queries a count of 0 or more; anything else fails before any
// consistency warning is computed from it or any file is written.
func TestBadSizesRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-nodes", "-5"},
		{"-nodes", "0"},
		{"-queries", "-1"},
	} {
		out := t.TempDir()
		var stderr bytes.Buffer
		args := []string{"-nodes", "200", "-queries", "1", "-syntax", "", "-out", out, c.flag, c.value}
		err := run(args, &stderr)
		if want := c.flag + " " + c.value; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want an error naming the flag", want, err)
		}
		if stderr.Len() != 0 {
			t.Errorf("%s %s: logged before failing:\n%s", c.flag, c.value, stderr.String())
		}
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("%s %s wrote %d files", c.flag, c.value, len(entries))
		}
	}
}

// TestBadBudgetsRejected: -eval-cache-mb takes 0 (the default) or a
// positive MiB count below 2^43; a negative one, or one whose byte
// count wraps int64, fails before anything is generated instead of
// silently selecting the default. A malformed flag value is an error
// returned from run, not an exit of the process.
func TestBadBudgetsRejected(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-eval-cache-mb", "-1", "-eval-cache-mb -1"},
		{"-eval-cache-mb", strconv.FormatInt(1<<43, 10), "-eval-cache-mb " + strconv.FormatInt(1<<43, 10)},
		{"-nodes", "abc", "-nodes"},
	} {
		out := t.TempDir()
		var stderr bytes.Buffer
		args := []string{"-nodes", "200", "-queries", "1", "-syntax", "", "-out", out, c.flag, c.value}
		err := run(args, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %s: err = %v, want an error naming the flag", c.flag, c.value, err)
		}
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("%s %s wrote %d files", c.flag, c.value, len(entries))
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
		if _, _, err := parseServeFlags(args, io.Discard); err == nil || !strings.Contains(err.Error(), strings.Join(args, " ")) {
			t.Errorf("%v: err = %v, want an error naming the flag", args, err)
		}
	}
	// A malformed value is returned as an error, not an exit, and the
	// flag set reports it, with the usage, on the writer it was given.
	var out bytes.Buffer
	if _, _, err := parseServeFlags([]string{"-cache-mb", "abc"}, &out); err == nil || !strings.Contains(err.Error(), "-cache-mb") {
		t.Errorf("-cache-mb abc: err = %v, want an error naming the flag", err)
	}
	if !strings.Contains(out.String(), `invalid value "abc" for flag -cache-mb`) || !strings.Contains(out.String(), "-max-queries") {
		t.Errorf("-cache-mb abc: the error and usage did not reach the given writer:\n%s", out.String())
	}
	addr, opt, err := parseServeFlags([]string{"-addr", "127.0.0.1:0", "-cache-mb", "3", "-max-jobs", "4", "-max-nodes", "5", "-max-queries", "6", "-parallelism", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := (serve.Options{CacheBytes: 3 << 20, MaxJobs: 4, MaxNodes: 5, MaxQueries: 6, Parallelism: 2}); addr != "127.0.0.1:0" || opt != want {
		t.Errorf("parsed %q %+v, want 127.0.0.1:0 %+v", addr, opt, want)
	}
}

// TestOneEdgeListWriter: graph.txt is the bytes graphgen.Emit writes
// into a WriterSink for the same configuration and seed, in the default
// run (the WriterSink alone, rendered by the emit workers) and in a run
// that also holds the frozen graph (the WriterSink fed batches behind a
// MultiEdgeSink).
func TestOneEdgeListWriter(t *testing.T) {
	cfg, err := usecases.ByName("bib", 1000)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	ws, err := graphgen.NewWriterSink(&want, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphgen.Emit(cfg, graphgen.Options{Seed: 5, Parallelism: 1}, ws); err != nil {
		t.Fatal(err)
	}
	for _, flags := range [][]string{nil, {"-verify", "-ntriples"}} {
		out := t.TempDir()
		args := append([]string{"-usecase", "bib", "-nodes", "1000", "-seed", "5", "-queries", "1", "-syntax", "", "-out", out}, flags...)
		var stderr bytes.Buffer
		if err := run(args, &stderr); err != nil {
			t.Fatalf("%v: %v\n%s", flags, err, stderr.String())
		}
		got, err := os.ReadFile(filepath.Join(out, "graph.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%v: graph.txt (%d bytes) is not the WriterSink's output (%d bytes)", flags, len(got), want.Len())
		}
	}
}

// workloadXML is a -config document whose workload section asks for ten
// queries; each case of TestMalformedWorkloadSectionFails breaks it.
const workloadXML = `<?xml version="1.0"?>
<gmark>
  <graph nodes="300">
    <types>
      <type name="user" proportion="0.9"/>
      <type name="room" fixed="20"/>
    </types>
    <predicates>
      <predicate name="follows" proportion="0.8"/>
      <predicate name="joined" proportion="0.2"/>
    </predicates>
    <constraints>
      <constraint source="user" target="user" predicate="follows">
        <in type="zipfian" s="1.8"/>
        <out type="zipfian" s="1.8"/>
      </constraint>
      <constraint source="user" target="room" predicate="joined">
        <out type="uniform" min="1" max="3"/>
      </constraint>
    </constraints>
  </graph>
  <workload count="10" arity-min="2" arity-max="2" recursion="0.25" seed="5">
    <shapes><shape>chain</shape><shape>star</shape></shapes>
    <selectivities><selectivity>linear</selectivity></selectivities>
    <size rules-min="1" rules-max="1" conjuncts-min="1" conjuncts-max="2"
          disjuncts-min="1" disjuncts-max="2" length-min="1" length-max="3"/>
  </workload>
</gmark>`

// TestMalformedWorkloadSectionFails: the -workload preset stands in for
// a missing <workload> section only. A section WorkloadConfig refuses
// fails the run before any file is written, and a well-formed one is
// the workload generated.
func TestMalformedWorkloadSectionFails(t *testing.T) {
	for _, c := range []struct{ name, from, to, want string }{
		{"well-formed", "", "", ""},
		{"unknown shape", "<shape>star</shape>", "<shape>triangle</shape>", "triangle"},
		{"unknown selectivity", "<selectivity>linear</selectivity>", "<selectivity>cubic</selectivity>", "cubic"},
		{"invalid config", `recursion="0.25"`, `recursion="1.5"`, "recursion"},
		{"no section", workloadXML[strings.Index(workloadXML, "  <workload"):strings.Index(workloadXML, "</gmark>")], "", ""},
	} {
		doc := workloadXML
		if c.from != "" {
			doc = strings.Replace(doc, c.from, c.to, 1)
		}
		config := filepath.Join(t.TempDir(), "config.xml")
		if err := os.WriteFile(config, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		var stderr bytes.Buffer
		err := run([]string{"-config", config, "-queries", "3", "-syntax", "", "-out", out}, &stderr)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want an error naming %q", c.name, err, c.want)
			}
			if entries, _ := os.ReadDir(out); len(entries) != 0 {
				t.Errorf("%s: wrote %d files", c.name, len(entries))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, stderr.String())
		}
		want := "workload: 10 queries"
		if c.name == "no section" {
			want = "workload: 3 queries" // the -workload preset, -queries long
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: the log does not say %q:\n%s", c.name, want, stderr.String())
		}
	}
}

// TestFlagsOfTheOtherVerbRejected: a flag the chosen verb would ignore
// is a flag error naming it, reported with the usage, before anything
// is generated or evaluated: an evaluation flag without -eval-spill,
// and a generation flag with it.
func TestFlagsOfTheOtherVerbRejected(t *testing.T) {
	_, spill := testutil.Spill(t, "bib", 200, 100, 5)
	evaluate := []string{"-eval-spill", spill, "-eval-query", "authors"}
	for _, c := range []struct {
		flag  string
		extra []string
		eval  bool
	}{
		{"-eval-query", []string{"-eval-query", "authors"}, false},
		{"-eval-cache-mb", []string{"-eval-cache-mb", "16"}, false},
		{"-eval-engine", []string{"-eval-engine", "S"}, false},
		{"-eval-workers", []string{"-eval-workers", "2"}, false},
		{"-spill-mmap", []string{"-spill-mmap"}, false},
		{"-nodes", []string{"-nodes", "300"}, true},
		{"-partition", []string{"-partition"}, true},
		{"-csr-spill", []string{"-csr-spill"}, true},
		{"-seed", []string{"-seed", "3"}, true},
		{"-parallelism", []string{"-parallelism", "2"}, true},
	} {
		out := t.TempDir()
		args := []string{"-queries", "1", "-syntax", "", "-out", out}
		if c.eval {
			args = evaluate
		}
		args = append(append([]string(nil), args...), c.extra...)
		var stderr bytes.Buffer
		err := run(args, &stderr)
		var fe flagError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("%v: err = %v, want a flag error naming %s", args, err, c.flag)
			continue
		}
		if !strings.Contains(stderr.String(), err.Error()) || !strings.Contains(stderr.String(), "-eval-spill string") {
			t.Errorf("%v: the error and usage were not reported:\n%s", args, stderr.String())
		}
		if countLine.MatchString(stderr.String()) {
			t.Errorf("%v: evaluated before refusing", args)
		}
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("%v: wrote %d files", args, len(entries))
		}
	}
}
