package graphgen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gmark/internal/usecases"
)

// TestCSRSpillSinkIncremental pins the incremental writer's two
// contracts: (1) with a tiny buffer budget the sink spills raw runs to
// disk during emission and its in-memory high-water mark stays at the
// budget — peak writer memory is bounded by the budget plus the units
// that budget admits at Flush, not by the instance; (2) the resulting shard files and
// manifest are byte-identical to a run with the default budget that
// never spilled (and, via TestWriteCSRSpillFromGraph, to the frozen
// in-memory graph's adjacency).
func TestCSRSpillSinkIncremental(t *testing.T) {
	cfg, err := usecases.ByName("bib", 1500)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 19}

	bigDir := filepath.Join(t.TempDir(), "big")
	big, err := NewCSRSpillSinkWith(bigDir, cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, opt, big); err != nil {
		t.Fatal(err)
	}
	if big.drains > 0 {
		t.Fatal("default budget spilled runs on a tiny instance")
	}

	const budget = 512 // edges; the instance has thousands
	defer func(old int) { csrSpillBufferEdges = old }(csrSpillBufferEdges)
	csrSpillBufferEdges = budget

	smallDir := filepath.Join(t.TempDir(), "small")
	small, err := NewCSRSpillSinkWith(smallDir, cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := Emit(cfg, opt, small)
	if err != nil {
		t.Fatal(err)
	}
	if edges <= budget {
		t.Fatalf("instance too small to exercise spilling: %d edges", edges)
	}
	if small.drains == 0 {
		t.Fatal("tiny budget never spilled a run file")
	}
	if small.maxBuffered > budget {
		t.Fatalf("buffered high-water mark %d exceeds budget %d", small.maxBuffered, budget)
	}
	if _, err := os.Stat(filepath.Join(smallDir, csrRunDir)); !os.IsNotExist(err) {
		t.Fatalf("Flush left the temp run directory behind (err=%v)", err)
	}

	// Byte-identical shards and manifest regardless of how often the
	// writer spilled.
	bigFiles, err := os.ReadDir(bigDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigFiles) < 3 {
		t.Fatalf("expected several spill files, got %d", len(bigFiles))
	}
	for _, f := range bigFiles {
		a, err := os.ReadFile(filepath.Join(bigDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(smallDir, f.Name()))
		if err != nil {
			t.Fatalf("incremental spill is missing %s: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: bytes differ between buffered and spilled runs", f.Name())
		}
	}
}

// TestCSRSpillSinkAbortRemovesRuns: aborting mid-run must leave no
// temp run files (and, per TestAbortedRunWritesNoIndexes, no manifest).
func TestCSRSpillSinkAbortRemovesRuns(t *testing.T) {
	cfg, err := usecases.ByName("bib", 1500)
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int) { csrSpillBufferEdges = old }(csrSpillBufferEdges)
	csrSpillBufferEdges = 64

	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := NewCSRSpillSinkWith(dir, cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, Options{Seed: 19}, MultiEdgeSink(&errorSink{after: 500}, sink)); err == nil {
		t.Fatal("sink error not propagated")
	}
	if _, err := os.Stat(filepath.Join(dir, csrRunDir)); !os.IsNotExist(err) {
		t.Fatalf("Abort left the temp run directory behind (err=%v)", err)
	}
	if _, err := OpenCSRSpill(dir); err == nil {
		t.Fatal("aborted run left a csr manifest")
	}
}

// spillDirHashes returns the SHA-256 of every file of a finished spill
// directory by name, failing on anything that is not a regular file —
// a finished spill has no temp run directory left.
func spillDirHashes(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string][sha256.Size]byte, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			t.Fatalf("%s: %s is not a regular file", dir, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hashes[e.Name()] = sha256.Sum256(data)
	}
	return hashes
}

// decodedSpillEdges re-opens a spill and decodes every forward shard,
// returning the manifest's edge count and the decoded one.
func decodedSpillEdges(t *testing.T, dir string) (manifest, decoded int) {
	t.Helper()
	sp, err := OpenCSRSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sp.Manifest.Predicates {
		for _, sh := range p.Fwd {
			_, adj, _, err := sp.LoadShardSized(sh)
			if err != nil {
				t.Fatal(err)
			}
			decoded += len(adj)
		}
	}
	return sp.Manifest.Edges, decoded
}

// TestCSRSpillBytesAcrossWorkers pins the unit model's central
// promise: the set of files a sink-written spill consists of, and every
// byte of every shard, domain bitmap and manifest, is the same at any
// GOMAXPROCS, whether the runs went through disk — once, or over
// several drains — or stayed buffered, and identical to
// WriteCSRSpillFromGraphWith's — for every shard layout, from one-node
// ranges (a thousand units, domain words shared between units) through
// grids of 7 and 3 ranges to a single range. Alongside, the two memory
// invariants: emission never buffers more edges than the budget, and
// Flush never holds more pairs in flight than max(budget, largest
// unit).
//
// A spill of narrow ranges is thousands of files, and a file costs up
// to half a millisecond on a slow temp disk: the two widest layouts run
// the whole matrix (encoding x budget x GOMAXPROCS), the narrow ones —
// where only the unit grid differs, not the encoders — a diagonal of it.
func TestCSRSpillBytesAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(old int) { csrSpillBufferEdges = old }(csrSpillBufferEdges)
	defaultBudget := csrSpillBufferEdges

	// The budgets: the default, which never drains here; a sixth of
	// the edges, which drains at least once; a fortieth, which drains
	// several times and leaves the grid room for a few rows at most
	// (less than one where ranges are narrow).
	const (
		noDrain = iota
		drain
		drains
	)
	type run struct {
		budget int
		procs  int
	}
	allComps := []SpillCompression{SpillCompressVarint, SpillCompressRaw, SpillCompressDeflate, SpillCompressNone}
	allRuns := []run{{drain, 1}, {drain, 2}, {drain, 8}, {drains, 1}, {drains, 2}, {drains, 8}, {noDrain, 1}, {noDrain, 2}, {noDrain, 8}}
	diagonal := []run{{drain, 1}, {drains, 8}, {noDrain, 2}}
	for _, c := range []struct {
		usecase           string
		shardNodes, nodes int
		comps             []SpillCompression
		runs              []run
	}{
		{"bib", 1, 5, allComps[:1], diagonal[:2]},
		{"lsn", 7, 20, allComps[:1], diagonal},
		{"bib", 7, 20, allComps[1:2], diagonal},
		{"lsn", 43, 300, allComps[:1], allRuns},
		{"bib", 43, 300, allComps[:1], allRuns},
		{"lsn", 128, 300, allComps, allRuns},
		{"bib", 128, 300, allComps, allRuns},
		{"lsn", 0, 600, allComps, allRuns},
		{"bib", 0, 600, allComps, allRuns},
	} {
		cfg, err := usecases.ByName(c.usecase, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: 23, Parallelism: 4}
		g, err := Generate(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		budgets := [...]int{noDrain: defaultBudget, drain: max(8, g.NumEdges()/6), drains: max(8, g.NumEdges()/40)}
		for _, comp := range c.comps {
			name := fmt.Sprintf("%s/width%d/%v", c.usecase, c.shardNodes, comp)
			refDir := filepath.Join(t.TempDir(), "ref")
			runtime.GOMAXPROCS(2)
			if err := WriteCSRSpillFromGraphWith(refDir, g, c.shardNodes, comp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := spillDirHashes(t, refDir)
			ref, err := OpenCSRSpill(refDir)
			if err != nil {
				t.Fatal(err)
			}
			largest := 0
			for _, p := range ref.Manifest.Predicates {
				for _, sh := range append(p.Fwd, p.Bwd...) {
					largest = max(largest, sh.Edges)
				}
			}
			if len(want) != len(ref.Manifest.Predicates)*2*(len(ref.Manifest.Predicates[0].Fwd)+1)+1 {
				t.Fatalf("%s: from-graph spill has %d files", name, len(want))
			}

			for _, r := range c.runs {
				budget := budgets[r.budget]
				at := fmt.Sprintf("%s budget %d procs %d", name, budget, r.procs)
				csrSpillBufferEdges = budget
				runtime.GOMAXPROCS(r.procs)
				dir := filepath.Join(t.TempDir(), "sink")
				sink, err := NewCSRSpillSinkWith(dir, cfg, c.shardNodes, comp)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Emit(cfg, opt, sink); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if least := [...]int{noDrain: 0, drain: 1, drains: 3}[r.budget]; sink.drains < least || r.budget == noDrain && sink.drains > 0 {
					t.Fatalf("%s: %d drains, want %d or more (none at the default budget)", at, sink.drains, least)
				}
				if sink.maxBuffered > budget {
					t.Fatalf("%s: buffered high-water mark %d edges exceeds the budget", at, sink.maxBuffered)
				}
				if limit := max(budget/csrCellEdges, sink.nRanges); sink.maxCells > limit {
					t.Fatalf("%s: the grid held %d cells, more than %d", at, sink.maxCells, limit)
				}
				if limit := max(budget, largest); sink.maxInflight > limit || sink.maxInflight < largest {
					t.Fatalf("%s: in-flight high-water mark %d, want in [%d, %d]", at, sink.maxInflight, largest, limit)
				}
				if _, err := os.Stat(filepath.Join(dir, csrRunDir)); !os.IsNotExist(err) {
					t.Fatalf("%s: Flush left the temp run directory behind (err=%v)", at, err)
				}
				got := spillDirHashes(t, dir)
				if len(got) != len(want) {
					t.Fatalf("%s: %d files, the from-graph spill has %d", at, len(got), len(want))
				}
				for file, h := range want {
					if got[file] != h {
						t.Fatalf("%s: %s differs from the from-graph spill", at, file)
					}
				}
			}
		}
	}
}

// TestCSRSpillSinkSecondFlush: a Flush after the Flush that finished
// the spill (a deferred Flush next to Emit, a sink listed twice) must
// leave the spill alone — it used to rewrite every shard empty under a
// manifest still counting the edges — and edges offered to a finished
// or aborted sink are refused.
func TestCSRSpillSinkSecondFlush(t *testing.T) {
	cfg, err := usecases.ByName("bib", 2000)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "csr")
	sink, err := NewCSRSpillSinkWith(dir, cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := Emit(cfg, Options{Seed: 5}, sink)
	if err != nil || edges == 0 {
		t.Fatalf("Emit = %d, %v", edges, err)
	}
	before := spillDirHashes(t, dir)
	if err := sink.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	after := spillDirHashes(t, dir)
	for file, h := range before {
		if after[file] != h {
			t.Fatalf("second Flush rewrote %s", file)
		}
	}
	if manifest, decoded := decodedSpillEdges(t, dir); manifest != edges || decoded != edges {
		t.Fatalf("after a second Flush the manifest says %d edges, the shards decode to %d, emitted %d", manifest, decoded, edges)
	}
	if err := sink.AddEdgeBatch(0, []int32{0}, []int32{1}); err == nil {
		t.Fatal("AddEdgeBatch after Flush accepted")
	}

	aborted, err := NewCSRSpillSinkWith(filepath.Join(t.TempDir(), "aborted"), cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	aborted.Abort()
	if err := aborted.AddEdgeBatch(0, []int32{0}, []int32{1}); err == nil {
		t.Fatal("AddEdgeBatch after Abort accepted")
	}
	if err := aborted.Flush(); err != nil {
		t.Fatalf("Flush after Abort: %v", err)
	}
}

// TestCSRSpillSinkRejectsBadEdges: an id outside the layout used to be
// buffered under the next (predicate, direction) and blow up in Flush;
// a negative id or an unknown predicate panicked at once. All are
// refused with an error naming the edge, alone in a one-pair batch or
// amid a longer one and on either endpoint, and the sink aborts: no
// manifest.
func TestCSRSpillSinkRejectsBadEdges(t *testing.T) {
	cfg, err := usecases.ByName("bib", 300)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewCSRSpillSinkWith(filepath.Join(t.TempDir(), "probe"), cfg, 128, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	n, preds := int32(probe.numNodes), int32(len(probe.predNames))
	if int(n)%128 == 0 {
		t.Fatalf("want a ragged last range, have %d nodes", n)
	}
	for _, e := range []struct {
		name           string
		src, pred, dst int32
	}{
		{"source far past the last node", n + 10*128, 0, 1},
		{"source in the last range's padding", n, 0, 1},
		{"target past the last node", 1, preds - 1, n + 10},
		{"negative source", -1, 0, 1},
		{"very negative source", -1 << 30, 0, 1},
		{"negative target", 1, 0, -5},
		{"predicate past the schema", 0, preds, 1},
		{"negative predicate", 0, -1, 1},
	} {
		for _, batch := range []bool{false, true} {
			dir := filepath.Join(t.TempDir(), "csr")
			sink, err := NewCSRSpillSinkWith(dir, cfg, 128, SpillCompressVarint)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.AddEdgeBatch(0, []int32{0}, []int32{1}); err != nil {
				t.Fatal(err)
			}
			if batch {
				err = sink.AddEdgeBatch(e.pred, []int32{2, e.src, 3}, []int32{3, e.dst, 2})
			} else {
				err = sink.AddEdgeBatch(e.pred, []int32{e.src}, []int32{e.dst})
			}
			if err == nil {
				t.Fatalf("%s (batch %v): accepted", e.name, batch)
			}
			if e.pred >= 0 && e.pred < preds {
				if want := fmt.Sprintf("(%d %s %d)", e.src, sink.predNames[e.pred], e.dst); !strings.Contains(err.Error(), want) {
					t.Fatalf("%s (batch %v): error %q does not name the edge %s", e.name, batch, err, want)
				}
			}
			if err := sink.Flush(); err != nil {
				t.Fatalf("%s: Flush after a refused edge: %v", e.name, err)
			}
			if _, err := OpenCSRSpill(dir); err == nil {
				t.Fatalf("%s (batch %v): a refused edge still left a manifest", e.name, batch)
			}
		}
	}
}

// TestCSRSpillDrainFailure pins the failure path of a drain that
// cannot append to a run file: a directory sits at the run path of the
// unit that spills the most pairs, so opening it fails with EISDIR
// (even as root). Emit must return that path's error and leave no
// manifest, no temp run directory and no goroutine behind.
func TestCSRSpillDrainFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(old int) { csrSpillBufferEdges = old }(csrSpillBufferEdges)
	csrSpillBufferEdges = 256

	cfg, err := usecases.ByName("lsn", 1500)
	if err != nil {
		t.Fatal(err)
	}
	// A clean run finds the unit that spills the most pairs.
	probe, err := NewCSRSpillSinkWith(filepath.Join(t.TempDir(), "csr"), cfg, 64, SpillCompressVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(cfg, Options{Seed: 19, Parallelism: 1}, probe); err != nil {
		t.Fatal(err)
	}
	unit := 0
	for u, pairs := range probe.disk {
		if pairs > probe.disk[unit] {
			unit = u
		}
	}
	if probe.disk[unit] == 0 {
		t.Fatal("no unit spilled")
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		goroutines := runtime.NumGoroutine()
		dir := filepath.Join(t.TempDir(), "csr")
		sink, err := NewCSRSpillSinkWith(dir, cfg, 64, SpillCompressVarint)
		if err != nil {
			t.Fatal(err)
		}
		blocked := sink.runPath(unit)
		if err := os.MkdirAll(blocked, 0o755); err != nil {
			t.Fatal(err)
		}
		_, err = Emit(cfg, Options{Seed: 19, Parallelism: procs}, sink)
		if err == nil || !strings.Contains(err.Error(), blocked) {
			t.Fatalf("procs %d: Emit = %v, want the error of %s", procs, err, blocked)
		}
		if _, err := OpenCSRSpill(dir); err == nil {
			t.Fatalf("procs %d: a failed drain left a manifest", procs)
		}
		if _, err := os.Stat(filepath.Join(dir, csrRunDir)); !os.IsNotExist(err) {
			t.Fatalf("procs %d: a failed drain left the temp run directory behind (err=%v)", procs, err)
		}
		for i := 0; runtime.NumGoroutine() > goroutines; i++ {
			if i == 100 {
				t.Fatalf("procs %d: %d goroutines before Emit, %d after", procs, goroutines, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// runLosingSink removes, just before the wrapped sink's Flush, the run
// files of three of its spilled units — the second, a middle one and
// the last: the "temp directory lost part of a run" failure, placed
// between emission and Flush.
type runLosingSink struct {
	*CSRSpillSink
	lost []int
}

func (s *runLosingSink) Flush() error {
	var spilled []int
	for u, pairs := range s.disk {
		if pairs > 0 {
			spilled = append(spilled, u)
		}
	}
	if len(spilled) >= 3 {
		s.lost = []int{spilled[1], spilled[len(spilled)/2], spilled[len(spilled)-1]}
	}
	for _, u := range s.lost {
		if err := os.Remove(s.runPath(u)); err != nil {
			return err
		}
	}
	return s.CSRSpillSink.Flush()
}

// TestCSRSpillFlushFailure pins the failure path of the parallel
// flush: with run files missing, Flush fails with the error of the
// lowest-index failing unit at any worker count, writes no manifest,
// removes the temp runs, replays the error on a second call, and leaves
// no goroutine behind.
func TestCSRSpillFlushFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(old int) { csrSpillBufferEdges = old }(csrSpillBufferEdges)
	csrSpillBufferEdges = 256

	cfg, err := usecases.ByName("lsn", 1500)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		goroutines := runtime.NumGoroutine()
		dir := filepath.Join(t.TempDir(), "csr")
		sink, err := NewCSRSpillSinkWith(dir, cfg, 64, SpillCompressVarint)
		if err != nil {
			t.Fatal(err)
		}
		lose := &runLosingSink{CSRSpillSink: sink}
		_, err = Emit(cfg, Options{Seed: 19, Parallelism: procs}, lose)
		if err == nil {
			t.Fatalf("procs %d: Flush succeeded over missing run files", procs)
		}
		if len(lose.lost) != 3 {
			t.Fatalf("procs %d: fewer than three units spilled", procs)
		}
		if want := sink.runPath(lose.lost[0]); !strings.Contains(err.Error(), want) {
			t.Fatalf("procs %d: error %q is not the lowest failing unit's (%s)", procs, err, want)
		}
		if again := sink.Flush(); again == nil || again.Error() != err.Error() {
			t.Fatalf("procs %d: second Flush = %v, want the first one's %v", procs, again, err)
		}
		if _, err := OpenCSRSpill(dir); err == nil {
			t.Fatalf("procs %d: a failed Flush left a manifest", procs)
		}
		if _, err := os.Stat(filepath.Join(dir, csrRunDir)); !os.IsNotExist(err) {
			t.Fatalf("procs %d: a failed Flush left the temp run directory behind (err=%v)", procs, err)
		}
		for i := 0; runtime.NumGoroutine() > goroutines; i++ {
			if i == 100 {
				t.Fatalf("procs %d: %d goroutines before Flush, %d after", procs, goroutines, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
