package querygen

import (
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gmark/internal/dist"
	"gmark/internal/query"
	"gmark/internal/schema"
)

// failSinkConfig hand-builds a tiny two-predicate schema (the internal
// test cannot import usecases, which itself imports querygen) so the
// failing-writer tests run a real generator against the sink.
func failSinkConfig(t *testing.T) Config {
	t.Helper()
	gcfg := &schema.GraphConfig{
		Nodes: 100,
		Schema: schema.Schema{
			Types: []schema.NodeType{
				{Name: "a", Occurrence: schema.Proportion(0.5)},
				{Name: "b", Occurrence: schema.Proportion(0.5)},
			},
			Predicates: []schema.Predicate{
				{Name: "p", Occurrence: schema.Proportion(0.6)},
				{Name: "q", Occurrence: schema.Proportion(0.4)},
			},
			Constraints: []schema.EdgeConstraint{
				{Source: "a", Target: "b", Predicate: "p",
					In: dist.NewGaussian(2, 1), Out: dist.NewGaussian(2, 1)},
				{Source: "b", Target: "a", Predicate: "q",
					In: dist.NewGaussian(2, 1), Out: dist.NewGaussian(2, 1)},
			},
		},
	}
	return Config{
		Graph: gcfg,
		Count: 6,
		Arity: query.Interval{Min: 2, Max: 2},
		Size: query.Size{
			Rules:     query.Interval{Min: 1, Max: 1},
			Conjuncts: query.Interval{Min: 1, Max: 2},
			Disjuncts: query.Interval{Min: 1, Max: 2},
			Length:    query.Interval{Min: 1, Max: 2},
		},
		Seed: 17,
	}
}

// errWriteFailed is the injected write failure.
var errWriteFailed = errors.New("injected: no space left on device")

// failingFile fails every write after limit bytes; Close reports
// closeErr.
type failingFile struct {
	limit    int
	closeErr error
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.limit <= 0 {
		return 0, errWriteFailed
	}
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, errWriteFailed
	}
	f.limit -= len(p)
	return len(p), nil
}

func (f *failingFile) Close() error { return f.closeErr }

// TestSyntaxDirSinkFullDisk pins the full-disk contract: when a query
// file write fails mid-run, the pipeline reports the first write
// error (from Flush here: the workload is shorter than one batch, so
// every file is written there) and a repeated Flush replays the same
// error.
func TestSyntaxDirSinkFullDisk(t *testing.T) {
	gen, err := New(failSinkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	create := func(path string) (io.WriteCloser, error) {
		return &failingFile{limit: 8}, nil
	}
	sink, err := newSyntaxDirSink(t.TempDir(), nil, create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(Options{}, sink); !errors.Is(err, errWriteFailed) {
		t.Fatalf("Emit returned %v, want the injected write error", err)
	}
	if err := sink.Flush(); !errors.Is(err, errWriteFailed) {
		t.Fatalf("second Flush returned %v, want the first error replayed", err)
	}
}

// TestSyntaxDirSinkCreateError covers the open path: a failing file
// open (disk full at create time) surfaces exactly like a failed
// write.
func TestSyntaxDirSinkCreateError(t *testing.T) {
	gen, err := New(failSinkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	openErr := errors.New("injected: open failed")
	create := func(path string) (io.WriteCloser, error) { return nil, openErr }
	sink, err := newSyntaxDirSink(t.TempDir(), nil, create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(Options{}, sink); !errors.Is(err, openErr) {
		t.Fatalf("Emit returned %v, want the injected open error", err)
	}
}

// TestSyntaxDirSinkCloseError covers deferred write-back failures
// surfacing from Close.
func TestSyntaxDirSinkCloseError(t *testing.T) {
	gen, err := New(failSinkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	closeErr := errors.New("injected: close failed")
	create := func(path string) (io.WriteCloser, error) {
		return &failingFile{limit: 1 << 30, closeErr: closeErr}, nil
	}
	sink, err := newSyntaxDirSink(t.TempDir(), nil, create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(Options{}, sink); !errors.Is(err, closeErr) {
		t.Fatalf("Emit returned %v, want the injected close error", err)
	}
}

// TestSyntaxDirSinkAddAfterFlush pins the closed-sink contract: an
// AddQuery after Flush returns an error (it used to panic sending on
// the closed writer queue) and writes no file.
func TestSyntaxDirSinkAddAfterFlush(t *testing.T) {
	gen, err := New(failSinkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.GenerateWithClass(query.Linear)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sink, err := NewSyntaxDirSink(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.AddQuery(0, q); !errors.Is(err, errSinkFlushed) {
		t.Fatalf("AddQuery after Flush returned %v, want errSinkFlushed", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("second Flush returned %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "query-*")); len(files) != 0 || sink.Count() != 0 {
		t.Errorf("flushed sink wrote %d files, counts %d queries", len(files), sink.Count())
	}
}

// TestSyntaxDirSinkReportsLowestFailedFile: when two files fail, the
// error reported is the lower-index file's, whichever failure happens
// first — the lower one is made slow, so with several writers the
// higher one fails first in time. Every later AddQuery and Flush
// replays it.
func TestSyntaxDirSinkReportsLowestFailedFile(t *testing.T) {
	gen, err := New(failSinkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	errLow := errors.New("injected: query-1.sparql failed")
	errHigh := errors.New("injected: query-4.datalog failed")
	dir := t.TempDir()
	create := func(path string) (io.WriteCloser, error) {
		switch filepath.Base(path) {
		case "query-1.sparql":
			time.Sleep(5 * time.Millisecond)
			return nil, errLow
		case "query-4.datalog":
			return nil, errHigh
		}
		return &failingFile{limit: 1 << 30}, nil
	}
	sink, err := newSyntaxDirSink(dir, nil, create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Emit(Options{}, sink); !errors.Is(err, errLow) {
		t.Fatalf("Emit returned %v, want the lower file's error", err)
	}
	if err := sink.Flush(); !errors.Is(err, errLow) {
		t.Fatalf("second Flush returned %v, want the lower file's error", err)
	}

	// A full batch fails inside AddQuery; the next AddQuery and Flush
	// replay its error.
	q, err := gen.GenerateWithClass(query.Linear)
	if err != nil {
		t.Fatal(err)
	}
	sink, err = newSyntaxDirSink(dir, nil, create)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < syntaxDirBatch-1; i++ {
		if err := sink.AddQuery(i, q); err != nil {
			t.Fatalf("AddQuery %d before the batch is full: %v", i, err)
		}
	}
	for i := syntaxDirBatch - 1; i <= syntaxDirBatch; i++ {
		if err := sink.AddQuery(i, q); !errors.Is(err, errLow) {
			t.Fatalf("AddQuery %d returned %v, want the lower file's error", i, err)
		}
	}
	if err := sink.Flush(); !errors.Is(err, errLow) {
		t.Fatalf("Flush returned %v, want the lower file's error", err)
	}
}

// TestSyntaxDirSinkHoldsNoGoroutine: a sink starts goroutines only
// while it writes a batch, so one that is never flushed — a caller
// that returns early on an error — leaves none behind.
func TestSyntaxDirSinkHoldsNoGoroutine(t *testing.T) {
	gen, err := New(failSinkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.GenerateWithClass(query.Linear)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sink, err := NewSyntaxDirSink(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("an unflushed sink holds %d goroutines", n-base)
	}
}
