package graphgen

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmark/internal/graph"
)

// errDiskFull is the injected write failure.
var errDiskFull = errors.New("injected: no space left on device")

// failAfterWriter accepts limit bytes, then fails every further write
// with a short-write error — the shape of a file system running out of
// space mid-run.
type failAfterWriter struct {
	limit    int
	closeErr error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.limit <= 0 {
		return 0, errDiskFull
	}
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

func (w *failAfterWriter) Close() error { return w.closeErr }

// fillSink pushes enough edges through the sink to overflow any
// injected byte limit, tolerating mid-stream errors (a real emission
// keeps the error and still calls Flush).
func fillSink(ps *PartitionedSink, edges int) {
	for i := 0; i < edges; i++ {
		// Errors may surface here or at Flush depending on buffering;
		// either way Flush must report the failure and write no index.
		_ = ps.AddEdgeBatch(0, []graph.NodeID{graph.NodeID(i % 97)}, []graph.NodeID{graph.NodeID((i * 31) % 97)})
	}
}

// TestPartitionedSinkFullDisk pins the full-disk contract for both
// partition modes: when an edge file write fails, Flush reports the
// first write error and does NOT finalize index.json — and a second
// Flush (combined sinks may double-flush) replays the same error
// instead of finalizing the index over partial output, which is the
// regression this test exists for.
func TestPartitionedSinkFullDisk(t *testing.T) {
	for _, binary := range []bool{false, true} {
		name := "text"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			create := func(path string) (io.WriteCloser, error) {
				return &failAfterWriter{limit: 64}, nil
			}
			ps, err := newPartitionedSink(dir, []string{"t"}, []int{100}, []string{"p"}, binary, create)
			if err != nil {
				t.Fatal(err)
			}
			fillSink(ps, 100_000)

			err = ps.Flush()
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("Flush returned %v, want the injected disk-full error", err)
			}
			if _, statErr := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(statErr) {
				t.Fatalf("index.json finalized over partial output (stat: %v)", statErr)
			}

			// The regression: a second Flush used to see only closed
			// files, compute no error, and write the index.
			err2 := ps.Flush()
			if !errors.Is(err2, errDiskFull) {
				t.Fatalf("second Flush returned %v, want the first error replayed", err2)
			}
			if _, statErr := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(statErr) {
				t.Fatal("second Flush finalized index.json after a reported write failure")
			}
		})
	}
}

// TestPartitionedSinkCloseError checks the other half of the failure
// surface: a file whose Close fails (deferred write-back error) must
// also fail Flush and suppress the index.
func TestPartitionedSinkCloseError(t *testing.T) {
	dir := t.TempDir()
	closeErr := errors.New("injected: close failed")
	create := func(path string) (io.WriteCloser, error) {
		return &failAfterWriter{limit: 1 << 30, closeErr: closeErr}, nil
	}
	ps, err := newPartitionedSink(dir, []string{"t"}, []int{100}, []string{"p"}, false, create)
	if err != nil {
		t.Fatal(err)
	}
	fillSink(ps, 10)
	if err := ps.Flush(); !errors.Is(err, closeErr) {
		t.Fatalf("Flush returned %v, want the close error", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(statErr) {
		t.Fatal("index.json finalized despite close failure")
	}
}

// TestPartitionedSinkCreateError checks that a failing file open
// surfaces from the constructor (no half-open sink escapes).
func TestPartitionedSinkCreateError(t *testing.T) {
	openErr := errors.New("injected: too many open files")
	created := 0
	create := func(path string) (io.WriteCloser, error) {
		created++
		if created > 1 {
			return nil, openErr
		}
		return &failAfterWriter{limit: 1 << 30}, nil
	}
	_, err := newPartitionedSink(t.TempDir(), []string{"t"}, []int{10}, []string{"p", "q"}, false, create)
	if !errors.Is(err, openErr) {
		t.Fatalf("constructor returned %v, want the open error", err)
	}
}

// TestPartitionedSinkFullDiskMessage makes sure the surfaced error
// names the underlying cause, not a wrapper-only message.
func TestPartitionedSinkFullDiskMessage(t *testing.T) {
	create := func(path string) (io.WriteCloser, error) {
		return &failAfterWriter{limit: 0}, nil
	}
	ps, err := newPartitionedSink(t.TempDir(), []string{"t"}, []int{10}, []string{"p"}, true, create)
	if err != nil {
		t.Fatal(err)
	}
	fillSink(ps, 10)
	if err := ps.Flush(); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("Flush error %v does not name the device failure", err)
	}
}
