package querygen

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"gmark/internal/query"
	"gmark/internal/translate"
	"gmark/internal/workload"
)

// QuerySink consumes the queries produced by the emission stage. The
// pipeline delivers queries in ascending index order from a single
// goroutine, for any worker count — so a sink observes the identical
// call sequence for a given seed and needs no internal locking.
type QuerySink interface {
	// AddQuery consumes the index-th query of the workload.
	AddQuery(index int, q *query.Query) error
	// Flush finalizes the sink after the last query.
	Flush() error
}

// SliceSink materializes the workload in memory — the classical
// Generate behavior.
type SliceSink struct {
	Queries []*query.Query
}

// AddQuery implements QuerySink.
func (s *SliceSink) AddQuery(index int, q *query.Query) error {
	s.Queries = append(s.Queries, q)
	return nil
}

// Flush implements QuerySink.
func (s *SliceSink) Flush() error { return nil }

// ProfileSink streams queries into a workload diversity profile
// without materializing the workload: profiling a million-query
// workload needs memory for the histogram maps only.
type ProfileSink struct {
	acc *workload.Accumulator
}

// NewProfileSink returns an empty streaming profile sink.
func NewProfileSink() *ProfileSink {
	return &ProfileSink{acc: workload.NewAccumulator()}
}

// AddQuery implements QuerySink.
func (s *ProfileSink) AddQuery(index int, q *query.Query) error {
	s.acc.Add(q)
	return nil
}

// Flush implements QuerySink.
func (s *ProfileSink) Flush() error { return nil }

// Profile returns the accumulated profile. Equivalent to materializing
// the workload and calling workload.Analyze on it.
func (s *ProfileSink) Profile() workload.Profile { return s.acc.Profile() }

// SyntaxDirSink fans each query through internal/translate into
// per-language files under one directory, the way the original gMark
// tool emits its workload: query-<index>.<syntax> for every requested
// syntax, each file one self-contained query preceded by a comment
// header in that language's comment style.
//
// Writes are batched through a small pool of writer goroutines, each
// owning one reused bufio.Writer: the flusher goroutine only
// translates and enqueues, while file creation — the syscall storm at
// 100K+-query workloads — overlaps with generation and with other
// writes. File contents depend only on (index, query), so the
// asynchronous write order never shows in the output.
type SyntaxDirSink struct {
	dir      string
	syntaxes []translate.Syntax
	count    int
	create   func(string) (io.WriteCloser, error)

	jobs    chan dirWriteJob
	wg      sync.WaitGroup
	close   sync.Once
	flushed atomic.Bool

	mu  sync.Mutex
	err error
}

// errSinkFlushed is AddQuery's answer once Flush has closed the pool.
var errSinkFlushed = errors.New("querygen: AddQuery on a flushed SyntaxDirSink")

// dirWriteJob is one file for the writer pool.
type dirWriteJob struct {
	path    string
	content []byte
}

// syntaxDirWriters is the size of the writer pool. File writes are
// short and I/O bound; a handful of them in flight hides most of the
// per-file open/write/close latency without stressing the file
// system.
var syntaxDirWriters = min(8, runtime.GOMAXPROCS(0))

// NewSyntaxDirSink creates dir (and parents) and returns a sink
// writing the given syntaxes; nil or empty means all four. Leftover
// query files of ANY syntax from a previous run are removed — even
// syntaxes not requested this time — so the directory always describes
// exactly one workload (a fresh sparql-only run must not leave another
// workload's cypher files next to its output).
func NewSyntaxDirSink(dir string, syntaxes []translate.Syntax) (*SyntaxDirSink, error) {
	return newSyntaxDirSink(dir, syntaxes, nil)
}

// newSyntaxDirSink is the shared constructor. create opens one query
// file for writing; nil selects os.Create. Tests inject failing
// writers through it to exercise the full-disk/short-write error
// paths.
func newSyntaxDirSink(dir string, syntaxes []translate.Syntax, create func(string) (io.WriteCloser, error)) (*SyntaxDirSink, error) {
	if len(syntaxes) == 0 {
		syntaxes = translate.Syntaxes
	}
	for _, s := range syntaxes {
		if !translate.Supported(s) {
			return nil, fmt.Errorf("querygen: unknown syntax %q", s)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, s := range translate.Syntaxes {
		stale, err := filepath.Glob(filepath.Join(dir, "query-*."+string(s)))
		if err != nil {
			return nil, err
		}
		for _, path := range stale {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		}
	}
	if create == nil {
		create = func(path string) (io.WriteCloser, error) { return os.Create(path) }
	}
	s := &SyntaxDirSink{dir: dir, syntaxes: syntaxes, create: create}
	workers := syntaxDirWriters
	if workers < 1 {
		workers = 1
	}
	s.jobs = make(chan dirWriteJob, 4*workers)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		//lint:ignore concurrency a writer queue that lives from the sink's creation to its Flush, not an index loop; Flush closes jobs and waits on wg
		go s.writeLoop()
	}
	return s, nil
}

// writeLoop is one pool worker: it owns a single bufio.Writer, reset
// onto each file it creates, so steady-state writing allocates
// nothing.
func (s *SyntaxDirSink) writeLoop() {
	defer s.wg.Done()
	bw := bufio.NewWriterSize(io.Discard, 1<<15)
	for job := range s.jobs {
		if s.sticky() != nil {
			continue // an earlier write failed; drain cheaply
		}
		f, err := s.create(job.path)
		if err != nil {
			s.fail(err)
			continue
		}
		bw.Reset(f)
		_, err = bw.Write(job.content)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			s.fail(err)
		}
	}
}

func (s *SyntaxDirSink) sticky() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *SyntaxDirSink) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// AppendQueryFile appends the exact bytes SyntaxDirSink writes into
// query-<index>.<syn>: the comment header in the syntax's comment
// style, the rule lines, then the translated query text (every
// renderer ends it with a newline). It is the single definition of the
// per-query file bytes, shared by the batch sink and the slice
// server's workload windows, so a window served over HTTP cannot
// drift from the batch file. Appending into spare capacity allocates
// nothing; on error dst is returned at its original length.
func AppendQueryFile(dst []byte, index int, q *query.Query, syn translate.Syntax) ([]byte, error) {
	start := len(dst)
	c := commentPrefix(syn)
	dst = append(append(dst, c...), " gmark query "...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(append(dst, ": shape="...), q.Shape.String()...)
	if q.HasClass {
		dst = append(append(dst, " selectivity="...), q.Class.String()...)
	}
	if q.Relaxed {
		dst = append(dst, " relaxed"...)
	}
	dst = append(dst, '\n')
	for _, r := range q.Rules {
		dst = r.Append(append(append(dst, c...), "   "...))
		dst = append(dst, '\n')
	}
	dst, err := translate.AppendTo(dst, syn, q, translate.Options{})
	if err != nil {
		return dst[:start], fmt.Errorf("querygen: query %d: %w", index, err)
	}
	return dst, nil
}

// QueryFileContent is AppendQueryFile into a fresh, exactly-sized
// slice.
func QueryFileContent(index int, q *query.Query, syn translate.Syntax) ([]byte, error) {
	// Most files render into the stack scratch, leaving the exact-size
	// copy as the only allocation.
	var scratch [4096]byte
	b, err := AppendQueryFile(scratch[:0], index, q, syn)
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// AddQuery implements QuerySink: it translates the query into every
// requested syntax and hands the files to the writer pool. After Flush
// it returns an error.
func (s *SyntaxDirSink) AddQuery(index int, q *query.Query) error {
	if s.flushed.Load() {
		return errSinkFlushed
	}
	if err := s.sticky(); err != nil {
		return err // fail fast instead of translating into a dead pool
	}
	for _, syn := range s.syntaxes {
		content, err := QueryFileContent(index, q, syn)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("query-%d.%s", index, syn)
		s.jobs <- dirWriteJob{path: filepath.Join(s.dir, name), content: content}
	}
	s.count++
	return nil
}

// Flush implements QuerySink: it drains the writer pool and reports
// the first write error. The pipeline calls Flush even when emission
// fails, which is what tears the pool down; Flush is idempotent so
// combined sinks cannot double-close it. The sink must not be reused
// afterwards: a later AddQuery returns an error.
func (s *SyntaxDirSink) Flush() error {
	s.close.Do(func() {
		s.flushed.Store(true)
		close(s.jobs)
		s.wg.Wait()
	})
	return s.sticky()
}

// Count returns the number of queries written.
func (s *SyntaxDirSink) Count() int { return s.count }

// Dir returns the output directory.
func (s *SyntaxDirSink) Dir() string { return s.dir }

// Syntaxes returns the emitted syntaxes.
func (s *SyntaxDirSink) Syntaxes() []translate.Syntax { return s.syntaxes }

// commentPrefix returns the line-comment marker of a syntax (used for
// the per-file header so every emitted file parses in its language).
func commentPrefix(s translate.Syntax) string {
	switch s {
	case translate.OpenCypher:
		return "//"
	case translate.PostgreSQL:
		return "--"
	case translate.Datalog:
		return "%"
	default: // SPARQL
		return "#"
	}
}

// DiscardSink drops queries; used by benchmarks and scalability
// experiments to measure emission cost without sink cost.
type DiscardSink struct{}

// AddQuery implements QuerySink.
func (DiscardSink) AddQuery(int, *query.Query) error { return nil }

// Flush implements QuerySink.
func (DiscardSink) Flush() error { return nil }

// multiSink fans every query out to several sinks in order.
type multiSink []QuerySink

// MultiSink combines sinks: each query (and the final Flush) is
// delivered to every sink in argument order, stopping on the first
// error.
func MultiSink(sinks ...QuerySink) QuerySink { return multiSink(sinks) }

// AddQuery implements QuerySink.
func (m multiSink) AddQuery(index int, q *query.Query) error {
	for _, s := range m {
		if err := s.AddQuery(index, q); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements QuerySink. Every member is flushed — even after an
// earlier member failed — so sinks that own resources always get to
// release them; the first error is reported.
func (m multiSink) Flush() error {
	var firstErr error
	for _, s := range m {
		if err := s.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
