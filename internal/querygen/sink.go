package querygen

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"gmark/internal/fanout"
	"gmark/internal/query"
	"gmark/internal/translate"
	"gmark/internal/workload"
)

// QuerySink consumes the queries produced by the emission stage. The
// pipeline delivers queries in ascending index order from a single
// goroutine, for any worker count — so a sink observes the identical
// call sequence for a given seed and needs no internal locking.
type QuerySink interface {
	// AddQuery consumes the index-th query of the workload. The sink
	// may keep q after it returns: the pipeline never mutates a query
	// it has delivered.
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
// AddQuery collects queries; every syntaxDirBatch of them, and at
// Flush, the batch's files are rendered and written on fanout.Each,
// each worker rendering into one reused buffer, so file creation — the
// syscall storm at 100K+-query workloads — overlaps with other files'
// writes. File contents depend only on (index, query), so the write
// order never shows in the output.
type SyntaxDirSink struct {
	dir      string
	syntaxes []translate.Syntax
	count    int
	create   func(string) (io.WriteCloser, error)

	pending []indexedQuery // added since the last batch was written
	bufs    [][]byte       // one render buffer per batch worker
	flushed bool
	err     error // the first failure, replayed by AddQuery and Flush
}

// indexedQuery is one query waiting for its batch.
type indexedQuery struct {
	index int
	q     *query.Query
}

// errSinkFlushed is AddQuery's answer once Flush has run.
var errSinkFlushed = errors.New("querygen: AddQuery on a flushed SyntaxDirSink")

// syntaxDirBatch is the number of queries AddQuery collects before
// their files are written.
const syntaxDirBatch = 64

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
	// File writes are short and I/O bound; a handful in flight hides
	// most of the per-file open/write/close latency without stressing
	// the file system.
	return &SyntaxDirSink{dir: dir, syntaxes: syntaxes, create: create,
		bufs: make([][]byte, min(8, fanout.Workers(0)))}, nil
}

// writePending renders and writes every pending query's files on
// fanout.Each — file i is query i/k in syntax i%k, for k syntaxes —
// and returns the error of the lowest-index file that failed.
func (s *SyntaxDirSink) writePending() error {
	k := len(s.syntaxes)
	err := fanout.Each(len(s.pending)*k, len(s.bufs), func(w, i int, _ *atomic.Bool) error {
		p, syn := s.pending[i/k], s.syntaxes[i%k]
		buf, err := AppendQueryFile(s.bufs[w][:0], p.index, p.q, syn)
		s.bufs[w] = buf
		if err != nil {
			return err
		}
		f, err := s.create(filepath.Join(s.dir, fmt.Sprintf("query-%d.%s", p.index, syn)))
		if err != nil {
			return err
		}
		_, err = f.Write(buf)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	clear(s.pending) // the written queries can go
	s.pending = s.pending[:0]
	return err
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

// AddQuery implements QuerySink: it keeps the query for its batch
// and writes the batch once it is full. After a failure it replays
// the first error; after Flush it returns an error.
func (s *SyntaxDirSink) AddQuery(index int, q *query.Query) error {
	if s.flushed {
		return errSinkFlushed
	}
	if s.err != nil {
		return s.err
	}
	s.pending = append(s.pending, indexedQuery{index, q})
	s.count++
	if len(s.pending) == syntaxDirBatch {
		s.err = s.writePending()
	}
	return s.err
}

// Flush implements QuerySink: it writes the last batch and reports
// the first error. The pipeline calls Flush even when emission fails;
// Flush is idempotent so combined sinks can flush twice. The sink
// must not be reused afterwards: a later AddQuery returns an error.
func (s *SyntaxDirSink) Flush() error {
	if !s.flushed {
		s.flushed = true
		if s.err == nil {
			s.err = s.writePending()
		}
		s.pending = nil
	}
	return s.err
}

// Count returns the number of queries added; once Flush has returned
// nil, every one of them is written.
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
