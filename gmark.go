// Package gmark is a Go implementation of gMark, the schema-driven
// graph instance and query workload generator of Bagan, Bonifati,
// Ciucanu, Fletcher, Lemay and Advokaat (ICDE 2017, arXiv:1511.08386).
//
// gMark generates directed edge-labeled graphs from a declarative
// graph configuration — node types and edge predicates with occurrence
// constraints, plus in-/out-degree distributions per (source type,
// target type, predicate) triple — and generates query workloads of
// unions of conjunctive regular path queries (UCRPQs) coupled to the
// same schema, with control over arity, shape, size, recursion
// probability and, uniquely, the expected selectivity class (constant,
// linear or quadratic) of every generated query.
//
// The package is a facade over the implementation packages: it
// re-exports the configuration vocabulary, the generators, the four
// concrete-syntax translators (SPARQL, openCypher, PostgreSQL SQL,
// Datalog), the reference UCRPQ evaluator, and the four simulated
// query engines used by the paper's system study.
//
// # Quick start
//
//	cfg := gmark.Bib(10000)                                        // Fig. 2's schema
//	g, _ := gmark.GenerateGraph(cfg, gmark.GenOptions{Seed: 42})   // a 10K-node instance
//	wl, _ := gmark.Workload("con", cfg, 42)                        // workload config
//	gen, _ := gmark.NewWorkloadGenerator(wl)
//	q, _ := gen.GenerateWithClass(gmark.Linear)                    // a linear query
//	sparql, _ := gmark.Translate(gmark.SPARQL, q)                  // concrete syntax
//	n, _ := gmark.Count(g, q, gmark.Budget{}, gmark.EvalOptions{}) // |Q(G)|
//
// Each verb has one entry point taking an options struct whose zero
// value selects the defaults.
package gmark

import (
	"time"

	"gmark/internal/dist"
	"gmark/internal/engines"
	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/manifest"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/schema"
	"gmark/internal/selectivity"
	"gmark/internal/serve"
	"gmark/internal/translate"
	"gmark/internal/usecases"
	"gmark/internal/workload"
)

// Configuration vocabulary (paper, Definitions 3.1, 3.2 and 3.5).
type (
	// Schema is a graph schema S = (Sigma, Theta, T, eta).
	Schema = schema.Schema
	// GraphConfig is a graph configuration G = (n, S).
	GraphConfig = schema.GraphConfig
	// NodeType is one element of Theta with its occurrence constraint.
	NodeType = schema.NodeType
	// Predicate is one element of Sigma with its occurrence constraint.
	Predicate = schema.Predicate
	// EdgeConstraint is one eta entry with its degree distributions.
	EdgeConstraint = schema.EdgeConstraint
	// Occurrence is a fixed or proportional occurrence constraint.
	Occurrence = schema.Occurrence
	// Distribution is a degree distribution (uniform/gaussian/zipfian).
	Distribution = dist.Distribution
	// WorkloadConfig is a query workload configuration
	// (G, #q, ar, f, e, p_r, t).
	WorkloadConfig = querygen.Config
)

// Occurrence and distribution constructors.
var (
	// Proportion builds an occurrence constraint relative to |G|.
	Proportion = schema.Proportion
	// Fixed builds a constant occurrence constraint.
	Fixed = schema.Fixed
	// NewUniform builds the integer uniform distribution on [min,max].
	NewUniform = dist.NewUniform
	// NewGaussian builds the Gaussian distribution with mu, sigma.
	NewGaussian = dist.NewGaussian
	// NewZipfian builds the Zipfian distribution with exponent s.
	NewZipfian = dist.NewZipfian
	// Unspecified marks a non-specified distribution.
	Unspecified = dist.Unspecified
)

// Graph instances.
type (
	// Graph is a generated directed edge-labeled graph instance.
	Graph = graph.Graph
	// Edge is one labeled edge of a Graph.
	Edge = graph.Edge
	// NodeID identifies a node (dense in [0, NumNodes)).
	NodeID = graph.NodeID
	// PredID identifies a predicate in the graph's dictionary.
	PredID = graph.PredID
)

// GenOptions tunes graph generation: Seed fixes the instance,
// Parallelism sets the number of shard-emission workers (0 =
// GOMAXPROCS; output is identical for any worker count at a fixed
// seed), and ShardEdges sets the intra-constraint shard granularity
// (0 = default; shard boundaries never depend on the worker count, so
// they select the instance, not the schedule).
type GenOptions = graphgen.Options

// Graph-side sinks: edges stream out of the generation pipeline in a
// deterministic order into an EdgeSink.
type (
	// EdgeSink receives generated edges; plug a custom one into
	// EmitGraph to route generation output anywhere (a database
	// loader, a network writer, ...).
	EdgeSink = graphgen.EdgeSink
	// GraphPartitionedSink writes one edge-list file per predicate
	// plus a JSON index, for parallel downstream loading.
	GraphPartitionedSink = graphgen.PartitionedSink
	// GraphCSRSpillSink spills node-range-sharded binary CSR files
	// (both directions) plus a manifest, for out-of-core evaluation.
	GraphCSRSpillSink = graphgen.CSRSpillSink
	// GraphPartitionIndex is the JSON index of a partitioned
	// directory.
	GraphPartitionIndex = graphgen.PartitionIndex
	// GraphCSRSpill is an opened CSR spill directory.
	GraphCSRSpill = graphgen.CSRSpill
	// GraphSpillCompression selects the on-disk shard encoding of a
	// CSR spill: raw legacy v2, delta-varint v3, or varint plus a
	// per-shard DEFLATE frame.
	GraphSpillCompression = graphgen.SpillCompression
)

// Spill shard encodings (see docs/FORMATS.md for the byte layouts).
const (
	// GraphSpillCompressNone writes raw uint32 shards and a
	// format_version 2 manifest — byte-identical to the legacy
	// writer.
	GraphSpillCompressNone = graphgen.SpillCompressNone
	// GraphSpillCompressVarint writes delta-varint v3 shards, the
	// default: ~3x smaller than raw with negligible decode cost.
	GraphSpillCompressVarint = graphgen.SpillCompressVarint
	// GraphSpillCompressDeflate writes v3 shards wrapped in a
	// per-shard DEFLATE frame whenever the frame is smaller
	// (~4-5x smaller than raw, slower cold loads).
	GraphSpillCompressDeflate = graphgen.SpillCompressDeflate
	// GraphSpillCompressZstd is the reserved zstd codec; writers and
	// readers reject it until a zstd coder ships.
	GraphSpillCompressZstd = graphgen.SpillCompressZstd
	// GraphSpillCompressRaw writes 8-byte-aligned fixed-width shards
	// behind a page-padded header, interpretable in place — the format
	// OpenGraphSpill's Mmap option serves zero-copy.
	GraphSpillCompressRaw = graphgen.SpillCompressRaw
)

// Graph sink constructors and loaders.
var (
	// NewGraphPartitionedSink opens a per-predicate partition
	// directory for writing.
	NewGraphPartitionedSink = graphgen.NewPartitionedSink
	// NewGraphBinaryPartitionedSink opens a partition directory whose
	// per-predicate edge files are binary delta-varint pairs instead
	// of text lines.
	NewGraphBinaryPartitionedSink = graphgen.NewBinaryPartitionedSink
	// NewGraphCSRSpillSink opens a CSR spill directory for writing
	// shards in the given encoding (shardNodes 0 = default node-range
	// width).
	NewGraphCSRSpillSink = graphgen.NewCSRSpillSinkWith
	// NewGraphWriterSink writes the configuration's edge-list header
	// to w and returns a sink streaming every edge after it: passed to
	// EmitGraph it generates an instance straight to w without
	// materializing it, for very large configurations (see Table 3's
	// 100M-node scale).
	NewGraphWriterSink = graphgen.NewWriterSink
	// ParseGraphSpillCompression parses a -spill-compress style name
	// ("none", "raw", "varint", "deflate", "zstd") into a
	// GraphSpillCompression.
	ParseGraphSpillCompression = graphgen.ParseSpillCompression
	// LoadPartitionedGraph reads a partition directory back into a
	// frozen in-memory graph, predicate-parallel.
	LoadPartitionedGraph = graphgen.LoadPartitioned
	// OpenGraphCSRSpill reads the manifest of a CSR spill directory.
	OpenGraphCSRSpill = graphgen.OpenCSRSpill
	// WriteGraphCSRSpill spills an already-frozen graph's adjacency
	// into a CSR spill directory, in the given shard encoding, without
	// rebuilding it.
	WriteGraphCSRSpill = graphgen.WriteCSRSpillFromGraphWith
	// MultiEdgeSink fans each edge out to several sinks, so one
	// generation pass can feed several output formats.
	MultiEdgeSink = graphgen.MultiEdgeSink
)

// GenerateGraph runs the linear-time generation algorithm of Fig. 5 on
// the configuration and returns the frozen in-memory instance.
func GenerateGraph(cfg *GraphConfig, opt GenOptions) (*Graph, error) {
	return graphgen.Generate(cfg, opt)
}

// EmitGraph runs the generation pipeline into an arbitrary edge sink
// and returns the number of edges delivered; with a NewGraphWriterSink
// it streams the instance without materializing it.
func EmitGraph(cfg *GraphConfig, opt GenOptions, sink EdgeSink) (int, error) {
	return graphgen.Emit(cfg, opt, sink)
}

// Queries.
type (
	// Query is a UCRPQ (Section 3.3).
	Query = query.Query
	// Rule is one query rule head <- body.
	Rule = query.Rule
	// Conjunct is one body subgoal (?x, r, ?y).
	Conjunct = query.Conjunct
	// Var is a query variable.
	Var = query.Var
	// PathExpr is a regular path expression over Sigma+.
	PathExpr = regpath.Expr
	// Shape is a structural query family (chain, star, ...).
	Shape = query.Shape
	// SelectivityClass is a target growth class of |Q(G)|.
	SelectivityClass = query.SelectivityClass
	// Interval is a closed integer interval used in size constraints.
	Interval = query.Interval
	// QuerySize is the size tuple t = (rules, conjuncts, disjuncts,
	// path lengths).
	QuerySize = query.Size
)

// Query vocabulary constants.
const (
	Chain     = query.Chain
	Star      = query.Star
	Cycle     = query.Cycle
	StarChain = query.StarChain

	Constant  = query.Constant
	Linear    = query.Linear
	Quadratic = query.Quadratic
)

// ParsePathExpr parses the textual form of a regular path expression,
// e.g. "(a.b-+c)*".
func ParsePathExpr(s string) (PathExpr, error) { return regpath.Parse(s) }

// WorkloadGenerator generates queries for one workload configuration.
type WorkloadGenerator = querygen.Generator

// NewWorkloadGenerator builds a generator (precomputing the schema
// graph, distance matrix and selectivity graph of Section 5.2.3).
func NewWorkloadGenerator(cfg WorkloadConfig) (*WorkloadGenerator, error) {
	return querygen.New(cfg)
}

// WorkloadOptions tunes workload emission: Parallelism sets the number
// of query workers (0 = GOMAXPROCS; for a fixed Config.Seed the
// emitted workload is identical for any value).
type WorkloadOptions = querygen.Options

// Workload sinks: queries stream out of the generation pipeline in
// index order into a QuerySink.
type (
	// QuerySink receives generated queries; plug a custom one into
	// EmitWorkload to route workload output anywhere.
	QuerySink = querygen.QuerySink
	// WorkloadSliceSink materializes the workload in memory.
	WorkloadSliceSink = querygen.SliceSink
	// WorkloadProfileSink streams a diversity profile without
	// materializing the workload.
	WorkloadProfileSink = querygen.ProfileSink
	// WorkloadSyntaxDirSink writes each query translated into the four
	// concrete syntaxes as per-query files under a directory.
	WorkloadSyntaxDirSink = querygen.SyntaxDirSink
)

// Workload sink constructors.
var (
	// NewWorkloadProfileSink returns an empty streaming profile sink.
	NewWorkloadProfileSink = querygen.NewProfileSink
	// NewWorkloadSyntaxDirSink returns a sink writing per-query
	// translated files under dir (nil syntaxes = all four).
	NewWorkloadSyntaxDirSink = querygen.NewSyntaxDirSink
	// MultiQuerySink fans each query out to several sinks.
	MultiQuerySink = querygen.MultiSink
)

// GenerateWorkload generates the configured workload through the
// plan/emit/sink pipeline.
func GenerateWorkload(cfg WorkloadConfig, opt WorkloadOptions) ([]*Query, error) {
	gen, err := querygen.New(cfg)
	if err != nil {
		return nil, err
	}
	return gen.GenerateWith(opt)
}

// EmitWorkload runs the workload pipeline into an arbitrary query sink
// and returns the number of queries delivered.
func EmitWorkload(cfg WorkloadConfig, opt WorkloadOptions, sink QuerySink) (int, error) {
	gen, err := querygen.New(cfg)
	if err != nil {
		return 0, err
	}
	return gen.Emit(opt, sink)
}

// Selectivity estimation (Section 5.2).
type (
	// Estimator estimates selectivity classes against one schema.
	Estimator = selectivity.Estimator
	// SelTriple is a selectivity class triple (t_A, o, t_B).
	SelTriple = selectivity.Triple
)

// NewEstimator analyzes a schema for selectivity estimation. Beyond
// the paper's binary estimator (Estimator.EstimateAlpha), the
// extension Estimator.EstimateAlphaNary covers chain rules projected
// onto any subset of their chain variables — the paper's stated future
// work.
func NewEstimator(s *Schema) (*Estimator, error) { return selectivity.NewEstimator(s) }

// Translation (Fig. 1's query translator).
type (
	// Syntax names a concrete output language.
	Syntax = translate.Syntax
	// TranslateOptions adjusts translation output.
	TranslateOptions = translate.Options
)

// The supported concrete syntaxes.
const (
	SPARQL     = translate.SPARQL
	OpenCypher = translate.OpenCypher
	PostgreSQL = translate.PostgreSQL
	Datalog    = translate.Datalog
)

// Translate renders the query in the named syntax.
func Translate(s Syntax, q *Query) (string, error) {
	return translate.To(s, q, translate.Options{})
}

// TranslateCount renders the query wrapped in the count(distinct)
// aggregate used by the paper's measurement protocol.
func TranslateCount(s Syntax, q *Query) (string, error) {
	return translate.To(s, q, translate.Options{Count: true})
}

// Evaluation.
type (
	// Budget bounds a query evaluation; the zero value is unlimited.
	Budget = eval.Budget
	// Engine is one of the simulated systems of Section 7.
	Engine = engines.Engine
	// EvalSource is the minimal graph access the evaluator needs:
	// node count, predicate lookup, adjacency, per-predicate active
	// domains and edge counts. Both *Graph and *GraphSpillSource
	// implement it.
	EvalSource = eval.Source
	// GraphSpillSource evaluates queries directly over a CSR spill
	// directory, loading node-range shards on demand into a bounded
	// LRU cache — the out-of-core complement of GenerateGraph.
	GraphSpillSource = eval.SpillSource
	// GraphSpillCacheStats reports a spill source's shard-cache
	// hit/load/eviction counters.
	GraphSpillCacheStats = eval.SpillCacheStats
	// GraphShardCache is a concurrency-safe, byte-budgeted,
	// singleflight shard cache shareable across spill sources, so a
	// fleet of concurrent evaluations holds one pooled residency.
	GraphShardCache = eval.ShardCache
	// EvalOptions tunes evaluation: Workers shards the scan
	// (0 = GOMAXPROCS, 1 = sequential; results are identical either
	// way).
	EvalOptions = eval.EvalOptions
	// GraphSpillSourceOptions configures OpenGraphSpill: the shard
	// cache budget and whether raw shards are served from zero-copy
	// memory mappings.
	GraphSpillSourceOptions = eval.SpillSourceOptions
)

var (
	// NewGraphShardCache builds a shard cache bounded by budgetBytes
	// (<= 0 selects DefaultSpillCacheBytes).
	NewGraphShardCache = eval.NewShardCache
	// NewGraphSpillSourceWith opens an evaluation source over an
	// already-opened CSR spill backed by a caller-supplied shared
	// cache; several sources may share one cache (the options'
	// CacheBytes is ignored).
	NewGraphSpillSourceWith = eval.NewSpillSourceWith
)

// DefaultSpillCacheBytes is the shard-cache budget used when
// OpenGraphSpill is called with CacheBytes <= 0.
const DefaultSpillCacheBytes = eval.DefaultSpillCacheBytes

// ErrBudget is returned when an evaluation exceeds its budget.
var ErrBudget = eval.ErrBudget

// Count evaluates the query under set semantics over any evaluation
// source — the frozen in-memory graph or an opened CSR spill, whose
// evaluation touches only the shard files its frontier reaches — and
// returns |Q(G)|, using the reference evaluator. With
// EvalOptions.Workers != 1 the streaming scan is sharded by node range
// (parallel workers share a spill's shard cache) and the count is
// pinned equal to the sequential one. A spill shard that fails to load
// fails the count.
func Count(src EvalSource, q *Query, b Budget, opt EvalOptions) (int64, error) {
	return eval.CountWith(src, q, b, opt)
}

// OpenGraphSpill opens a CSR spill directory (written by
// GraphCSRSpillSink or WriteGraphCSRSpill) for out-of-core query
// evaluation. opt.CacheBytes bounds the resident shard bytes (<= 0
// selects DefaultSpillCacheBytes); with opt.Mmap, raw shards are
// served zero-copy from memory mappings on platforms that support it
// and other encodings fall back to the decoding loader transparently.
func OpenGraphSpill(dir string, opt GraphSpillSourceOptions) (*GraphSpillSource, error) {
	return eval.OpenSpillSourceWith(dir, opt)
}

// Engines returns the four simulated systems (P, G, S, D) of the
// paper's engine comparison.
func Engines() []Engine { return engines.All() }

// EngineByName returns the simulated system with the given one-letter
// name (P, G, S, D).
var EngineByName = engines.ByName

// EngineComparison is one engine's result in a cross-engine run: the
// count it produced, how long it took, and the failure (budget
// violation, spill corruption) if it did not complete.
type EngineComparison struct {
	Engine  string
	Count   int64
	Elapsed time.Duration
	Err     error
}

// CompareEngines evaluates the query on every simulated engine over
// any evaluation source — the frozen in-memory graph or an opened CSR
// spill — and returns one result per engine in the paper's P, G, S, D
// order. Engines that support range-sharded evaluation (S and G) run
// with EvalOptions.Workers, the rest sequentially, and every count
// equals its sequential counterpart. A spill shard that fails to load
// fails the affected engine and every later one rather than passing as
// a silently small result. Engine G's recursive counts follow its
// documented openCypher rewriting, so they are comparable across
// sources but not across engines.
func CompareEngines(src EvalSource, q *Query, b Budget, opt EvalOptions) []EngineComparison {
	all := engines.All()
	out := make([]EngineComparison, 0, len(all))
	for _, eng := range all {
		//lint:ignore determinism EngineComparison.Elapsed is a reported measurement; the deterministic outputs are the counts
		start := time.Now()
		n, err := engines.EvaluateOpt(eng, src, q, b, opt)
		out = append(out, EngineComparison{
			Engine: eng.Name(),
			Count:  n,
			//lint:ignore determinism wall time of the run just measured, reported to the caller, never serialized into artifacts
			Elapsed: time.Since(start),
			Err:     err,
		})
	}
	return out
}

// Workload analysis.
type (
	// WorkloadProfile summarizes a generated workload's diversity:
	// shape/class mixes, size histograms, predicate coverage.
	WorkloadProfile = workload.Profile
)

// AnalyzeWorkload profiles a set of generated queries.
func AnalyzeWorkload(queries []*Query) WorkloadProfile { return workload.Analyze(queries) }

// Run manifests (the coupled graph+workload JSON index).
type (
	// RunManifest indexes every artifact of one generation run for
	// downstream harnesses.
	RunManifest = manifest.Manifest
	// RunManifestGraph is the manifest's graph section.
	RunManifestGraph = manifest.Graph
	// RunManifestWorkload is the manifest's workload section.
	RunManifestWorkload = manifest.Workload
)

var (
	// WriteRunManifest stores a manifest as JSON.
	WriteRunManifest = manifest.Write
	// ReadRunManifest loads and validates a manifest.
	ReadRunManifest = manifest.Read
)

// Serving (generation-as-a-service; `gmark serve`).
type (
	// SliceServer is the deterministic HTTP slice server behind
	// `gmark serve`: clients register generation jobs and fetch any
	// graph shard or workload window on demand, with slice bytes
	// pinned equal to what the batch sinks write for the same
	// coordinates. It implements http.Handler.
	SliceServer = serve.Server
	// SliceServerOptions bounds a SliceServer: the cache budget its
	// rendered slices and emitted edge columns share, job-registry size, per-job node and query ceilings, and the
	// generation parallelism behind each slice (which never changes
	// slice bytes).
	SliceServerOptions = serve.Options
	// SliceServerStats is a server's /statsz payload: request and
	// byte counters, slice-cache statistics, and the emission and
	// residency counters of the columns cache behind it.
	SliceServerStats = serve.Stats
	// SliceCacheStats reports the slice cache's hit, miss and
	// eviction counters.
	SliceCacheStats = serve.CacheStats
	// JobManifest is the /manifest payload describing one registered
	// job's slice coordinate space.
	JobManifest = serve.JobManifest
	// JobSpec is the wire format a client POSTs to register one
	// generation job.
	JobSpec = manifest.JobSpec
	// JobWorkloadSpec is the workload half of a JobSpec.
	JobWorkloadSpec = manifest.JobWorkloadSpec
)

var (
	// NewSliceServer builds a slice server with the given bounds.
	NewSliceServer = serve.New
	// EncodeJobSpec renders a job spec in its canonical wire form —
	// the bytes whose hash is the job ID.
	EncodeJobSpec = manifest.EncodeJobSpec
	// DecodeJobSpec strictly parses a wire job spec, rejecting
	// unknown fields and unsupported format versions.
	DecodeJobSpec = manifest.DecodeJobSpec
)

// Use cases (Section 6.1).
var (
	// Bib is the bibliographical motivating example (Fig. 2).
	Bib = usecases.Bib
	// LSN encodes the LDBC Social Network Benchmark schema.
	LSN = usecases.LSN
	// SP encodes the SP2Bench DBLP schema.
	SP = usecases.SP
	// WD encodes the WatDiv default schema.
	WD = usecases.WD
	// UseCase looks a use case up by name ("bib", "lsn", "sp", "wd").
	UseCase = usecases.ByName
	// Workload builds the Section 6.2 stress-test workload
	// configuration of the given kind ("len", "dis", "con", "rec").
	Workload = usecases.Workload
)
