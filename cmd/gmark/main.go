// Command gmark is the generator CLI: it reads a gMark XML
// configuration (or a built-in use case), generates a graph instance
// and a coupled query workload, and writes the graph (edge list and/or
// N-Triples), the workload (UCRPQs as XML), and the queries translated
// into the four concrete syntaxes — the full workflow of the paper's
// Fig. 1.
//
// Both generators run the same plan/emit/sink pipeline architecture:
// -parallelism controls the worker count of graph and workload
// emission alike, and output is seed-deterministic for any value.
//
// Usage:
//
//	gmark -usecase bib -nodes 10000 -queries 20 -out ./out
//	gmark -config config.xml -out ./out -ntriples
//	gmark -usecase bib -verify -syntax sparql,sql -workload-out ./queries
//	gmark -eval-spill ./out/csr -eval-query "authors-.authors" -eval-cache-mb 64
//	gmark -eval-spill ./out/csr -eval-query "(authors-.authors)*" -eval-engine all
//	gmark serve -addr :8080
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"gmark/internal/engines"
	"gmark/internal/eval"
	"gmark/internal/gconfig"
	"gmark/internal/graphgen"
	"gmark/internal/graphstat"
	"gmark/internal/manifest"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/schema"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gmark: ")

	// The serve subcommand has its own flag set; everything else is the
	// classic single-command batch CLI.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// checkWorkers rejects a negative worker-count flag: 0 already means
// all cores, and a negative count is not a second spelling of it.
func checkWorkers(flag string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s %d: a worker count is 0 (all cores) or positive", flag, n)
	}
	return nil
}

// checkLimit rejects a negative limit flag: 0 already selects the
// default, and a negative limit is not a second spelling of it.
func checkLimit(flag string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s %d: a limit is 0 (default) or positive", flag, n)
	}
	return nil
}

// mibBytes returns a MiB budget flag in bytes. It rejects a negative
// budget (0 already selects the default) and one of 2^43 MiB or more,
// whose byte count would wrap int64.
func mibBytes(flag string, n int) (int64, error) {
	if n < 0 || int64(n) > math.MaxInt64>>20 {
		return 0, fmt.Errorf("-%s %d: a MiB budget is 0 (default) or positive, below 2^43", flag, n)
	}
	return int64(n) << 20, nil
}

// run is the batch CLI: it parses args, generates (or, with
// -eval-spill, evaluates) and logs its progress to stderr.
func run(args []string, stderr io.Writer) error {
	lg := log.New(stderr, "gmark: ", 0)
	fs := flag.NewFlagSet("gmark", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		configPath  = fs.String("config", "", "gMark XML configuration file (overrides -usecase)")
		usecase     = fs.String("usecase", "bib", "built-in use case: bib, lsn, sp, wd")
		nodes       = fs.Int("nodes", 10000, "graph size (number of nodes) for built-in use cases")
		numQueries  = fs.Int("queries", 30, "number of workload queries")
		kind        = fs.String("workload", "con", "workload kind: len, dis, con, rec")
		classes     = fs.String("selectivity", "constant,linear,quadratic", "comma-separated selectivity classes, or empty to disable selectivity control")
		seed        = fs.Int64("seed", 1, "random seed")
		outDir      = fs.String("out", "out", "output directory")
		ntriples    = fs.Bool("ntriples", false, "also write the graph as N-Triples")
		checkTol    = fs.Float64("consistency", 0.25, "warn when in/out expected edge counts drift more than this fraction")
		profile     = fs.Bool("profile", false, "print the workload diversity profile to stderr (streamed; the workload is never re-scanned)")
		stream      = fs.Bool("stream", false, "stream the graph to disk without materializing it (for very large instances)")
		par         = fs.Int("parallelism", 0, "graph- and workload-generation workers (0 = all cores; output is seed-deterministic for any value)")
		shardEdges  = fs.Int("shard-edges", 0, "target edges per graph-emission shard (0 = default 128K; negative disables intra-constraint sharding)")
		partition   = fs.Bool("partition", false, "also write the graph partitioned by predicate (one edge file each + index.json) under <out>/partitioned")
		partBinary  = fs.Bool("partition-binary", false, "write -partition edge files as binary delta-varint pairs instead of text lines (severalfold smaller; implies -partition)")
		csrSpill    = fs.Bool("csr-spill", false, "also spill the graph as node-range-sharded binary CSR files under <out>/csr")
		spillComp   = fs.String("spill-compress", "varint", "CSR spill shard encoding: none (legacy v2), raw (mappable fixed-width v3), varint (delta-varint v3), deflate (varint + per-shard DEFLATE frame when smaller), zstd (reserved)")
		verify      = fs.Bool("verify", false, "check the generated instance's degree statistics against the configured distributions (materialized path only)")
		workloadOut = fs.String("workload-out", "", "directory for per-query translated files (default <out>/queries)")
		syntax      = fs.String("syntax", "sparql,cypher,sql,datalog", "comma-separated translation syntaxes for the per-query files, or empty to skip translation")
		manifestOut = fs.String("manifest", manifest.DefaultName, "filename (relative to -out) of the JSON run manifest indexing all artifacts; empty disables")
		evalSpill   = fs.String("eval-spill", "", "evaluate -eval-query over this CSR spill directory (written by -csr-spill) and exit; generation is skipped")
		evalQuery   = fs.String("eval-query", "", "regular path expression to count over the spill, e.g. \"authors-.authors\"")
		evalCacheMB = fs.Int("eval-cache-mb", 0, "shard-cache budget in MiB for -eval-spill (0 = default 256 MiB)")
		evalEngine  = fs.String("eval-engine", "", "evaluate -eval-query with a simulated engine instead of the reference evaluator: P, G, S, D, or \"all\" to compare every engine")
		evalWorkers = fs.Int("eval-workers", 0, "evaluation workers for -eval-spill (0 = all cores, 1 = sequential; counts are identical for any value)")
		evalMmap    = fs.Bool("spill-mmap", false, "serve raw (-spill-compress=raw) shards of -eval-spill zero-copy from memory mappings; other encodings fall back to decoding")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkWorkers("parallelism", *par); err != nil {
		return err
	}
	if err := checkWorkers("eval-workers", *evalWorkers); err != nil {
		return err
	}
	evalCacheBytes, err := mibBytes("eval-cache-mb", *evalCacheMB)
	if err != nil {
		return err
	}

	if *evalSpill != "" {
		return evalOverSpill(lg, *evalSpill, *evalQuery, evalCacheBytes, *evalEngine, *evalWorkers, *evalMmap)
	}
	if *evalEngine != "" {
		return errors.New("-eval-engine requires -eval-spill")
	}

	comp, err := graphgen.ParseSpillCompression(*spillComp)
	if err != nil {
		return err
	}
	if *partBinary {
		*partition = true
	}

	var gcfg *schema.GraphConfig
	var wcfg querygen.Config
	var haveWorkloadCfg bool
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		doc, err := gconfig.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		gcfg, err = doc.GraphConfig()
		if err != nil {
			return err
		}
		if w, err := doc.WorkloadConfig(); err == nil {
			wcfg = w
			haveWorkloadCfg = true
		}
	} else {
		var err error
		gcfg, err = usecases.ByName(*usecase, *nodes)
		if err != nil {
			return err
		}
	}

	for _, w := range gcfg.CheckConsistency(*checkTol) {
		lg.Printf("warning: %s", w)
	}

	if !haveWorkloadCfg {
		var err error
		wcfg, err = usecases.Workload(*kind, gcfg, *seed)
		if err != nil {
			return err
		}
		wcfg.Count = *numQueries
		wcfg.Classes = nil
		if *classes != "" {
			for _, name := range splitComma(*classes) {
				c, err := query.ParseSelectivityClass(name)
				if err != nil {
					return err
				}
				wcfg.Classes = append(wcfg.Classes, c)
			}
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// The run manifest accumulates artifact locations as they are
	// written; paths are stored relative to the output directory.
	man := manifest.Manifest{Seed: *seed, Config: *usecase}
	if *configPath != "" {
		man.Config = *configPath
	}

	var partDir, csrDir string
	if *partition {
		partDir = filepath.Join(*outDir, "partitioned")
	}
	if *csrSpill {
		csrDir = filepath.Join(*outDir, "csr")
	}

	// Graph generation: materialized by default, streaming for very
	// large instances. Both paths run the same sharded pipeline; only
	// the sinks differ — and one pass can feed several of them.
	genOpt := graphgen.Options{Seed: *seed, Parallelism: *par, ShardEdges: *shardEdges}
	graphPath := filepath.Join(*outDir, "graph.txt")
	man.Graph.EdgeList = "graph.txt"
	if *stream {
		err := writeFile(graphPath, func(w *os.File) error {
			ws, err := graphgen.NewWriterSink(w, gcfg)
			if err != nil {
				return err
			}
			sinks := []graphgen.EdgeSink{ws}
			if partDir != "" {
				ps, err := newPartSink(partDir, gcfg, *partBinary)
				if err != nil {
					return err
				}
				sinks = append(sinks, ps)
			}
			if csrDir != "" {
				cs, err := graphgen.NewCSRSpillSinkWith(csrDir, gcfg, 0, comp)
				if err != nil {
					return err
				}
				sinks = append(sinks, cs)
			}
			n, err := graphgen.Emit(gcfg, genOpt, graphgen.MultiEdgeSink(sinks...))
			if err == nil {
				lg.Printf("graph (streamed): %d nodes, %d edges", ws.Nodes(), n)
				man.Graph.Nodes, man.Graph.Edges = ws.Nodes(), n
			}
			return err
		})
		if err != nil {
			return err
		}
		if *ntriples {
			lg.Printf("note: -ntriples requires the materialized path; skipped under -stream")
		}
		if *verify {
			lg.Printf("note: -verify requires the materialized path; skipped under -stream")
		}
	} else {
		// One pipeline pass feeds the in-memory graph and every extra
		// output format with batch delivery; the graph is frozen after
		// the pass drains (exactly what graphgen.Generate does).
		gs, err := graphgen.NewGraphSinkFor(gcfg)
		if err != nil {
			return err
		}
		sinks := []graphgen.EdgeSink{gs}
		if partDir != "" {
			ps, err := newPartSink(partDir, gcfg, *partBinary)
			if err != nil {
				return err
			}
			sinks = append(sinks, ps)
		}
		if _, err := graphgen.Emit(gcfg, genOpt, graphgen.MultiEdgeSink(sinks...)); err != nil {
			return err
		}
		g := gs.Graph()
		g.Freeze()
		lg.Printf("graph: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		man.Graph.Nodes, man.Graph.Edges = g.NumNodes(), g.NumEdges()
		if partDir != "" {
			lg.Printf("partitioned: %d predicates in %s", g.NumPredicates(), partDir)
		}
		if csrDir != "" {
			// The frozen graph already holds both CSR directions;
			// spill those instead of buffering a second edge copy in a
			// CSRSpillSink and rebuilding the adjacency.
			if err := graphgen.WriteCSRSpillFromGraphWith(csrDir, g, 0, comp); err != nil {
				return err
			}
			lg.Printf("csr spill: %d predicates in %s", g.NumPredicates(), csrDir)
		}
		if *verify {
			reports := graphstat.Check(g, gcfg, *checkTol)
			bad := 0
			for _, r := range reports {
				if !r.OK {
					bad++
					lg.Printf("verify: FAIL %s", r)
				}
			}
			if bad > 0 {
				lg.Printf("verify: %d/%d distribution sides failed", bad, len(reports))
			} else {
				lg.Printf("verify: all %d distribution sides consistent with the configuration", len(reports))
			}
		}
		if err := writeFile(graphPath, func(w *os.File) error {
			return g.WriteEdgeList(w)
		}); err != nil {
			return err
		}
		if *ntriples {
			if err := writeFile(filepath.Join(*outDir, "graph.nt"), func(w *os.File) error {
				return g.WriteNTriples(w, "")
			}); err != nil {
				return err
			}
			man.Graph.NTriples = "graph.nt"
		}
	}
	if partDir != "" {
		man.Graph.PartitionedDir = "partitioned"
	}
	if csrDir != "" {
		man.Graph.CSRSpillDir = "csr"
	}

	// Workload generation: one pipeline pass fans queries out to every
	// requested sink — the in-memory slice (for the XML workload file),
	// the streaming profile, and the multi-syntax directory.
	gen, err := querygen.New(wcfg)
	if err != nil {
		return err
	}
	slice := &querygen.SliceSink{}
	sinks := []querygen.QuerySink{slice}
	var prof *querygen.ProfileSink
	if *profile {
		prof = querygen.NewProfileSink()
		sinks = append(sinks, prof)
	}
	var dirSink *querygen.SyntaxDirSink
	if *syntax != "" {
		var syns []translate.Syntax
		for _, name := range splitComma(*syntax) {
			s, err := translate.ParseSyntax(name)
			if err != nil {
				return err
			}
			syns = append(syns, s)
		}
		qdir := *workloadOut
		if qdir == "" {
			qdir = filepath.Join(*outDir, "queries")
		}
		dirSink, err = querygen.NewSyntaxDirSink(qdir, syns)
		if err != nil {
			return err
		}
		sinks = append(sinks, dirSink)
	}
	n, err := gen.Emit(querygen.Options{Parallelism: *par}, querygen.MultiSink(sinks...))
	if err != nil {
		return err
	}
	lg.Printf("workload: %d queries", n)
	if prof != nil {
		prof.Profile().Render(os.Stderr)
	}
	if err := writeFile(filepath.Join(*outDir, "workload.xml"), func(w *os.File) error {
		return gconfig.WriteQueries(w, slice.Queries)
	}); err != nil {
		return err
	}
	man.Workload.Queries = n
	man.Workload.XML = "workload.xml"
	if dirSink != nil {
		lg.Printf("translations: %d queries x %d syntaxes in %s",
			dirSink.Count(), len(dirSink.Syntaxes()), dirSink.Dir())
		man.Workload.TranslationsDir = manifest.Rel(*outDir, dirSink.Dir())
		man.Workload.FilePattern = manifest.QueryFilePattern
		for _, s := range dirSink.Syntaxes() {
			man.Workload.Syntaxes = append(man.Workload.Syntaxes, string(s))
		}
	}
	if *manifestOut != "" {
		path := *manifestOut
		if !filepath.IsAbs(path) {
			path = filepath.Join(*outDir, path)
		}
		if err := manifest.Write(path, man); err != nil {
			return err
		}
		lg.Printf("manifest: %s", path)
	}
	lg.Printf("wrote %s", *outDir)
	return nil
}

var errMissingEvalQuery = errors.New("-eval-spill requires -eval-query (a regular path expression)")

// evalOverSpill is the out-of-core evaluation mode: it opens a CSR
// spill directory, counts the distinct (source, target) pairs of one
// regular path expression over it — with the reference evaluator or a
// selected simulated engine — and reports the shard-cache behavior,
// without ever materializing the instance.
func evalOverSpill(lg *log.Logger, dir, expr string, cacheBytes int64, engine string, workers int, useMmap bool) error {
	if expr == "" {
		return errMissingEvalQuery
	}
	e, err := regpath.Parse(expr)
	if err != nil {
		return err
	}
	q := &query.Query{Rules: []query.Rule{{
		Head: []query.Var{0, 1},
		Body: []query.Conjunct{{Src: 0, Dst: 1, Expr: e}},
	}}}
	src, err := eval.OpenSpillSourceWith(dir, eval.SpillSourceOptions{
		CacheBytes: cacheBytes,
		Mmap:       useMmap,
	})
	if err != nil {
		return err
	}
	opt := eval.EvalOptions{Workers: workers}
	lg.Printf("spill: %d nodes, %d edges, %d predicates in %s",
		src.NumNodes(), src.NumEdges(), len(src.Manifest().Predicates), dir)

	switch engine {
	case "":
		n, err := eval.CountWith(src, q, eval.Budget{}, opt)
		if err != nil {
			return err
		}
		lg.Printf("count(%s) = %d", expr, n)
	case "all":
		failed := 0
		for _, eng := range engines.All() {
			start := time.Now()
			n, err := engines.EvaluateOpt(eng, src, q, eval.Budget{}, opt)
			if err != nil {
				failed++
				lg.Printf("engine %s: failed after %v: %v", eng.Name(), time.Since(start).Round(time.Millisecond), err)
				continue
			}
			lg.Printf("engine %s: count(%s) = %d in %v", eng.Name(), expr, n, time.Since(start).Round(time.Millisecond))
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d engines failed", failed, len(engines.All()))
		}
	default:
		eng, err := engines.ByName(engine)
		if err != nil {
			return err
		}
		n, err := engines.EvaluateOpt(eng, src, q, eval.Budget{}, opt)
		if err != nil {
			return err
		}
		lg.Printf("engine %s: count(%s) = %d", eng.Name(), expr, n)
	}
	st := src.CacheStats()
	lg.Printf("shard cache: %d loads (%d bytes from disk), %d hits (%d deduped in flight), %d evictions, %d bytes resident (%d mapped, peak %d)",
		st.Loads, st.DiskBytesLoaded, st.Hits, st.DedupHits, st.Evictions, st.BytesUsed, st.MappedBytes, st.PeakBytes)
	return nil
}

// newPartSink opens the partitioned sink in the mode the flags chose.
func newPartSink(dir string, gcfg *schema.GraphConfig, binary bool) (*graphgen.PartitionedSink, error) {
	if binary {
		return graphgen.NewBinaryPartitionedSink(dir, gcfg)
	}
	return graphgen.NewPartitionedSink(dir, gcfg)
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
