package main

import (
	"fmt"
	"hash"
	"hash/crc32"
	"os"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/selectivity"
	"gmark/internal/translate"
	"gmark/internal/usecases"
	profile "gmark/internal/workload"
)

// allClasses is the selectivity-class list of every classed workload.
var allClasses = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}

// renderSink renders each query in all four syntaxes, exactly the bytes
// SyntaxDirSink would put in files, into a CRC.
type renderSink struct {
	crc     hash.Hash32
	queries int
}

func (r *renderSink) AddQuery(index int, q *query.Query) error {
	for _, syn := range translate.Syntaxes {
		content, err := querygen.QueryFileContent(index, q, syn)
		if err != nil {
			return err
		}
		r.crc.Write(content)
	}
	r.queries++
	return nil
}

func (r *renderSink) Flush() error { return nil }

// qgenJob is one (use case, workload kind) preset of the qgen workload.
type qgenJob struct {
	name   string
	cfg    querygen.Config
	refCRC uint32
}

// qgen is the query half of the paper: workload generation, selectivity
// estimation and translation; no graph is generated or evaluated.
type qgen struct {
	jobs []qgenJob
}

func (g *qgen) setup(e *env) error {
	g.jobs = nil
	for _, uc := range usecases.Names {
		in, err := newInstance(uc, 100_000)
		if err != nil {
			return err
		}
		for _, kind := range []string{"con", "rec"} {
			cfg, err := usecases.Workload(kind, in.cfg, e.seed)
			if err != nil {
				return err
			}
			cfg.Count = e.size(1000, 20)
			cfg.Classes = allClasses
			job := qgenJob{name: uc + "." + kind, cfg: cfg}
			n, crc, err := g.generate(e, job, 1, noSpan)
			if err != nil {
				return err
			}
			if n != cfg.Count {
				return fmt.Errorf("qgen %s: %d queries delivered, %d configured", job.name, n, cfg.Count)
			}
			job.refCRC = crc
			e.check("qgen.crc."+job.name, fmt.Sprintf("%08x", crc))
			g.jobs = append(g.jobs, job)
		}
	}
	return nil
}

// generate builds a generator for the job and emits its workload into a
// renderSink, returning the query count and the CRC of all renderings.
func (g *qgen) generate(e *env, job qgenJob, par, parent int) (int, uint32, error) {
	sp := e.tr.begin("querygen.New", parent)
	gen, err := querygen.New(job.cfg)
	e.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sink := &renderSink{crc: crc32.NewIEEE()}
	sp = e.tr.begin("querygen.Emit>render", parent)
	n, err := gen.Emit(querygen.Options{Parallelism: par}, sink)
	e.tr.end(sp)
	return n, sink.crc.Sum32(), err
}

func (g *qgen) pass(e *env, root int) (int64, error) {
	var total int64
	for _, job := range g.jobs {
		n, crc, err := g.generate(e, job, e.w, root)
		if err != nil {
			return 0, err
		}
		e.attempt(int64(n))
		if crc != job.refCRC || n != job.cfg.Count {
			e.failf("qgen %s: parallel renderings (crc %08x, %d queries) differ from the sequential ones (crc %08x, %d)",
				job.name, crc, n, job.refCRC, job.cfg.Count)
		}
		total += int64(n)
	}
	return total, nil
}

func (g *qgen) probes(e *env) error {
	var newS, emitS, emitSeqS, windowS, estNewS, analyzeS float64
	var estimateS float64
	translateS := map[translate.Syntax]float64{}
	queries := 0
	for _, job := range g.jobs {
		var gen *querygen.Generator
		s, err := bestOf(2, func() (err error) { gen, err = querygen.New(job.cfg); return err })
		if err != nil {
			return err
		}
		newS += s
		if s, err = bestOf(2, func() error {
			_, err := gen.Emit(querygen.Options{Parallelism: e.w}, querygen.DiscardSink{})
			return err
		}); err != nil {
			return err
		}
		emitS += s
		if s, err = seconds(func() error { _, err := gen.Emit(querygen.Options{Parallelism: 1}, querygen.DiscardSink{}); return err }); err != nil {
			return err
		}
		emitSeqS += s
		window := 50
		if window > job.cfg.Count {
			window = job.cfg.Count
		}
		if s, err = bestOf(3, func() error {
			_, err := gen.EmitWindow(querygen.Options{Parallelism: e.w}, job.cfg.Count-window, job.cfg.Count, querygen.DiscardSink{})
			return err
		}); err != nil {
			return err
		}
		windowS += s

		qs, err := gen.GenerateWith(querygen.Options{Parallelism: e.w})
		if err != nil {
			return err
		}
		queries += len(qs)
		var est *selectivity.Estimator
		if s, err = bestOf(3, func() (err error) { est, err = selectivity.NewEstimator(&job.cfg.Graph.Schema); return err }); err != nil {
			return err
		}
		estNewS += s
		if s, err = bestOf(2, func() error {
			for _, q := range qs {
				if _, _, err := est.EstimateClass(q); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		estimateS += s
		for _, syn := range translate.Syntaxes {
			if s, err = bestOf(2, func() error {
				for _, q := range qs {
					if _, err := translate.To(syn, q, translate.Options{}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			translateS[syn] += s
		}
		s, _ = bestOf(2, func() error {
			if p := profile.Analyze(qs); p.Count != len(qs) {
				return fmt.Errorf("workload.Analyze counted %d of %d queries", p.Count, len(qs))
			}
			return nil
		})
		analyzeS += s
	}
	e.set("querygen.new_s", newS)
	e.set("querygen.emit_s", emitS)
	e.set("querygen.emit_seq_s", emitSeqS)
	e.set("querygen.window_s", windowS/float64(len(g.jobs)))
	e.set("selectivity.estimator_new_s", estNewS)
	e.set("selectivity.estimate_us_per_query", estimateS*1e6/float64(queries))
	for syn, s := range translateS {
		e.set("translate."+string(syn)+"_us_per_query", s*1e6/float64(queries))
	}
	e.set("workload.analyze_s", analyzeS)

	// SyntaxDirSink: the file-writing sink, one job's queries on disk.
	dir, err := e.mkdir("syntaxdir-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	job := g.jobs[0]
	gen, err := querygen.New(job.cfg)
	if err != nil {
		return err
	}
	s, err := seconds(func() error {
		sink, err := querygen.NewSyntaxDirSink(dir, nil)
		if err != nil {
			return err
		}
		_, err = gen.Emit(querygen.Options{Parallelism: e.w}, sink)
		return err
	})
	e.set("querygen.syntaxdir_s", s)
	return err
}

func (g *qgen) collect(e *env) {}
