package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gmark/internal/graphgen"
	"gmark/internal/manifest"
	"gmark/internal/serve"
	"gmark/internal/translate"
)

// serveRanges is the number of node ranges each job's graph is cut in.
const serveRanges = 16

// serveJob is one job the clients register: its spec and the slice
// coordinate space derived from it.
type serveJob struct {
	spec   manifest.JobSpec
	body   []byte
	preds  []string
	ranges int
}

// sliceReq is one slice a client asks for. kind is "csr-f", "csr-b",
// "text" or "workload"; a workload slice is the window [from, to) in syn.
type sliceReq struct {
	job      int
	kind     string
	pred     string
	rng      int
	from, to int
	syn      translate.Syntax
}

func (r sliceReq) key() string {
	if r.kind == "workload" {
		return fmt.Sprintf("%d/workload/%d-%d/%s", r.job, r.from, r.to, r.syn)
	}
	return fmt.Sprintf("%d/%s/%s/%d", r.job, r.kind, r.pred, r.rng)
}

// group is the bucket a request's latency is reported under.
func (r sliceReq) group() string {
	switch r.kind {
	case "csr-f", "csr-b":
		return "csr"
	}
	return r.kind
}

func (r sliceReq) path(jobID string) string {
	switch r.kind {
	case "workload":
		return fmt.Sprintf("/v1/jobs/%s/workload?from=%d&to=%d&syntax=%s", jobID, r.from, r.to, r.syn)
	case "text":
		return fmt.Sprintf("/v1/jobs/%s/graph/%s/%d?enc=text", jobID, r.pred, r.rng)
	}
	return fmt.Sprintf("/v1/jobs/%s/graph/%s/%d?enc=csr&dir=%s", jobID, r.pred, r.rng, r.kind[len("csr-"):])
}

// sample is one request as its client saw it.
type sample struct {
	group string
	hit   bool
	ms    float64
	bytes int
}

// serveBench is what the two serving workloads share: the jobs, the
// reference hashes, a fresh in-process server per pass behind a real
// listener, and W closed-loop clients.
type serveBench struct {
	name       string
	jobs       []serveJob
	cacheBytes int64

	mu   sync.Mutex
	want map[string]uint32 // slice key -> CRC of its bytes

	samples  []sample // of every timed pass, for the percentiles
	register []float64
	// The latest pass: its server's counters, and the hits and misses
	// its clients read off the X-Gmark-Cache header.
	stats              serve.Stats
	lastHits, lastMiss int64
}

// buildJobs derives the jobs from the seed, and for each the batch
// reference its CSR slices must equal byte for byte.
func (b *serveBench) buildJobs(e *env, queries int) error {
	b.jobs, b.want = nil, map[string]uint32{}
	for i, s := range []struct {
		usecase string
		nodes   int
	}{{"bib", 40_000}, {"lsn", 20_000}, {"sp", 20_000}} {
		in, err := newInstance(s.usecase, e.size(s.nodes, 1600))
		if err != nil {
			return err
		}
		_, counts, preds := graphgen.Layout(in.cfg)
		nodes := 0
		for _, c := range counts {
			nodes += c
		}
		job := serveJob{preds: preds}
		job.spec = manifest.JobSpec{
			FormatVersion: manifest.JobSpecFormatVersion,
			Usecase:       s.usecase, Nodes: in.nodes, Seed: e.seed,
			ShardNodes: (nodes + serveRanges - 1) / serveRanges,
		}
		if i == 0 {
			job.spec.Workload = manifest.JobWorkloadSpec{Count: queries, Kind: "con"}
		}
		job.ranges = (nodes + job.spec.ShardNodes - 1) / job.spec.ShardNodes
		if job.body, err = manifest.EncodeJobSpec(&job.spec); err != nil {
			return err
		}
		b.jobs = append(b.jobs, job)
		if err := b.batchReference(e, i, in, job); err != nil {
			return err
		}
	}
	return nil
}

// batchReference materializes the job's instance the batch way —
// Generate, whose Freeze builds the whole adjacency at once — and
// records, under the key of each CSR slice, the CRC of the shard image
// the batch spill writers produce for it (EncodeCSRShard over the
// frozen adjacency is exactly what WriteCSRSpillFromGraph puts in each
// file, and CSRSpillSink's files are pinned byte-equal to those). It
// goes through no files: creating a few hundred of them is the least
// steady thing the sandbox does, and set-up time is a metric.
func (b *serveBench) batchReference(e *env, j int, in instance, job serveJob) error {
	g, err := generate(in, e.seed, e.w)
	if err != nil {
		return err
	}
	total := crc32.NewIEEE()
	for _, pred := range job.preds {
		for _, d := range []struct {
			kind    string
			inverse bool
		}{{"csr-f", false}, {"csr-b", true}} {
			off, adj := g.Adjacency(g.PredIndex(pred), d.inverse)
			for rng := 0; rng < job.ranges; rng++ {
				lo := rng * job.spec.ShardNodes
				hi := min(lo+job.spec.ShardNodes, g.NumNodes())
				image, err := graphgen.EncodeCSRShard(off[lo:hi+1], adj, graphgen.SpillCompressVarint)
				if err != nil {
					return err
				}
				crc := crc32.ChecksumIEEE(image)
				b.want[sliceReq{job: j, kind: d.kind, pred: pred, rng: rng}.key()] = crc
				fmt.Fprintf(total, "%08x", crc)
			}
		}
	}
	e.check(b.name+".batch-crc."+in.String(), fmt.Sprintf("%08x", total.Sum32()))
	return nil
}

// graphSlices lists every graph slice of every job: per predicate,
// ranges 0..R-1 as forward CSR, backward CSR and text.
func (b *serveBench) graphSlices() [][]sliceReq {
	var units [][]sliceReq // one unit per (job, predicate)
	for j, job := range b.jobs {
		for _, pred := range job.preds {
			var unit []sliceReq
			for _, kind := range []string{"csr-f", "csr-b", "text"} {
				for rng := 0; rng < job.ranges; rng++ {
					unit = append(unit, sliceReq{job: j, kind: kind, pred: pred, rng: rng})
				}
			}
			units = append(units, unit)
		}
	}
	return units
}

// runPass starts a server, registers the jobs, lets W clients work
// through next() until it returns false, and stops the server. It
// returns the number of successful slice requests.
func (b *serveBench) runPass(e *env, root int, next func() (sliceReq, bool)) (int64, error) {
	srv := serve.New(serve.Options{Parallelism: e.w, CacheBytes: b.cacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: srv}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		hs.Serve(ln) // returns once Shutdown is called
	}()
	base := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxIdleConnsPerHost: e.w}
	client := &http.Client{Transport: transport}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		serving.Wait()
	}()

	ids := make([]string, len(b.jobs))
	sp := e.tr.begin("serve.register", root)
	t := time.Now()
	for i, job := range b.jobs {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(job.body))
		if err != nil {
			return 0, err
		}
		var reply struct {
			JobID string `json:"job_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return 0, fmt.Errorf("registering %s: status %d, %v", job.spec.Usecase, resp.StatusCode, err)
		}
		ids[i] = reply.JobID
	}
	registerMS := float64(time.Since(t)) / 1e6
	e.tr.end(sp)

	var ok atomic.Int64
	perClient := make([][]sample, e.w)
	var clients sync.WaitGroup
	for c := 0; c < e.w; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for {
				req, more := next()
				if !more {
					return
				}
				sp := e.tr.begin("serve.GET."+req.group(), root)
				t := time.Now()
				resp, err := client.Get(base + req.path(ids[req.job]))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				ms := float64(time.Since(t)) / 1e6
				e.tr.end(sp)
				e.attempt(1)
				if err != nil {
					e.failf("%s %s: %v", b.name, req.key(), err)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					e.failf("%s %s: status %d: %s", b.name, req.key(), resp.StatusCode, body)
					continue
				}
				b.verify(e, req, body)
				ok.Add(1)
				perClient[c] = append(perClient[c], sample{req.group(), resp.Header.Get("X-Gmark-Cache") == "hit", ms, len(body)})
			}
		}(c)
	}
	clients.Wait()

	b.stats, b.lastHits, b.lastMiss = srv.Stats(), 0, 0
	for _, samples := range perClient {
		for _, s := range samples {
			if s.hit {
				b.lastHits++
			} else {
				b.lastMiss++
			}
		}
		if e.pass >= 0 { // the warm-up pass is not a sample
			b.samples = append(b.samples, samples...)
		}
	}
	if e.pass >= 0 {
		b.register = append(b.register, registerMS)
	}
	return ok.Load(), nil
}

// verify checks a slice's bytes against the batch reference where one
// exists and otherwise against the first fetch of the same key: bytes
// are a pure function of (spec, coordinates).
func (b *serveBench) verify(e *env, req sliceReq, body []byte) {
	got := crc32.ChecksumIEEE(body)
	b.mu.Lock()
	want, known := b.want[req.key()]
	if !known {
		b.want[req.key()] = got
	}
	b.mu.Unlock()
	if known && got != want {
		e.failf("%s %s: served bytes hash %08x, expected %08x", b.name, req.key(), got, want)
	}
}

// collectServe derives the serve layer's metrics from the samples of
// the timed passes and the last server's counters.
func (b *serveBench) collectServe(e *env) {
	var all, hits, misses []float64
	groups := map[string][]float64{}
	var bytesServed float64
	for _, s := range b.samples {
		all = append(all, s.ms)
		groups[s.group] = append(groups[s.group], s.ms)
		if s.hit {
			hits = append(hits, s.ms)
		} else {
			misses = append(misses, s.ms)
		}
		bytesServed += float64(s.bytes)
	}
	passes := float64(len(b.register))
	e.set("serve.req_p50_ms", median(all))
	hi, _ := highPercentile(all)
	e.set("serve.req_p99_ms", hi)
	e.set("serve.miss_p50_ms", median(misses))
	e.set("serve.hit_p50_ms", median(hits))
	e.set("serve.hit_ratio", float64(len(hits))/float64(len(all)))
	for _, g := range []string{"csr", "text", "workload"} {
		e.set("serve."+g+"_p50_ms", median(groups[g]))
	}
	e.set("serve.mb_served", bytesServed/passes/(1<<20))
	e.set("serve.register_ms", median(b.register))
	e.set("serve.cache_evictions", float64(b.stats.Cache.Evictions))
	if wall := median(e.tr.passSeconds("pass")); wall > 0 {
		e.set("serve.req_per_s", float64(len(all))/passes/wall)
	}
	// The server's own count of the last pass must agree with what the
	// clients saw in the X-Gmark-Cache header.
	if b.lastHits != b.stats.Cache.Hits || b.lastMiss != b.stats.Cache.Misses {
		e.failf("%s: clients saw %d hits and %d misses in the last pass, the server counted %d and %d",
			b.name, b.lastHits, b.lastMiss, b.stats.Cache.Hits, b.stats.Cache.Misses)
	}
}

// probeEmitPredicate prices what a slice miss pays today: one
// EmitPredicate per request. It sums EmitPredicate over each job's
// predicates and compares with one full Emit of the job.
func (b *serveBench) probeEmitPredicate(e *env) error {
	var perPred, full float64
	for _, job := range b.jobs {
		in, err := newInstance(job.spec.Usecase, job.spec.Nodes)
		if err != nil {
			return err
		}
		opt := graphgen.Options{Seed: e.seed, Parallelism: e.w}
		s, err := bestOf(2, func() error {
			for _, pred := range job.preds {
				if _, err := graphgen.EmitPredicate(in.cfg, opt, pred, &discardSink{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		perPred += s
		if s, err = bestOf(2, func() error { _, err := graphgen.Emit(in.cfg, opt, &discardSink{}); return err }); err != nil {
			return err
		}
		full += s
	}
	e.set("graphgen.emit_predicate_s", perPred)
	e.set("graphgen.emit_predicate_over_emit", perPred/full)
	return nil
}

// ---- serve-sweep ----

// serveSweep is a loader pulling instances shard by shard: every graph
// slice of every job exactly once, so the slice cache never hits and
// each request pays a whole-predicate emission.
type serveSweep struct {
	serveBench
	units [][]sliceReq
}

func (s *serveSweep) setup(e *env) error {
	s.name = "serve-sweep"
	if err := s.buildJobs(e, 0); err != nil {
		return err
	}
	s.units = s.graphSlices()
	return nil
}

func (s *serveSweep) pass(e *env, root int) (int64, error) {
	// Clients take whole predicates; inside one they go slice by slice.
	var mu sync.Mutex
	unit, pos := 0, 0
	next := func() (sliceReq, bool) {
		mu.Lock()
		defer mu.Unlock()
		for unit < len(s.units) && pos == len(s.units[unit]) {
			unit, pos = unit+1, 0
		}
		if unit == len(s.units) {
			return sliceReq{}, false
		}
		pos++
		return s.units[unit][pos-1], true
	}
	return s.runPass(e, root, next)
}

func (s *serveSweep) probes(e *env) error { return s.probeEmitPredicate(e) }

func (s *serveSweep) collect(e *env) {
	s.collectServe(e)
	preds := 0
	for _, job := range s.jobs {
		preds += len(job.preds)
	}
	// Today every miss re-emits its predicate; one emission per
	// predicate would be the least possible.
	e.set("serve.emissions_per_predicate", float64(s.stats.Cache.Misses)/float64(preds))
}

// ---- serve-hot ----

// serveHot is the same server used the other way: requests drawn with
// Zipf popularity over all graph slices and workload windows, against a
// slice cache smaller than the key universe.
type serveHot struct {
	serveBench
	requests []sliceReq
}

// popularitySeed fixes which slices are the popular ones. A miss costs
// a whole-predicate emission and predicates differ widely in size, so
// which keys the head of the Zipf curve lands on moved a pass by a
// third from seed to seed; like the schemas it is part of the
// workload, and the run's -seed drives the instances and the request
// sequence.
const popularitySeed = 7

func (s *serveHot) setup(e *env) error {
	s.name = "serve-hot"
	s.cacheBytes = 2 << 20
	queries := e.size(2000, 200)
	if err := s.buildJobs(e, queries); err != nil {
		return err
	}
	var universe []sliceReq
	for _, unit := range s.graphSlices() {
		universe = append(universe, unit...)
	}
	const window = 50
	for _, syn := range translate.Syntaxes {
		for from := 0; from+window <= queries; from += window {
			universe = append(universe, sliceReq{job: 0, kind: "workload", from: from, to: from + window, syn: syn})
		}
	}
	rand.New(rand.NewSource(popularitySeed)).Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	rng := rand.New(rand.NewSource(e.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(universe)-1))
	s.requests = make([]sliceReq, e.size(3000, 100))
	for i := range s.requests {
		s.requests[i] = universe[zipf.Uint64()]
	}
	return nil
}

func (s *serveHot) pass(e *env, root int) (int64, error) {
	var cursor atomic.Int64
	next := func() (sliceReq, bool) {
		i := int(cursor.Add(1)) - 1
		if i >= len(s.requests) {
			return sliceReq{}, false
		}
		return s.requests[i], true
	}
	return s.runPass(e, root, next)
}

func (s *serveHot) probes(e *env) error { return s.probeEmitPredicate(e) }

func (s *serveHot) collect(e *env) { s.collectServe(e) }
