package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs. The harness calls
// setup several times (set-up time is a metric of its own), then one
// untimed warm-up pass, then timed passes until the run's seconds are
// used up; probes runs only in a traced run, after the passes.
type workload interface {
	// setup builds the inputs and the reference outputs from e.seed,
	// replacing whatever an earlier call built.
	setup(e *env) error
	// pass runs the timed body once under the given root span and
	// returns how many units of work (edges, queries, requests) it
	// delivered. Verification failures go through e.failf.
	pass(e *env, root int) (units int64, err error)
	// probes takes the isolated per-layer measurements of a traced run.
	probes(e *env) error
	// collect turns what the timed passes recorded (spans, counters)
	// into per-layer metrics.
	collect(e *env)
}

// workloadDef names a workload, says why it exists and what its unit of
// work is, and builds a fresh instance of it.
type workloadDef struct {
	name string
	why  string
	unit string
	make func() workload
}

// env is what a workload sees of the run: the seed, the parallelism,
// the scale, a scratch directory, the tracer, and the places it reports
// operations, failures, exact fingerprints and per-layer numbers.
type env struct {
	seed  int64
	w     int  // parallelism of everything: min(GOMAXPROCS, 4)
	smoke bool // sizes / 100, one pass: compile-and-gates check only
	tmp   string
	tr    *tracer
	pass  int // the timed pass under way, -1 outside one (set-up, warm-up, probes)

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	layer     map[string]float64
	checks    map[string]string
	cleanups  []func()
}

// size scales a node or query count down for -smoke, never below floor.
func (e *env) size(n, floor int) int {
	if !e.smoke {
		return n
	}
	if n /= 100; n < floor {
		n = floor
	}
	return n
}

// attempt counts n verified operations.
func (e *env) attempt(n int64) {
	e.mu.Lock()
	e.attempted += n
	e.mu.Unlock()
}

// failf counts one failed operation (a verification mismatch, an error
// status, an exceeded budget) and keeps the first few messages.
func (e *env) failf(format string, args ...any) {
	e.mu.Lock()
	e.failed++
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// set records one per-layer metric.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	e.layer[name] = v
	e.mu.Unlock()
}

// check records a fingerprint (a CRC, a count) that must repeat exactly
// between two runs of one commit with one seed; a second value for the
// same key within a run is a failure.
func (e *env) check(key, value string) {
	e.mu.Lock()
	old, seen := e.checks[key]
	e.checks[key] = value
	e.mu.Unlock()
	if seen && old != value {
		e.failf("fingerprint %s changed within the run: %s, then %s", key, old, value)
	}
}

// afterClock defers work (removing a scratch directory) until the clock
// of the set-up or pass under way has stopped: deleting files is the
// least steady thing the sandbox does.
func (e *env) afterClock(f func()) { e.cleanups = append(e.cleanups, f) }

func (e *env) runCleanups() {
	for _, f := range e.cleanups {
		f()
	}
	e.cleanups = nil
}

// mkdir makes a fresh scratch directory under the run's own.
func (e *env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the contract's result line: exactly these four keys.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is everything one run of one workload produced; -out stores it
// and -compare reads it back.
type result struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	W          int     `json:"w"`
	Unit       string  `json:"unit_of_work"`

	// Raw seconds, as the clock read them, and the yardstick readings
	// taken between them.
	SetupS      []float64         `json:"setup_s"`
	SetupYardS  []float64         `json:"setup_yardstick_s"`
	WarmupS     float64           `json:"warmup_s"`
	PassWallS   []float64         `json:"pass_wall_s"`
	PassYardS   []float64         `json:"pass_yardstick_s"`
	PassUnits   []int64           `json:"pass_units"`
	RunWallS    float64           `json:"run_wall_s"`
	Fingerprint map[string]string `json:"fingerprints"`
	Failures    []string          `json:"failures,omitempty"`

	verdict
}

// A run sets up at least minSetups times, and keeps setting up until
// the set-ups have taken setupSeconds in all or maxSetups are done:
// set-up time is reported as the median, and what steadies a median
// here is the stretch of time its samples cover, so a set-up of 30 ms
// is repeated dozens of times where one of a second is repeated thrice.
// The yardstick is read between set-ups once yardstickEvery seconds of
// them have gone by.
const (
	minSetups      = 3
	maxSetups      = 100
	setupSeconds   = 1.5
	yardstickEvery = 0.25
)

// minPasses is the least number of timed passes whatever the seconds.
const minPasses = 5

// runOptions is what the command line decides about one run.
type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	tmpRoot string // scratch files go under here
	outDir  string // non-empty: keep the result (and trace) here
}

// runWorkload runs one workload in this process and returns its result.
func runWorkload(def workloadDef, opt runOptions) (*result, error) {
	started := time.Now()
	seed, seconds, traced, smoke := opt.seed, opt.seconds, opt.traced, opt.smoke
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opt.tmpRoot, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	e := &env{
		seed: seed, w: parallelism(), smoke: smoke, tmp: tmp, tr: newTracer(), pass: -1,
		layer: map[string]float64{}, checks: map[string]string{},
	}
	res := &result{
		Workload: def.name, Traced: traced, Seed: seed, Seconds: seconds, Smoke: smoke,
		GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), W: e.w, Unit: def.unit,
	}
	w := def.make()
	yard := newYardstick(e.w)
	if !smoke { // a smoke run measures nothing
		yard.settle()
	}

	res.SetupYardS = yard.readings(res.SetupYardS)
	for total, sinceYard := 0.0, 0.0; ; {
		runtime.GC()
		t := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		s := time.Since(t).Seconds()
		e.runCleanups()
		res.SetupS = append(res.SetupS, s)
		total += s
		n := len(res.SetupS)
		done := smoke || n >= maxSetups || (n >= minSetups && total >= setupSeconds)
		// Set-ups of a few milliseconds share a yardstick slot, or the
		// yardstick would take longer than what it measures.
		if sinceYard += s; done || sinceYard >= yardstickEvery {
			res.SetupYardS = yard.readings(res.SetupYardS)
			sinceYard = 0
		}
		if done {
			break
		}
	}

	least := minPasses
	if traced {
		least++ // traced and untraced passes alternate; keep three of each
	}
	if smoke {
		least, seconds = 1, 0
	}
	var tracedWall, plainWall []float64
	var rates, allocMB, mallocsK, numGC, cpuS []float64
	measureStart := time.Now()
	for pass := -1; ; pass++ {
		warmup := pass < 0
		if !warmup && pass >= least && time.Since(measureStart).Seconds() >= seconds {
			break
		}
		spans := traced && !warmup && (pass%2 == 0 || smoke)
		e.pass = pass
		e.tr.setPass(pass, spans)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		t := time.Now()
		root := e.tr.begin("pass", noSpan)
		units, err := w.pass(e, root)
		e.tr.end(root)
		wall := time.Since(t).Seconds()
		cpu1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		e.pass = -1
		e.tr.setPass(-1, false)
		e.runCleanups()
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", def.name, pass, err)
		}
		res.PassYardS = yard.readings(res.PassYardS)
		if warmup {
			res.WarmupS = wall
			measureStart = time.Now()
			continue
		}
		res.PassWallS = append(res.PassWallS, wall)
		res.PassUnits = append(res.PassUnits, units)
		rates = append(rates, float64(units)/wall)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		mallocsK = append(mallocsK, float64(m1.Mallocs-m0.Mallocs)/1e3)
		numGC = append(numGC, float64(m1.NumGC-m0.NumGC))
		cpuS = append(cpuS, cpu1-cpu0)
		if spans {
			tracedWall = append(tracedWall, wall)
		} else {
			plainWall = append(plainWall, wall)
		}
	}

	res.Metrics = map[string]metricValue{}
	if traced {
		e.tr.setPass(-1, true) // probes record spans too, outside any pass
		if err := w.probes(e); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", def.name, err)
		}
		e.tr.setPass(-1, false)
		w.collect(e)
		e.set("proc.alloc_mb", median(allocMB))
		e.set("proc.mallocs_k", median(mallocsK))
		e.set("proc.num_gc", median(numGC))
		e.set("proc.cpu_s", median(cpuS))
		e.set("proc.warmup_s", res.WarmupS)
		e.set("proc.raw_wall_s", median(res.PassWallS))
		e.set("proc.yardstick_ms", 1e3*median(res.PassYardS))
		if len(plainWall) > 0 && len(tracedWall) > 0 {
			e.set("trace.overhead_ratio", median(tracedWall)/median(plainWall))
		}
		// Every per-layer metric is printed by every workload; a layer
		// this workload does not drive reads 0.
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: e.layer[d.Name], Unit: d.Unit}
		}
		for name := range e.layer {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %q is not declared", def.name, name)
			}
		}
	} else {
		passYard := median(res.PassYardS)
		res.Metrics["setup_s"] = metricValue{normalise(median(res.SetupS), median(res.SetupYardS)), "s"}
		res.Metrics["wall_s"] = metricValue{normalise(median(res.PassWallS), passYard), "s"}
		res.Metrics["units_per_s"] = metricValue{median(rates) / normalise(1, passYard), "1/s"}
		res.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	}

	res.Attempted, res.Failed = e.attempted, e.failed
	res.Correct = e.failed == 0 && e.attempted > 0
	res.Failures = e.failures
	res.Fingerprint = e.checks
	res.RunWallS = time.Since(started).Seconds()
	if opt.outDir != "" {
		if err := res.store(opt.outDir); err != nil {
			return nil, err
		}
		if traced {
			if err := e.tr.write(filepath.Join(opt.outDir, "trace-"+def.name+".json"), def.name); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// parallelism is W: every Parallelism, Workers and client count in the
// benchmark. Capped so a large machine measures the same program shape.
func parallelism() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// print writes the human-readable block and, last, the verdict line.
func (r *result) print() error {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# gmark-perf %s seed=%d %s  %s GOMAXPROCS=%d W=%d  passes=%d set-ups=%d warm-up=%.3fs run=%.1fs  unit=%s\n",
		r.Workload, r.Seed, mode, r.GoVersion, r.GoMaxProcs, r.W, len(r.PassWallS), len(r.SetupS), r.WarmupS, r.RunWallS, r.Unit)
	fmt.Printf("# raw medians: pass %.4fs (spread %.3f within the run), set-up %.4fs; yardstick %.1fms between passes, %.1fms between set-ups (nominal %.0fms)\n",
		median(r.PassWallS), spread(r.PassWallS), median(r.SetupS), 1e3*median(r.PassYardS), 1e3*median(r.SetupYardS), 1e3*yardstickNominal)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if r.Traced && m.Value == 0 {
			continue // a layer this workload does not drive
		}
		fmt.Printf("%-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(r.verdict)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// store writes the full result under dir for -compare and the README.
func (r *result) store(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultFileName(r.Workload, r.Traced)), data, 0o644)
}

func resultFileName(workload string, traced bool) string {
	if traced {
		return "result-" + workload + "-traced.json"
	}
	return "result-" + workload + ".json"
}
