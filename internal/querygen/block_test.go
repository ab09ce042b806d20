package querygen_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/regpath"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// TestPathCountsHoldNarrowerWindows checks the nb_path tables built
// once per generator against tables built for each window of the
// relaxation ladder, for every target the samplers take — each G_S
// node, each type, any node: the one table to the widest window must
// start with each narrower one.
func TestPathCountsHoldNarrowerWindows(t *testing.T) {
	for _, uc := range usecases.Names {
		gcfg, err := usecases.ByName(uc, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range usecases.WorkloadKinds {
			cfg, err := usecases.Workload(kind, gcfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := querygen.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sg, pc := gen.SchemaGraph(), gen.PathCounts()
			for relax := 0; relax <= querygen.MaxRelaxation; relax++ {
				lmax := gen.LengthWindow(relax).Max
				narrow := sg.PathCounts(lmax)
				check := func(what string, id int, cached, want [][]float64) {
					if len(cached) <= lmax {
						t.Fatalf("%s.%s: table to %s %d has %d lengths, window needs %d", uc, kind, what, id, len(cached), lmax+1)
					}
					if !reflect.DeepEqual(cached[:lmax+1], want) {
						t.Errorf("%s.%s: cached table to %s %d differs from the table built to length %d", uc, kind, what, id, lmax)
					}
				}
				for v := range sg.Nodes {
					check("node", v, pc.ToNode[v], narrow.ToNode[v])
				}
				for typ := range pc.ToType {
					check("type", typ, pc.ToType[typ], narrow.ToType[typ])
				}
				check("any", 0, pc.ToAny, narrow.ToAny)
			}
		}
	}
}

// TestReseededWorkerStream checks that a worker's one RNG, re-seeded
// per unit, draws the stream of a fresh rand.New(rand.NewSource(seed))
// whatever was drawn from it before.
func TestReseededWorkerStream(t *testing.T) {
	gen, err := querygen.New(bibConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := gen.WorkerRNG()
	for i, seed := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 62), 89482311, 42} {
		for j := 0; j < i*7; j++ { // leave the stream at a different point every round
			rng.Float64()
			rng.Intn(j + 1)
		}
		rng.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for j := 0; j < 700; j++ { // past the generator's 607-word state
			switch j % 3 {
			case 0:
				if a, b := rng.Int63(), fresh.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, fresh %d", seed, j, a, b)
				}
			case 1:
				if a, b := rng.Float64(), fresh.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %g, fresh %g", seed, j, a, b)
				}
			default:
				if a, b := rng.Intn(j+1), fresh.Intn(j+1); a != b {
					t.Fatalf("seed %d draw %d: Intn %d, fresh %d", seed, j, a, b)
				}
			}
		}
	}
}

// maxTestParallelism is the widest worker count the block tests run;
// wrap is its slot ring's size in queries.
const (
	maxTestParallelism = 8
	wrap               = maxTestParallelism * querygen.RingDepth * querygen.EmitBlock
)

// blockConfig is pipelineConfig sized so that the slot ring wraps more
// than twice at every tested parallelism, with a short last block.
func blockConfig(t *testing.T, name string, seed int64) querygen.Config {
	cfg := pipelineConfig(t, name, seed)
	cfg.Count = 2*wrap + querygen.EmitBlock + 3
	return cfg
}

// TestBlockEmissionInvariance checks byte-identical workloads at
// Parallelism 1/2/3/8 — fewer workers than blocks, and more; rings
// that wrap, and rings clamped to a short window — for a full Emit and
// for windows that start and end on block boundaries, inside blocks
// and across ring wraps. The race step runs it under the detector.
func TestBlockEmissionInvariance(t *testing.T) {
	const b = querygen.EmitBlock
	cfg := blockConfig(t, "bib", 23)
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := gen.GenerateWith(querygen.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != cfg.Count {
		t.Fatalf("sequential run produced %d queries, want %d", len(full), cfg.Count)
	}
	windows := [][2]int{
		{0, cfg.Count},
		{0, b}, {b, 3 * b}, {2 * b, 2*b + 1}, // on boundaries
		{5, b + 5}, {b - 1, 2*b + 1}, {3, 4*b - 2}, // inside blocks
		{b + 7, 5 * b}, {cfg.Count - 3, cfg.Count}, // mixed, and the short last block
		{wrap - 5, 2*wrap + 5}, {b + 1, cfg.Count}, // across ring wraps
	}
	for _, par := range []int{1, 2, 3, maxTestParallelism} {
		for _, w := range windows {
			from, to := w[0], w[1]
			sink := &querygen.SliceSink{}
			n, err := gen.EmitWindow(querygen.Options{Parallelism: par}, from, to, sink)
			if err != nil {
				t.Fatalf("parallelism %d window [%d, %d): %v", par, from, to, err)
			}
			if n != to-from {
				t.Fatalf("parallelism %d window [%d, %d): %d queries delivered", par, from, to, n)
			}
			if got, want := workloadText(sink.Queries), workloadText(full[from:to]); got != want {
				t.Errorf("parallelism %d window [%d, %d) differs from the sequential run", par, from, to)
			}
		}
	}
}

// stopSink fails on its k-th AddQuery and records everything the
// pipeline does to it. With stall set, its first AddQuery sleeps that
// long, so the workers run ahead and fill the ring's later slots
// before the failure fires.
type stopSink struct {
	failAt  int
	stall   time.Duration
	indexes []int
	flushes int
}

var errStop = errors.New("injected: sink stopped")

func (s *stopSink) AddQuery(index int, _ *query.Query) error {
	if len(s.indexes) == 0 {
		time.Sleep(s.stall)
	}
	s.indexes = append(s.indexes, index)
	if len(s.indexes) == s.failAt {
		return errStop
	}
	return nil
}

func (s *stopSink) Flush() error { s.flushes++; return nil }

// TestSinkFailureStopsEmission checks the error path of block
// emission: a sink failing on its k-th query — inside the first block,
// on a block boundary, after a ring wrap, in the last block, and after
// a stall that lets the workers fill the ring ahead of it — gets no
// later query and exactly one Flush, Emit returns that error, and
// every worker goroutine is gone when it does.
func TestSinkFailureStopsEmission(t *testing.T) {
	const b = querygen.EmitBlock
	cfg := blockConfig(t, "bib", 29)
	gen, err := querygen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type failure struct {
		k     int
		stall time.Duration
	}
	var failures []failure
	for _, k := range []int{1, 5, b, b + 1, 3*b - 1, wrap + 1, 2*wrap + b/2, cfg.Count} {
		failures = append(failures, failure{k: k})
	}
	failures = append(failures, failure{k: b + 1, stall: 50 * time.Millisecond})
	for _, par := range []int{1, 2, 3, maxTestParallelism} {
		for _, f := range failures {
			k := f.k
			before := runtime.NumGoroutine()
			sink := &stopSink{failAt: k, stall: f.stall}
			n, err := gen.Emit(querygen.Options{Parallelism: par}, sink)
			if !errors.Is(err, errStop) || n != 0 {
				t.Errorf("parallelism %d, k=%d: Emit returned (%d, %v), want the sink's error", par, k, n, err)
			}
			if sink.flushes != 1 {
				t.Errorf("parallelism %d, k=%d: %d flushes, want 1", par, k, sink.flushes)
			}
			if len(sink.indexes) != k {
				t.Errorf("parallelism %d, k=%d: sink received %d queries", par, k, len(sink.indexes))
			}
			for i, index := range sink.indexes {
				if index != i {
					t.Fatalf("parallelism %d, k=%d: %d-th query has index %d", par, k, i, index)
				}
			}
			// Emit joins its workers before returning; allow the
			// scheduler a moment to retire the exited goroutines.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("parallelism %d, k=%d: %d goroutines before Emit, %d after", par, k, before, after)
			}
		}
	}
}

// TestQueryFileAllocs pins the allocation contract of the per-query
// file bytes: appending into spare capacity allocates nothing, and the
// exactly-sized QueryFileContent allocates its result only.
func TestQueryFileAllocs(t *testing.T) {
	q := &query.Query{
		Shape: query.Chain, HasClass: true, Class: query.Linear, Relaxed: true,
		Rules: []query.Rule{{
			Head: []query.Var{0, 2},
			Body: []query.Conjunct{
				{Src: 0, Dst: 1, Expr: regpath.MustParse("(a.b+c-)")},
				{Src: 1, Dst: 2, Expr: regpath.MustParse("(a+b.c)*")},
			},
		}},
	}
	buf := make([]byte, 0, 8192)
	for _, syn := range translate.Syntaxes {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := querygen.AppendQueryFile(buf, 7, q, syn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendQueryFile into spare capacity allocates %v times, want 0", syn, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := querygen.QueryFileContent(7, q, syn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: QueryFileContent allocates %v times, want 1", syn, allocs)
		}
		appended, err := querygen.AppendQueryFile([]byte("prefix"), 7, q, syn)
		if err != nil {
			t.Fatal(err)
		}
		content, err := querygen.QueryFileContent(7, q, syn)
		if err != nil {
			t.Fatal(err)
		}
		if string(appended) != "prefix"+string(content) || len(content) != cap(content) {
			t.Errorf("%s: QueryFileContent is not the exactly-sized AppendQueryFile bytes", syn)
		}
	}
}
