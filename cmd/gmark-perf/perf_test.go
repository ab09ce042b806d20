package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestHighPercentileNeedsSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantP float64
		want  float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 95, 950},  // nine beyond p99: not a percentile yet
		{200, 95, 190},
		{199, 90, 180},
		{100, 90, 90},
		{99, 50, 50}, // too few for any tail: the median, and it says so
	} {
		got, p := highPercentile(ramp(c.n))
		if p != c.wantP || got != c.want {
			t.Errorf("highPercentile of 1..%d = %v (p%v), want %v (p%v)", c.n, got, p, c.want, c.wantP)
		}
	}
	if got := percentile(ramp(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5 (nearest rank)", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: two clients at once
		{Name: "c", Start: 70, End: 120, Parent: 0}, // runs past its parent
		{Name: "a.inner", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - (50 + 30), 30 - 5, 30, 50, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}

	tr := newTracer()
	if id := tr.begin("off", noSpan); id != noSpan {
		t.Errorf("begin while tracing is off returned span %d", id)
	}
	tr.setPass(3, true)
	root := tr.begin("pass", noSpan)
	tr.end(tr.begin("layer.call", root))
	tr.end(tr.begin("layer.call", root))
	tr.end(root)
	tr.setPass(-1, true)
	tr.end(tr.begin("layer.call", noSpan)) // a probe: outside every pass
	if got := tr.passSeconds("layer."); len(got) != 1 {
		t.Errorf("passSeconds saw %d passes, want the one timed pass", len(got))
	}
	if tr.spans[1].Parent != root || tr.spans[1].Pass != 3 {
		t.Errorf("span recorded as %+v, want parent %d pass 3", tr.spans[1], root)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables
// the harness reports from in step: same workloads, same metrics with
// the same units, directions and bounds, same run length.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	want := benchmarkFile{
		Command:    []string{"go", "run", "./cmd/gmark-perf"},
		Paths:      []string{"cmd/gmark-perf"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, def := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{def.name, def.why})
	}
	if !reflect.DeepEqual(file, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the harness's tables; the harness declares:\n%s", expected)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("%d per-layer metrics, %d end-to-end, %d workloads: beyond the contract's limits", len(perLayer), len(endToEnd), len(workloads))
	}
	for _, def := range workloads {
		if len(def.why) > 200 {
			t.Errorf("workload %s: its why has %d characters, limit 200", def.name, len(def.why))
		}
	}
}

// TestSmokeAllWorkloads runs every workload once at a hundredth of its
// size, traced, so tier-1 keeps the harness compiling, its verification
// gates green and its result schema whole.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(def, runOptions{seed: 1, seconds: 0, traced: traced, smoke: true, tmpRoot: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				declared := endToEnd
				if traced {
					declared = perLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s reported as %+v (present %v), declared unit %q", traced, d.Name, m, ok, d.Unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				line, err := json.Marshal(res.verdict)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("verdict line %s: want exactly correct, attempted, failed, metrics", line)
				}
			}
		})
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(wall float64, crc string) map[string]*result {
		r := &result{Workload: "w", Seed: 1, Fingerprint: map[string]string{"crc": crc}}
		r.Metrics = map[string]metricValue{
			"setup_s": {1, "s"}, "wall_s": {wall, "s"}, "units_per_s": {100 / wall, "1/s"}, "peak_rss_mb": {50, "MB"},
		}
		return map[string]*result{"w": r}
	}
	if _, v := compareSets(mk(1.00, "a"), mk(1.05, "a")); len(v) != 0 {
		t.Errorf("5%% slower is within every bound, got violations %v", v)
	}
	if _, v := compareSets(mk(1.00, "a"), mk(1.50, "a")); len(v) != 2 {
		t.Errorf("half as slow again must violate wall_s and units_per_s, got %v", v)
	}
	if _, v := compareSets(mk(1.00, "a"), mk(0.50, "a")); len(v) != 0 {
		t.Errorf("faster is never a violation, got %v", v)
	}
	if _, v := compareSets(mk(1.00, "a"), mk(1.00, "b")); len(v) != 1 {
		t.Errorf("a fingerprint that differs at one seed must be reported, got %v", v)
	}
}
