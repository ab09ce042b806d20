package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
)

func sampleMoments(t *testing.T, d Distribution, n int, seed int64) (mean, variance float64, max int) {
	t.Helper()
	s, err := d.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		k := s.Sample(rng)
		if k < 0 {
			t.Fatalf("negative sample %d from %v", k, d)
		}
		if k > max {
			max = k
		}
		sum += float64(k)
		sumSq += float64(k) * float64(k)
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance, max
}

func TestUniformSamplerMoments(t *testing.T) {
	d := NewUniform(2, 8)
	mean, variance, max := sampleMoments(t, d, 100_000, 1)
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("uniform[2,8] mean = %g, want ~5", mean)
	}
	// Discrete uniform on 7 values: var = (7^2-1)/12 = 4.
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("uniform[2,8] variance = %g, want ~4", variance)
	}
	if max > 8 {
		t.Errorf("uniform[2,8] sampled %d", max)
	}
	if got := d.Mean(); got != 5 {
		t.Errorf("Mean() = %g", got)
	}
}

func TestGaussianSamplerMoments(t *testing.T) {
	d := NewGaussian(6, 2)
	mean, variance, _ := sampleMoments(t, d, 100_000, 2)
	if math.Abs(mean-6) > 0.05 {
		t.Errorf("gaussian(6,2) mean = %g", mean)
	}
	// Rounding adds 1/12 to the variance; clamping at 0 is negligible
	// for mu=6, sigma=2.
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("gaussian(6,2) variance = %g, want ~4", variance)
	}
	if got := d.Mean(); got != 6 {
		t.Errorf("Mean() = %g", got)
	}
}

func TestGaussianSamplerClampsAtZero(t *testing.T) {
	// A wide Gaussian centered near zero must clamp, never go negative
	// (checked inside sampleMoments).
	mean, _, _ := sampleMoments(t, NewGaussian(0.5, 2), 50_000, 3)
	if mean < 0.5 {
		t.Errorf("clamped gaussian mean %g below nominal mu", mean)
	}
}

func TestZipfianSamplerMoments(t *testing.T) {
	d := NewZipfian(2.5)
	mean, _, max := sampleMoments(t, d, 200_000, 4)
	want := d.Mean() // H(N,1.5)/H(N,2.5), ~1.90 for N=1000
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("zipf(2.5) sample mean = %g, analytic %g", mean, want)
	}
	if want < 1.8 || want > 2.0 {
		t.Errorf("zipf(2.5) analytic mean = %g, want ~1.9", want)
	}
	if max > DefaultZipfN {
		t.Errorf("zipf sample %d exceeds support %d", max, DefaultZipfN)
	}
	// Heavy tail: the max over 200K draws must dwarf the mean.
	if float64(max) < 10*mean {
		t.Errorf("zipf(2.5) max %d vs mean %g: tail too light", max, mean)
	}
}

func TestZipfianCustomSupport(t *testing.T) {
	d := Distribution{Kind: Zipfian, S: 1.1, N: 50}
	_, _, max := sampleMoments(t, d, 50_000, 5)
	if max > 50 {
		t.Errorf("zipf support 50 produced sample %d", max)
	}
	if max < 40 {
		t.Errorf("zipf(1.1, n=50) never sampled the tail: max %d", max)
	}
}

// TestZipfTableMatchesSeparateLoops pins the memoized table to the two
// loops it replaced — Mean's (num, den) sum and the sampler's running
// CDF — bit for bit, and checks that samplers of one (S, N) share it.
func TestZipfTableMatchesSeparateLoops(t *testing.T) {
	for _, d := range []Distribution{
		NewZipfian(1.1), NewZipfian(2.5), NewZipfian(1e-9), NewZipfian(300),
		{Kind: Zipfian, S: 1.3, N: 1}, {Kind: Zipfian, S: 0.7, N: 4096},
	} {
		n := d.zipfN()
		var num, den float64
		for k := 1; k <= n; k++ {
			w := math.Pow(float64(k), -d.S)
			den += w
			num += w * float64(k)
		}
		cdf := make([]float64, n)
		total := 0.0
		for k := 1; k <= n; k++ {
			total += math.Pow(float64(k), -d.S)
			cdf[k-1] = total
		}
		for i := range cdf {
			cdf[i] /= total
		}
		cdf[n-1] = 1

		if got, want := d.Mean(), num/den; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: Mean() = %v, two-loop mean %v", d, got, want)
		}
		s1, err := d.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := d.NewSampler()
		got := s1.(zipfSampler).t.cdf
		for i := range cdf {
			if math.Float64bits(got[i]) != math.Float64bits(cdf[i]) {
				t.Fatalf("%v: cdf[%d] = %v, two-loop cdf %v", d, i, got[i], cdf[i])
			}
		}
		if &s2.(zipfSampler).t.cdf[0] != &got[0] {
			t.Errorf("%v: two samplers built two tables", d)
		}
	}
}

// TestZipfTablesConcurrent asks for the same fresh tables from several
// goroutines at once, as graphgen's emit workers do; the CI race step
// runs it under the detector. Every caller must get the one stored
// table.
func TestZipfTablesConcurrent(t *testing.T) {
	ds := []Distribution{{Kind: Zipfian, S: 1.234, N: 77}, {Kind: Zipfian, S: 2.345, N: 99}}
	const workers = 4
	got := make([][]*zipfTable, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range ds {
				s, err := d.NewSampler()
				if err != nil {
					t.Error(err)
					return
				}
				s.Sample(rand.New(rand.NewSource(int64(w))))
				got[w] = append(got[w], zipfTableOf(d.S, d.zipfN()))
				_ = d.Mean()
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range ds {
			if got[w][i] != got[0][i] {
				t.Errorf("%v: worker %d got a different table than worker 0", ds[i], w)
			}
		}
	}
}

// TestZipfTablesStoreFiniteExponentsOnly checks that a NaN exponent,
// which Mean still accepts unvalidated, cannot grow the memo: a NaN key
// never matches, so storing it would add an entry per call.
func TestZipfTablesStoreFiniteExponentsOnly(t *testing.T) {
	entries := func() (n int) {
		zipfTables.Range(func(any, any) bool { n++; return true })
		return n
	}
	before := entries()
	for range 3 {
		NewZipfian(math.NaN()).Mean()
		NewZipfian(math.Inf(1)).Mean()
	}
	if after := entries(); after != before {
		t.Errorf("non-finite exponents added %d memo entries", after-before)
	}
}

func TestUnspecified(t *testing.T) {
	d := Unspecified()
	if d.Specified() {
		t.Error("Unspecified() is specified")
	}
	if d.Mean() != 0 {
		t.Errorf("unspecified mean = %g", d.Mean())
	}
	if _, err := d.NewSampler(); err == nil {
		t.Error("sampling a non-specified distribution should fail")
	}
	var zero Distribution
	if zero.Specified() {
		t.Error("zero Distribution must be non-specified")
	}
}

func TestValidate(t *testing.T) {
	bad := []Distribution{
		{Kind: Uniform, Min: -1, Max: 3},
		{Kind: Uniform, Min: 4, Max: 3},
		{Kind: Gaussian, Mu: -1, Sigma: 1},
		{Kind: Gaussian, Mu: 1, Sigma: -1},
		{Kind: Zipfian, S: 0},
		{Kind: Zipfian, S: -2},
		{Kind: Zipfian, S: 2, N: -5},
		{Kind: Kind(99)},
		// NaN fails every ordered comparison, so these passed `< 0`.
		{Kind: Gaussian, Mu: math.NaN(), Sigma: 1},
		{Kind: Gaussian, Mu: math.Inf(1), Sigma: 1},
		{Kind: Gaussian, Mu: 3, Sigma: math.NaN()},
		{Kind: Gaussian, Mu: 3, Sigma: math.Inf(1)},
		{Kind: Zipfian, S: math.NaN()},
		{Kind: Zipfian, S: math.Inf(1)},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", d)
		}
		if _, err := d.NewSampler(); err == nil {
			t.Errorf("NewSampler(%+v) accepted", d)
		}
	}
	good := []Distribution{
		Unspecified(),
		NewUniform(0, 0),
		NewUniform(1, 3),
		NewGaussian(0, 0),
		NewGaussian(3, 1),
		NewZipfian(1.2),
		{Kind: Zipfian, S: 2, N: 100},
	}
	for _, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", d, err)
		}
	}
}

// TestValidateRejectsOversizedParameters pins the parameters that
// passed Validate and then crashed generation: a uniform span past
// MaxInt panicked in rng.Intn, a Zipfian N of 2^40 died allocating its
// table, a Gaussian mu of 1e12 grew an occurrence vector until the
// process was killed. Every bound sits at MaxInt32, which is accepted.
func TestValidateRejectsOversizedParameters(t *testing.T) {
	oversized := []Distribution{NewGaussian(1e12, 1), NewGaussian(3, 1e12)}
	if strconv.IntSize == 64 { // a 32-bit int cannot hold these
		past := int64(math.MaxInt32) + 1
		oversized = append(oversized,
			NewUniform(0, math.MaxInt),
			NewUniform(5, int(past)),
			Distribution{Kind: Zipfian, S: 2, N: int(past << 9)},
			Distribution{Kind: Zipfian, S: 2, N: int(past)})
	}
	for _, d := range oversized {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", d)
		}
	}
	for _, d := range []Distribution{
		NewUniform(0, math.MaxInt32),
		NewGaussian(math.MaxInt32, math.MaxInt32),
		{Kind: Zipfian, S: 2, N: math.MaxInt32},
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", d, err)
		}
	}
}

// TestUniformSamplerMatchesIntn pins the precomputed rejection bound to
// math/rand: a uniform sampler's draws are min + rng.Intn(span) at
// every span where Int31n branches, and at 2^31 the draw rng.Intn makes
// on a 64-bit platform, Int63n's — on every platform.
func TestUniformSamplerMatchesIntn(t *testing.T) {
	for _, span := range []int64{1, 2, 3, 7, 1 << 30, 1<<30 + 1, math.MaxInt32, 1 << 31} {
		lo := min(4, math.MaxInt32+1-span) // keep Max within the bound
		s, err := NewUniform(int(lo), int(lo+span-1)).NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := range 5000 {
				var b int64
				if span <= math.MaxInt32 {
					b = lo + int64(want.Intn(int(span)))
				} else {
					b = lo + want.Int63n(span)
				}
				if a := s.Sample(got); int64(a) != b {
					t.Fatalf("span %d seed %d draw %d: sampler %d, Intn %d", span, seed, i, a, b)
				}
			}
		}
	}
}

// TestWidestUniformDrawsPinned pins the first draws of uniform[0,
// MaxInt32] at seed 42 to what rand.Intn(1<<31) draws on amd64. The
// span, 2^31, overflows a 32-bit int: computed in int it wrapped to
// MinInt32 and the sampler took the Int31n path, drawing another
// stream on 386.
func TestWidestUniformDrawsPinned(t *testing.T) {
	s, err := NewUniform(0, math.MaxInt32).NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i, want := range []int{377457747, 532387611, 341549032, 886688009, 1386077449, 457340493} {
		if got := s.Sample(rng); got != want {
			t.Fatalf("draw %d: %d, amd64 draws %d", i, got, want)
		}
	}
}

// TestZipfGuideMatchesBinarySearch checks the guide-table inversion
// against sort.SearchFloat64s where they could part: at every CDF
// value and its float neighbours, and at every bucket edge g/N and its
// neighbours. Real Zipfian tables almost never put a CDF value within
// a float of a bucket edge, so crafted CDFs put one on, one float
// below and one float above every edge: there a guide entry one float
// off starts the scan past the answer.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	check := func(name string, tab *zipfTable) {
		t.Helper()
		n := len(tab.cdf)
		var us []float64
		near := func(x float64) {
			us = append(us, math.Nextafter(x, 0), x, math.Nextafter(x, 1))
		}
		for _, c := range tab.cdf {
			near(c)
		}
		for g := 0; g <= n; g++ {
			near(float64(g) / float64(n))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := tab.search(u), sort.SearchFloat64s(tab.cdf, u); got != want {
				t.Fatalf("%s: search(%v) = %d, binary search %d", name, u, got, want)
			}
		}
	}
	for _, d := range []Distribution{
		{Kind: Zipfian, S: 1.3, N: 1}, {Kind: Zipfian, S: 2, N: 2}, {Kind: Zipfian, S: 0.5, N: 3},
		NewZipfian(1.1), NewZipfian(2.5), NewZipfian(1e-9), NewZipfian(300),
		{Kind: Zipfian, S: 0.7, N: 4096}, {Kind: Zipfian, S: 1.01, N: 100_003},
	} {
		check(d.String(), zipfTableOf(d.S, d.zipfN()))
	}
	for n := 1; n <= 200; n++ {
		for _, toward := range []float64{0, 0.5, 2} { // one float below, on, above
			cdf := make([]float64, n)
			for i := range cdf {
				e := float64(i+1) / float64(n)
				if toward != 0.5 {
					e = math.Nextafter(e, toward)
				}
				cdf[i] = min(e, 1)
			}
			cdf[n-1] = 1
			tab := &zipfTable{cdf: cdf}
			tab.buildGuide()
			check(fmt.Sprintf("crafted n=%d toward %v", n, toward), tab)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{NotSpecified, Uniform, Gaussian, Zipfian} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v", k.String(), got)
		}
	}
	if _, err := ParseKind("pareto"); err == nil {
		t.Error("ParseKind accepted unknown kind")
	}
}

func TestSamplerDeterminism(t *testing.T) {
	for _, d := range []Distribution{NewUniform(0, 9), NewGaussian(3, 1), NewZipfian(1.5)} {
		s, err := d.NewSampler()
		if err != nil {
			t.Fatal(err)
		}
		r1 := rand.New(rand.NewSource(7))
		r2 := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			if a, b := s.Sample(r1), s.Sample(r2); a != b {
				t.Fatalf("%v: draw %d differs (%d vs %d)", d, i, a, b)
			}
		}
	}
}
