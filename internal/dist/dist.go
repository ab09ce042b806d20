// Package dist implements the degree distributions of gMark's graph
// configurations (paper, Section 3.1): uniform, Gaussian and Zipfian,
// plus the distinguished non-specified distribution used by the eta
// macros of Section 3.4.
//
// A Distribution is a passive description (kind plus parameters); a
// Sampler obtained from NewSampler draws integer degrees from it. All
// sampling is driven by an explicit *rand.Rand so generation stays
// deterministic under a fixed seed, including across the parallel
// emission workers of internal/graphgen (each worker owns its RNG).
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Kind names a distribution family. The zero value is NotSpecified, so
// a zero Distribution is the non-specified distribution.
type Kind int

const (
	// NotSpecified is the distinguished "non-specified" distribution: no
	// constraint on this side of an eta entry.
	NotSpecified Kind = iota
	// Uniform is the integer uniform distribution on [Min, Max].
	Uniform
	// Gaussian is the normal distribution with mean Mu and standard
	// deviation Sigma, rounded to the nearest non-negative integer.
	Gaussian
	// Zipfian is the discrete power law P(k) proportional to k^-S over
	// ranks 1..N.
	Zipfian
)

// String returns the XML name of the kind ("uniform", "gaussian",
// "zipfian"); it round-trips through ParseKind.
func (k Kind) String() string {
	switch k {
	case NotSpecified:
		return "non-specified"
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Zipfian:
		return "zipfian"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a distribution kind name as it appears in gMark XML
// configuration files.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "gaussian", "normal":
		return Gaussian, nil
	case "zipfian", "zipf":
		return Zipfian, nil
	case "non-specified", "nonspecified", "":
		return NotSpecified, nil
	default:
		return NotSpecified, fmt.Errorf("dist: unknown distribution type %q", s)
	}
}

// DefaultZipfN is the support cutoff used when a Zipfian distribution
// does not specify N. Degrees are drawn from 1..DefaultZipfN, which
// bounds the heaviest hub a single constraint can request while keeping
// the tail heavy enough for the paper's skew experiments.
const DefaultZipfN = 1000

// Distribution is one degree distribution D of an eta entry. Only the
// fields of the active Kind are meaningful.
type Distribution struct {
	Kind Kind

	// Uniform parameters: the closed integer interval [Min, Max].
	Min, Max int

	// Gaussian parameters.
	Mu, Sigma float64

	// Zipfian parameters: exponent S over ranks 1..N (N == 0 selects
	// DefaultZipfN).
	S float64
	N int
}

// Unspecified returns the non-specified distribution.
func Unspecified() Distribution { return Distribution{} }

// NewUniform builds the integer uniform distribution on [min, max].
func NewUniform(min, max int) Distribution {
	return Distribution{Kind: Uniform, Min: min, Max: max}
}

// NewGaussian builds the Gaussian distribution with the given mean and
// standard deviation.
func NewGaussian(mu, sigma float64) Distribution {
	return Distribution{Kind: Gaussian, Mu: mu, Sigma: sigma}
}

// NewZipfian builds the Zipfian distribution with exponent s over the
// default rank support 1..DefaultZipfN.
func NewZipfian(s float64) Distribution {
	return Distribution{Kind: Zipfian, S: s}
}

// Specified reports whether the distribution is specified (paper,
// Definition 3.1 allows eta entries with one non-specified side).
func (d Distribution) Specified() bool { return d.Kind != NotSpecified }

// maxParam bounds a uniform Max, a Gaussian Mu or Sigma and a Zipfian
// N. A degree draws that many edges at one node, and CSR offsets are
// int32; past it a uniform span overflows int, a Zipfian table cannot
// be allocated, and a Gaussian grows an occurrence vector until the
// process is killed.
const maxParam = math.MaxInt32

// Validate checks the parameters of the distribution.
func (d Distribution) Validate() error {
	switch d.Kind {
	case NotSpecified:
		return nil
	case Uniform:
		if d.Min < 0 {
			return fmt.Errorf("dist: uniform min %d < 0", d.Min)
		}
		if d.Max < d.Min {
			return fmt.Errorf("dist: uniform max %d < min %d", d.Max, d.Min)
		}
		if d.Max > maxParam {
			return fmt.Errorf("dist: uniform max %d > %d", d.Max, maxParam)
		}
		return nil
	case Gaussian:
		// NaN fails every comparison below, and encoding/xml reads
		// mu="NaN" and sigma="Inf", so finiteness is checked first.
		if !finite(d.Mu) || !finite(d.Sigma) {
			return fmt.Errorf("dist: gaussian mu %g and sigma %g must be finite", d.Mu, d.Sigma)
		}
		if d.Mu < 0 {
			return fmt.Errorf("dist: gaussian mu %g < 0", d.Mu)
		}
		if d.Sigma < 0 {
			return fmt.Errorf("dist: gaussian sigma %g < 0", d.Sigma)
		}
		if d.Mu > maxParam || d.Sigma > maxParam {
			return fmt.Errorf("dist: gaussian mu %g and sigma %g must not exceed %d", d.Mu, d.Sigma, maxParam)
		}
		return nil
	case Zipfian:
		if !finite(d.S) {
			return fmt.Errorf("dist: zipfian exponent %g must be finite", d.S)
		}
		if d.S <= 0 {
			return fmt.Errorf("dist: zipfian exponent %g must be positive", d.S)
		}
		if d.N < 0 {
			return fmt.Errorf("dist: zipfian support %d < 0", d.N)
		}
		if d.N > maxParam {
			return fmt.Errorf("dist: zipfian support %d > %d", d.N, maxParam)
		}
		return nil
	default:
		return fmt.Errorf("dist: unknown kind %d", int(d.Kind))
	}
}

// zipfN resolves the rank support of a Zipfian distribution.
func (d Distribution) zipfN() int {
	if d.N > 0 {
		return d.N
	}
	return DefaultZipfN
}

// Mean returns the expected value of one draw. For the clamped
// Gaussian this is the nominal Mu; for Zipfian it is the exact mean of
// the truncated power law, H(N, S-1)/H(N, S). Non-specified
// distributions have mean 0.
func (d Distribution) Mean() float64 {
	switch d.Kind {
	case Uniform:
		return float64(d.Min+d.Max) / 2
	case Gaussian:
		return d.Mu
	case Zipfian:
		return zipfTableOf(d.S, d.zipfN()).mean
	default:
		return 0
	}
}

// String renders the distribution for diagnostics.
func (d Distribution) String() string {
	switch d.Kind {
	case NotSpecified:
		return "non-specified"
	case Uniform:
		return fmt.Sprintf("uniform[%d,%d]", d.Min, d.Max)
	case Gaussian:
		return fmt.Sprintf("gaussian(mu=%g,sigma=%g)", d.Mu, d.Sigma)
	case Zipfian:
		return fmt.Sprintf("zipfian(s=%g,n=%d)", d.S, d.zipfN())
	default:
		return fmt.Sprintf("Kind(%d)", int(d.Kind))
	}
}

// Sampler draws integer degrees from a distribution. Samplers are
// stateless with respect to the RNG: all randomness comes from the
// *rand.Rand passed to Sample, so one immutable Sampler may be shared
// across goroutines that each own their own RNG.
type Sampler interface {
	Sample(rng *rand.Rand) int
}

// NewSampler compiles the distribution into a sampler. Uniform
// samplers precompute their rejection bound; Zipfian samplers share
// their (S, N)'s cumulative mass table and its guide table, computed
// once per process, so a draw is one uniform variate plus a short
// forward scan.
func (d Distribution) NewSampler() (Sampler, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	switch d.Kind {
	case Uniform:
		return newUniformSampler(d.Min, int64(d.Max)-int64(d.Min)+1), nil
	case Gaussian:
		return gaussianSampler{mu: d.Mu, sigma: d.Sigma}, nil
	case Zipfian:
		return zipfSampler{zipfTableOf(d.S, d.zipfN())}, nil
	default:
		return nil, fmt.Errorf("dist: cannot sample %s distribution", d.Kind)
	}
}

// uniformSampler draws min + rng.Intn(span) with the same draws, but
// with Int31n's rejection bound computed once, so a draw costs one
// division instead of two. The span is int64: uniform[0, MaxInt32]
// spans 2^31 values, which a 32-bit int cannot hold, and past MaxInt32
// a draw is rng.Int63n(span) — what rand.Intn draws there on a 64-bit
// platform — so every platform draws the same stream.
type uniformSampler struct {
	min   int
	span  int64
	bound int32 // Int31n(span) redraws any Int31 above it
}

func newUniformSampler(min int, span int64) uniformSampler {
	s := uniformSampler{min: min, span: span}
	if span <= math.MaxInt32 {
		s.bound = math.MaxInt32 - int32(uint32(1<<31)%uint32(span))
	}
	return s
}

func (s uniformSampler) Sample(rng *rand.Rand) int {
	if s.span > math.MaxInt32 {
		return s.min + int(rng.Int63n(s.span)) // [0, MaxInt32]: Int63n's path
	}
	v := rng.Int31()
	for v > s.bound {
		v = rng.Int31()
	}
	return s.min + int(v%int32(s.span))
}

type gaussianSampler struct {
	mu, sigma float64
}

func (s gaussianSampler) Sample(rng *rand.Rand) int {
	k := int(math.Round(s.mu + s.sigma*rng.NormFloat64()))
	if k < 0 {
		return 0
	}
	return k
}

// zipfSampler draws ranks 1..n with P(k) proportional to k^-s via
// inversion over the shared, read-only tables of its zipfTable.
type zipfSampler struct {
	t *zipfTable
}

func (z zipfSampler) Sample(rng *rand.Rand) int {
	return z.t.search(rng.Float64()) + 1
}

// zipfTable is one Zipfian's support walked once: the normalized CDF a
// sampler inverts, the guide table that starts each inversion near its
// answer, and the exact mean H(N, S-1)/H(N, S).
//
// The guide cuts [0, 1) into n equal buckets, bucket(u) = int(u*n)
// (n+1 entries: u*n can round up to n). guide[g] is the answer at a
// float no greater than any u of bucket g, and the answer is monotone
// in u, so it is a lower bound for every u of the bucket: a forward
// scan from it finds sort.SearchFloat64s(cdf, u) exactly. With as
// many buckets as ranks, a draw scans O(1) entries in expectation
// instead of a binary search's log2(n) dependent steps.
type zipfTable struct {
	cdf   []float64 // cdf[i] = P(K <= i+1), cdf[n-1] == 1
	guide []int32
	mean  float64
}

type zipfKey struct {
	s float64
	n int
}

// zipfTables memoizes tables by (S, N), so the 1 000 math.Pow calls of
// a default Zipfian run once per process, not once per Mean or sampler
// (every plan, shard side and served predicate asks again). Only
// finite S is stored: NaN never equals itself, so each lookup of a NaN
// key would add an entry.
var zipfTables sync.Map // zipfKey -> *zipfTable

func zipfTableOf(s float64, n int) *zipfTable {
	key := zipfKey{s, n}
	if t, ok := zipfTables.Load(key); ok {
		return t.(*zipfTable)
	}
	t := newZipfTable(s, n)
	if finite(s) {
		if prev, loaded := zipfTables.LoadOrStore(key, t); loaded {
			return prev.(*zipfTable)
		}
	}
	return t
}

// newZipfTable computes the CDF and the mean in one loop, summing in
// the same order as the two loops it replaces, so both are bit-identical
// to what Mean and the sampler computed separately; then the guide.
func newZipfTable(s float64, n int) *zipfTable {
	cdf := make([]float64, n)
	var num, den float64
	for k := 1; k <= n; k++ {
		w := math.Pow(float64(k), -s)
		den += w
		num += w * float64(k)
		cdf[k-1] = den
	}
	for i := range cdf {
		cdf[i] /= den
	}
	cdf[n-1] = 1
	// den >= 1: its first term is Pow(1, -s), which is 1 for every s.
	t := &zipfTable{cdf: cdf, mean: num / den}
	t.buildGuide()
	return t
}

// buildGuide fills the guide table of t's CDF: one scan, carried from
// bucket to bucket.
func (t *zipfTable) buildGuide() {
	t.guide = make([]int32, len(t.cdf)+1)
	i := 0
	for g := range t.guide {
		i = t.scan(i, t.bucketStart(g))
		t.guide[g] = int32(i)
	}
}

// bucket maps a variate in [0, 1) to its guide entry.
func (t *zipfTable) bucket(u float64) int { return int(u * float64(len(t.cdf))) }

// bucketStart returns a float64 no greater than any variate of bucket
// g: the float g/n, stepped down while the float below it still falls
// in bucket g or above. Rounding in u*n can put a variate an ulp or two
// below g/n into bucket g; a start that is itself in bucket g-1 is
// still a lower bound.
func (t *zipfTable) bucketStart(g int) float64 {
	x := float64(g) / float64(len(t.cdf))
	for x > 0 && t.bucket(math.Nextafter(x, 0)) >= g {
		x = math.Nextafter(x, 0)
	}
	return x
}

// scan returns the first index at or after i whose CDF reaches u. It
// stops at n-1 for any u <= 1, since cdf[n-1] == 1.
func (t *zipfTable) scan(i int, u float64) int {
	for t.cdf[i] < u {
		i++
	}
	return i
}

// search inverts the CDF: the smallest i with cdf[i] >= u, which is
// sort.SearchFloat64s(cdf, u) for u in [0, 1).
func (t *zipfTable) search(u float64) int {
	return t.scan(int(t.guide[t.bucket(u)]), u)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
