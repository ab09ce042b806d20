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
	"sort"
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

// NewSampler compiles the distribution into a sampler. Zipfian
// samplers share their (S, N)'s cumulative mass table, computed once
// per process, so a draw is one uniform variate plus a binary search.
func (d Distribution) NewSampler() (Sampler, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	switch d.Kind {
	case Uniform:
		return uniformSampler{min: d.Min, span: d.Max - d.Min + 1}, nil
	case Gaussian:
		return gaussianSampler{mu: d.Mu, sigma: d.Sigma}, nil
	case Zipfian:
		return zipfSampler{cdf: zipfTableOf(d.S, d.zipfN()).cdf}, nil
	default:
		return nil, fmt.Errorf("dist: cannot sample %s distribution", d.Kind)
	}
}

type uniformSampler struct {
	min, span int
}

func (s uniformSampler) Sample(rng *rand.Rand) int {
	return s.min + rng.Intn(s.span)
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
// inversion over the shared, read-only CDF of its zipfTable.
type zipfSampler struct {
	cdf []float64
}

// zipfTable is one Zipfian's support walked once: the normalized CDF a
// sampler inverts and the exact mean H(N, S-1)/H(N, S).
type zipfTable struct {
	cdf  []float64 // cdf[i] = P(K <= i+1), cdf[n-1] == 1
	mean float64
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
// to what Mean and the sampler computed separately.
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
	return &zipfTable{cdf: cdf, mean: num / den}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (z zipfSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}
