package prng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's seed reduction branches:
// zero and its replacement, the modulus and its neighbours, the int32
// and int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, lcgMod, -lcgMod, lcgMod - 1, lcgMod + 1, 2 * lcgMod, 1 << 31,
	-(1 << 31), zeroSeed, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// bigBound is an Intn bound past MaxInt32 where int can hold one, so
// the draw takes Int63n's path, and 2^30 on a 32-bit platform.
const bigBound = int(min(1<<40, int64(math.MaxInt)/2+1))

// sources are the package's two constructors, each of which must draw
// rand.NewSource's stream.
var sources = []struct {
	name string
	new  func(int64) *rand.Rand
}{
	{"Source", New},
	{"lazy", NewLazy},
}

// compareStreams draws n values from newRand(seed) and from
// rand.New(rand.NewSource(seed)) through every rand.Rand method the
// generators use, re-seeds both through (*rand.Rand).Seed mid-stream,
// and draws n more; the first difference fails the test.
func compareStreams(t *testing.T, newRand func(int64) *rand.Rand, seed int64, n int) {
	t.Helper()
	got, want := newRand(seed), rand.New(rand.NewSource(seed))
	for half, s := range [2]int64{seed, ^seed} {
		if half == 1 {
			got.Seed(s)
			want.Seed(s)
		}
		for j := 0; j < n; j++ {
			var a, b any
			switch j % 9 {
			case 0:
				a, b = got.Uint64(), want.Uint64()
			case 1:
				a, b = got.Int63(), want.Int63()
			case 2:
				a, b = got.Intn(j+1), want.Intn(j+1)
			case 3:
				a, b = got.Intn(bigBound+j), want.Intn(bigBound+j)
			case 4:
				a, b = got.Int31n(int32(j%1000+1)), want.Int31n(int32(j%1000+1))
			case 5:
				a, b = got.Float64(), want.Float64()
			case 6:
				a, b = got.NormFloat64(), want.NormFloat64()
			case 7:
				a, b = digits(got.Perm(j%11)), digits(want.Perm(j%11))
			default:
				x, y := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
				got.Shuffle(len(x), func(i, k int) { x[i], x[k] = x[k], x[i] })
				want.Shuffle(len(y), func(i, k int) { y[i], y[k] = y[k], y[i] })
				a, b = digits(x), digits(y)
			}
			if a != b {
				t.Fatalf("seed %d, re-seeded %v, draw %d (method %d): got %v, math/rand %v", seed, half == 1, j, j%9, a, b)
			}
		}
	}
}

// digits packs a permutation of fewer than 11 elements into one
// comparable number.
func digits(p []int) int {
	n := 0
	for _, v := range p {
		n = n*11 + v + 1
	}
	return n
}

// TestSourceMatchesMathRand pins both streams to math/rand's at every
// seed branch and 2 000 random seeds; 1 500 draws per seed wrap the
// 607-word register twice.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(2025))
	for len(seeds) < 2000+len(edgeSeeds) {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			for _, seed := range seeds {
				compareStreams(t, src.new, seed, 1500)
			}
		})
	}
}

// firstDiff returns the index of the first of n draws where got and
// want differ, or -1.
func firstDiff(got, want rand.Source64, n int) int {
	for j := range n {
		if got.Uint64() != want.Uint64() {
			return j
		}
	}
	return -1
}

// TestLazyAtEveryDrawCount seeds one lazy source, draws n values, and
// re-seeds it, for every n from 0 to 1 500; 700 draws after each
// re-seed must still be math/rand's. The counts cover every fill
// boundary: the first draw, a lazyBlock edge (16/17), the last draw
// that meets an unseeded tap word (273/274), the last one that meets an
// unseeded feed word (334/335) and the register's wrap (607/608).
func TestLazyAtEveryDrawCount(t *testing.T) {
	var src lazy
	for n := 0; n <= 1500; n++ {
		a, b := edgeSeeds[n%len(edgeSeeds)], SubSeed(int64(n), 0)
		src.Seed(a)
		if j := firstDiff(&src, rand.NewSource(a).(rand.Source64), n); j >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand's", a, j)
		}
		src.Seed(b)
		if j := firstDiff(&src, rand.NewSource(b).(rand.Source64), 700); j >= 0 {
			t.Fatalf("seed %d, re-seeded after %d draws: draw %d differs from math/rand's", b, n, j)
		}
	}
}

// TestLazyReseedMidFill re-seeds a lazy source part way through a fill
// block, at the block of the last unseeded tap word and past it, then
// draws through every rand.Rand method the generators use.
func TestLazyReseedMidFill(t *testing.T) {
	r := NewLazy(1)
	for _, after := range []int{5, 273, 300} {
		reseed := func(seed int64) *rand.Rand {
			r.Seed(^seed)
			for range after {
				r.Uint64()
			}
			r.Seed(seed)
			return r
		}
		for _, seed := range edgeSeeds {
			compareStreams(t, reseed, seed, 700)
		}
	}
}

// TestReseedAllocatesNothing pins the reason the generators keep one
// rand.Rand per worker: re-seeding reuses the source's state.
func TestReseedAllocatesNothing(t *testing.T) {
	for _, src := range sources {
		r := src.new(1)
		seed := int64(0)
		allocs := testing.AllocsPerRun(100, func() {
			seed++
			r.Seed(seed)
			r.Int63()
		})
		if allocs != 0 {
			t.Errorf("%s: re-seeding allocates %v times, want 0", src.name, allocs)
		}
	}
}

// compareIntn draws n values of Source.Intn(bound) and of
// rand.New(rand.NewSource(seed)).Intn(bound); the first difference
// fails the test.
func compareIntn(t *testing.T, seed int64, n, bound int) {
	t.Helper()
	var got Source
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for j := 0; j < n; j++ {
		if a, b := got.Intn(bound), want.Intn(bound); a != b {
			t.Fatalf("seed %d, Intn(%d) draw %d: got %d, math/rand %d", seed, bound, j, a, b)
		}
	}
}

// intnBounds are the Intn arguments where Int31n and Int63n branch:
// powers of two, which never reject; spans just past a power of two,
// which reject almost half their draws; the Int31n/Int63n boundary.
var intnBounds = []int64{
	1, 2, 3, 6, 1000, 1 << 30, 1<<30 + 1, 1<<31 - 2, 1<<31 - 1,
	1 << 31, 1<<31 + 1, 1<<40 + 1, 1 << 62, math.MaxInt64,
}

// FuzzSourceMatchesMathRand compares both sources' streams with
// math/rand's at any seed and length the fuzzer finds, and Source.Intn
// against math/rand's Intn at any bound.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(700), intnBounds[i%len(intnBounds)])
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, bound int64) {
		for _, src := range sources {
			compareStreams(t, src.new, seed, int(draws))
		}
		if bound < 0 {
			bound = ^bound
		}
		if bound == 0 || bound > math.MaxInt {
			bound = 1
		}
		compareIntn(t, seed, int(draws), int(bound))
	})
}

// TestIntnMatchesMathRand runs every branch bound at a few seeds, and
// checks the panic of a non-positive bound.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, bound := range intnBounds {
		if bound > math.MaxInt {
			continue
		}
		for _, seed := range edgeSeeds[:4] {
			compareIntn(t, seed, 2000, int(bound))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	new(Source).Intn(0)
}

var sink uint64

// BenchmarkSeed compares one re-seed of the 607-word register by
// jump-ahead against math/rand's serial LCG walk and, per source, a
// re-seed followed by 25 Int63 draws, about what one generated query
// draws: the cost a query pays for its stream.
func BenchmarkSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source64
	}{
		{"prng", new(Source)},
		{"lazy", new(lazy)},
		{"math-rand", rand.NewSource(1).(rand.Source64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			seed := int64(0)
			for b.Loop() {
				seed++
				bc.src.Seed(seed)
			}
			sink += bc.src.Uint64()
		})
		b.Run(bc.name+"+25", func(b *testing.B) {
			seed := int64(0)
			var acc int64
			for b.Loop() {
				seed++
				bc.src.Seed(seed)
				for range 25 {
					acc += bc.src.Int63()
				}
			}
			sink += uint64(acc)
		})
	}
}

// BenchmarkDraw compares one Int63 through *rand.Rand, the generators'
// view of either source.
func BenchmarkDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"prng", New(1)},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var acc uint64
			for b.Loop() {
				acc += uint64(bc.rng.Int63())
			}
			sink += acc
		})
	}
}

// TestSubSeedSpread is a smoke test that adjacent unit indices (and
// nearby run seeds) receive well-separated RNG streams.
func TestSubSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 64; i++ {
			s := SubSeed(seed, i)
			if seen[s] {
				t.Fatalf("sub-seed collision at seed=%d index=%d", seed, i)
			}
			seen[s] = true
		}
	}
}
