// Package prng produces math/rand's exact stream with a seeding cost
// the generation pipelines can pay once per query and once per shard.
//
// rand.NewSource(seed) fills its 607-word lagged-Fibonacci register by
// running a Park–Miller LCG (x ← 48271·x mod 2³¹−1) for 1 841 steps in
// a row, packing three consecutive values into each word and XORing it
// with a fixed table. Step k of that chain is seed·48271^k mod 2³¹−1, so
// Source.Seed computes every value on its own from a power table built
// at init: one independent multiply and Mersenne fold per value instead
// of a serial chain. The draws are math/rand's bodies unchanged. The
// stream is rand.NewSource's bit for bit at every seed, which is what
// keeps every generated graph and workload byte where it was.
// Source.Intn, the graph shards' pairing draw, returns rand.Rand.Intn's
// values from the same draws with one division in the common case.
//
// NewLazy draws the same stream from a register it fills as the draws
// reach it, lazyBlock draws at a time: its Seed only stores the seed,
// and a stream of a few dozen draws, a generated query's, seeds a few
// dozen words instead of 607. The price is a check on every draw, so
// it is for short streams; graph shards, whose streams run long, keep
// Source and its branch-free draw.
//
// SubSeed derives the per-unit seeds both pipelines feed to New and
// NewLazy: one per eta constraint and shard for graph generation, one
// per query (plus the planning stream) for workload generation. The
// determinism contract — same seed, same output, any worker count —
// rests on that one function.
package prng

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	maxInt31 = 1<<31 - 1

	lcgMod = 1<<31 - 1 // the Mersenne prime 2³¹−1
	lcgMul = 48271
	// lcgSkip is the number of LCG steps math/rand discards before the
	// first value it packs.
	lcgSkip = 20
	// zeroSeed replaces a seed ≡ 0 (mod 2³¹−1), a fixed point of the LCG.
	zeroSeed = 89482311
)

// jump[i][j] = 48271^(lcgSkip+1+3i+j) mod 2³¹−1: the multiplier taking
// the seed straight to the j-th value packed into state word i. It is
// the 1 841-step power table with the 20 discarded steps dropped.
var jump [rngLen][3]uint32

// cooked is math/rand's rngCooked table, which every seeded word is
// XORed with. It is recovered at init rather than copied (deriveCooked).
var cooked [rngLen]int64

func init() {
	p := uint64(1)
	for k := 0; k < lcgSkip; k++ {
		p = p * lcgMul % lcgMod
	}
	for i := range jump {
		for j := range jump[i] {
			p = p * lcgMul % lcgMod
			jump[i][j] = uint32(p)
		}
	}
	cooked = deriveCooked()
}

// deriveCooked recovers rngCooked from rand.NewSource(1), whose seeded
// register is vec[i] = raw[i] ^ cooked[i] with raw the packed LCG values
// of seed 1. Its first rngLen draws write every word exactly once (feed
// visits each index once) and return the word written, so together they
// are the whole register after rngLen steps. Undoing the updates newest
// first restores the seeded register; XORing away raw leaves the table.
// It runs while cooked is still zero, so Seed(1) yields raw itself.
func deriveCooked() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	feed := rngLen - rngTap
	for range rngLen {
		feed = (feed + rngLen - 1) % rngLen
		vec[feed] = int64(src.Uint64())
	}
	// After rngLen steps tap and feed are back at their seeded positions
	// (0 and rngLen-rngTap), which is where the newest step left them;
	// each undo moves both one place forward, to the step before.
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	var raw Source
	raw.Seed(1)
	for i := range vec {
		vec[i] ^= raw.vec[i]
	}
	return vec
}

// Source is a rand.Source64 whose stream is rand.NewSource's at the
// same seed. The zero value draws zeros until seeded; use New, or Seed
// a Source that already exists to reuse its 4.9 KB of state.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// New returns a *rand.Rand drawing exactly rand.New(rand.NewSource(seed))'s
// stream. Re-seeding it with (*rand.Rand).Seed allocates nothing.
func New(seed int64) *rand.Rand {
	src := new(Source)
	src.Seed(seed)
	return rand.New(src)
}

// Seed sets the register to the state rand.NewSource(seed) starts from.
func (r *Source) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seedWords(&r.vec, reduceSeed(seed), 0, rngLen)
}

// reduceSeed maps a seed to the LCG state math/rand starts its chain
// from, in [1, 2³¹−1).
func reduceSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// seedWords sets words [lo, hi) of vec to the register seeded from the
// reduced seed s: three LCG values packed into each word, XORed with
// the cooked table.
func seedWords(vec *[rngLen]int64, s uint64, lo, hi int) {
	v, jmp, ck := vec[lo:hi], jump[lo:hi], cooked[lo:hi]
	for i := range v {
		p := &jmp[i]
		u := int64(mulMod(s, p[0]))<<40 ^ int64(mulMod(s, p[1]))<<20 ^ int64(mulMod(s, p[2]))
		v[i] = u ^ ck[i]
	}
}

// mulMod returns s·p mod 2³¹−1 for s, p in [1, 2³¹−1) without a
// branch, by folding twice with 2³¹ ≡ 1. The first fold leaves t below
// 2³²; the second maps t ≥ 2³¹ to t − (2³¹−1) and keeps a smaller t.
// No congruent value along the way can be 0 or the modulus, since it is
// prime and neither factor is a multiple of it, so the result is exact.
func mulMod(s uint64, p uint32) uint64 {
	x := s * uint64(p)
	t := x&lcgMod + x>>31
	return t&lcgMod + t>>31
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

// Intn returns what (*rand.Rand).Intn(n) returns over this source, with
// the same draws. For n ≤ 2³¹−1 that is Int31n: the high 31 bits of a
// draw modulo n, redrawn above a rejection bound that costs a second
// division. A rejected draw is within n of 2³¹−1, so the bound is
// computed only there and the common draw costs one division. A larger
// n takes Int63n's path. It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= maxInt31 {
		n32 := int32(n)
		v := int32(r.Int63() >> 32)
		if v > maxInt31-n32 {
			bound := maxInt31 - int32(uint32(1<<31)%uint32(n32))
			for v > bound {
				v = int32(r.Int63() >> 32)
			}
		}
		return int(v % n32)
	}
	bound := rngMask - int64(uint64(1<<63)%uint64(n))
	v := r.Int63()
	for v > bound {
		v = r.Int63()
	}
	return int(v % int64(n))
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Source) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}

	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}

	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// lazyBlock is the number of draws whose register words a lazy source
// fills at once, while its register is not yet whole.
const lazyBlock = 16

// lazy is a rand.Source64 with Source's stream whose Seed does no work
// on the register. Draw k (from 1) adds word rngLen-k into word
// rngLen-rngTap-k, so the first rngLen-rngTap draws each meet at most
// two words no draw has touched yet; the other words are read only
// after an earlier draw has written them. fill seeds those words ahead
// of the draws that meet them, lazyBlock draws at a time, and after
// draw rngLen-rngTap every word is filled: from then on lazy draws
// exactly like Source, plus a check of the fill mark.
type lazy struct {
	reg Source
	s   uint64 // the reduced seed
	// low is the lowest filled word of the feed run
	// [0, rngLen-rngTap); draws until feed reaches it need no fill.
	// It is -1 once the register is whole.
	low int
}

// NewLazy returns a *rand.Rand drawing exactly
// rand.New(rand.NewSource(seed))'s stream, whose re-seeding costs
// nothing up front and allocates nothing: it suits streams of a few
// hundred draws or fewer.
func NewLazy(seed int64) *rand.Rand {
	src := new(lazy)
	src.Seed(seed)
	return rand.New(src)
}

// Seed reduces and stores seed; the register is filled as it is drawn.
func (r *lazy) Seed(seed int64) {
	r.reg.tap = 0
	r.reg.feed = rngLen - rngTap
	r.s = reduceSeed(seed)
	r.low = rngLen - rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *lazy) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *lazy) Uint64() uint64 {
	if r.reg.feed <= r.low {
		r.fill()
	}
	return r.reg.Uint64()
}

// fill seeds the words the next lazyBlock draws meet first: draws
// k0..k1 write feed words rngLen-rngTap-k1 .. low-1 and, up to draw
// rngTap, read tap words rngLen-min(k1, rngTap) .. rngLen-k0. A later
// tap word is a feed word an earlier draw wrote.
func (r *lazy) fill() {
	k0 := rngLen - rngTap + 1 - r.low
	k1 := min(k0+lazyBlock-1, rngLen-rngTap)
	seedWords(&r.reg.vec, r.s, rngLen-rngTap-k1, r.low)
	if k0 <= rngTap {
		seedWords(&r.reg.vec, r.s, rngLen-min(k1, rngTap), rngLen+1-k0)
	}
	r.low = rngLen - rngTap - k1
	if r.low == 0 {
		r.low = -1
	}
}

// SubSeed derives the deterministic RNG seed of unit index from a run
// seed, using the splitmix64 finalizer so adjacent indices land in
// statistically independent stream positions.
func SubSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
