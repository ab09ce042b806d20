// Package bitset provides a dense fixed-capacity bitset used by the
// query evaluators for node sets and visited maps.
package bitset

import "math/bits"

// Set is a fixed-capacity bitset over [0, n), n fixed by New.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity n.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Add inserts i.
func (s *Set) Add(i int32) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports membership of i.
func (s *Set) Has(i int32) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// TryAdd inserts i and reports whether it was newly added.
func (s *Set) TryAdd(i int32) bool {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	return true
}

// Clear empties the set.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the cardinality.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds all elements of t, which must have equal capacity.
func (s *Set) UnionWith(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// UnionWithCount adds all elements of t and returns how many were
// newly added; the evaluator uses the count to charge its budget for
// result-set growth without a separate Count pass.
func (s *Set) UnionWithCount(t *Set) int {
	added := 0
	for i, w := range t.words {
		old := s.words[i]
		merged := old | w
		if merged != old {
			added += bits.OnesCount64(merged ^ old)
			s.words[i] = merged
		}
	}
	return added
}

// DiffWith removes all elements of t.
func (s *Set) DiffWith(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Range calls fn for each element in ascending order; fn returning
// false stops the iteration.
func (s *Set) Range(fn func(i int32) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(int32(wi<<6 + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendTo appends the elements in ascending order to dst and returns
// the extended slice.
func (s *Set) AppendTo(dst []int32) []int32 {
	s.Range(func(i int32) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// AnyInRange reports whether any element lies in [lo, hi).
func (s *Set) AnyInRange(lo, hi int32) bool {
	if lo >= hi {
		return false
	}
	loW, hiW := int(lo>>6), int((hi-1)>>6)
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		return s.words[loW]&loMask&hiMask != 0
	}
	if s.words[loW]&loMask != 0 || s.words[hiW]&hiMask != 0 {
		return true
	}
	for w := loW + 1; w < hiW; w++ {
		if s.words[w] != 0 {
			return true
		}
	}
	return false
}

// Words returns the backing 64-bit words (bit i of word w is element
// w*64+i), for serialization and word-at-a-time readers. The slice is
// shared with the set and must not be modified.
func (s *Set) Words() []uint64 { return s.words }

// FromWords builds a set of capacity n from serialized words (the
// layout Words returns). Extra words are dropped, missing words read
// as empty, and bits at or above n are cleared, so a file produced
// against a different node count can never yield out-of-range
// elements.
func FromWords(n int, words []uint64) *Set {
	s := New(n)
	copy(s.words, words)
	if n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(n) % 64)) - 1
	}
	return s
}
