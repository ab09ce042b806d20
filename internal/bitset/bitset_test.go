package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(200)
	if !s.Empty() || s.Count() != 0 {
		t.Error("new set should be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(199)
	if s.Count() != 4 {
		t.Errorf("count = %d", s.Count())
	}
	for _, v := range []int32{0, 63, 64, 199} {
		if !s.Has(v) {
			t.Errorf("missing %d", v)
		}
	}
	if s.Has(1) || s.Has(100) {
		t.Error("spurious members")
	}
}

func TestTryAdd(t *testing.T) {
	s := New(10)
	if !s.TryAdd(5) {
		t.Error("first add should be fresh")
	}
	if s.TryAdd(5) {
		t.Error("second add should report duplicate")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(128)
	b := New(128)
	for _, v := range []int32{1, 2, 3, 64} {
		a.Add(v)
	}
	for _, v := range []int32{3, 64, 100} {
		b.Add(v)
	}
	u := FromWords(128, a.Words())
	u.UnionWith(b)
	if u.Count() != 5 {
		t.Errorf("union count = %d", u.Count())
	}
	d := FromWords(128, a.Words())
	d.DiffWith(b)
	if d.Count() != 2 || !d.Has(1) || !d.Has(2) {
		t.Errorf("difference broken")
	}
}

func TestClearAndCopy(t *testing.T) {
	a := New(70)
	a.Add(1)
	a.Add(69)
	b := FromWords(70, a.Words())
	if b.Count() != 2 || !b.Has(69) {
		t.Error("FromWords copy broken")
	}
	a.Clear()
	if !a.Empty() {
		t.Error("Clear broken")
	}
	if b.Count() != 2 {
		t.Error("Clear must not affect copies")
	}
}

func TestRangeOrderAndStop(t *testing.T) {
	s := New(300)
	want := []int32{7, 70, 150, 299}
	for _, v := range want {
		s.Add(v)
	}
	var got []int32
	s.Range(func(v int32) bool {
		got = append(got, v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v", got)
		}
	}
	// Early stop.
	count := 0
	s.Range(func(v int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestAppendTo(t *testing.T) {
	s := New(100)
	s.Add(10)
	s.Add(90)
	got := s.AppendTo(nil)
	if len(got) != 2 || got[0] != 10 || got[1] != 90 {
		t.Errorf("AppendTo = %v", got)
	}
	got2 := s.AppendTo([]int32{1})
	if len(got2) != 3 || got2[0] != 1 {
		t.Errorf("AppendTo with prefix = %v", got2)
	}
}

// Property: a bitset behaves like a map[int32]bool.
func TestQuickAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func(opsRaw []uint16) bool {
		n := 500
		s := New(n)
		m := map[int32]bool{}
		for _, op := range opsRaw {
			v := int32(op) % int32(n)
			switch op % 3 {
			case 0:
				s.Add(v)
				m[v] = true
			case 1:
				if s.TryAdd(v) == m[v] {
					return false
				}
				m[v] = true
			case 2:
				if s.Has(v) != m[v] {
					return false
				}
			}
		}
		if s.Count() != len(m) {
			return false
		}
		for v := range m {
			if !s.Has(v) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: union is commutative and difference partitions it, as set
// algebra requires on random sets.
func TestQuickAlgebraLaws(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	mk := func() *Set {
		s := New(256)
		for i := 0; i < 40; i++ {
			s.Add(int32(r.Intn(256)))
		}
		return s
	}
	for trial := 0; trial < 50; trial++ {
		a, b := mk(), mk()
		u1 := FromWords(256, a.Words())
		u1.UnionWith(b)
		u2 := FromWords(256, b.Words())
		u2.UnionWith(a)
		if u1.Count() != u2.Count() {
			t.Fatal("union not commutative")
		}
		// |A union B| = |A \ B| + |B|.
		d := FromWords(256, a.Words())
		d.DiffWith(b)
		if u1.Count() != d.Count()+b.Count() {
			t.Fatal("difference does not partition the union")
		}
	}
}

// Property: UnionWithCount returns exactly the cardinality growth and
// leaves the receiver equal to a plain UnionWith.
func TestUnionWithCount(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		a, b := New(300), New(300)
		for i := 0; i < 60; i++ {
			a.Add(int32(r.Intn(300)))
			b.Add(int32(r.Intn(300)))
		}
		ref := FromWords(300, a.Words())
		ref.UnionWith(b)
		before := a.Count()
		added := a.UnionWithCount(b)
		if added != a.Count()-before {
			t.Fatalf("added = %d, cardinality grew by %d", added, a.Count()-before)
		}
		if a.Count() != ref.Count() {
			t.Fatal("UnionWithCount result differs from UnionWith")
		}
		if got := a.UnionWithCount(b); got != 0 {
			t.Fatalf("second union added %d", got)
		}
	}
}
