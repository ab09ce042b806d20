// Package fanout is the library's one worker pool. Every index-parallel
// loop — graph and workload emission, the evaluators' range scans,
// Freeze's (predicate, direction) CSR builds and the CSR spill's units,
// partition loading — runs through Each or Ordered, so their bounds,
// their stop flag and their error rules are stated once.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: a positive n is taken as
// is, zero or a negative n means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Each calls do(w, i, stop) once for every index i in [0, n) on up to
// workers goroutines, which claim indices in ascending order; w in
// [0, workers) names the calling goroutine, so callers keep per-worker
// state in a slice indexed by w. A failed do raises stop, and so may do
// itself (a witness that decides the result): no index is claimed once
// stop is up, and indices already claimed run to their end. Each
// returns the error of the lowest failed index — every lower index was
// claimed before it, whatever the interleaving — after every goroutine
// has exited. With one worker (or n <= 1) it runs on the caller's
// goroutine and starts none.
func Each(n, workers int, do func(w, i int, stop *atomic.Bool) error) error {
	var stop atomic.Bool
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n && !stop.Load(); i++ {
			if err := do(0, i, &stop); err != nil {
				return err
			}
		}
		return nil
	}
	type failure struct {
		i   int
		err error
	}
	fails := make([]failure, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range fails {
		fails[w].i = n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(w, i, &stop); err != nil {
					fails[w] = failure{i, err}
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	first := failure{i: n}
	for _, f := range fails {
		if f.i < first.i {
			first = f
		}
	}
	return first.err
}

// Ordered computes units 0..n-1 with produce on up to workers
// goroutines and hands each result to deliver on the caller's
// goroutine, in index order, so a sink sees the sequence a sequential
// loop would produce. w in produce names the goroutine, as in Each.
//
// Admission is by tokens: there are ahead of them, a goroutine takes
// one before it claims the next index, and the caller returns one
// after each delivery, so unit i is claimed only once unit i-ahead has
// been delivered and at most ahead units are claimed but undelivered —
// the in-flight memory bound. Unit i's result waits in slot i mod
// ahead, which unit i-ahead has therefore vacated.
//
// The first error deliver returns raises stop (produce polls it to cut
// its work short), ends delivery, and is returned once every goroutine
// has exited; every result produced but not delivered is then handed
// to drop exactly once (drop may be nil), so pooled buffers go home.
// A result given to deliver is deliver's, error or not.
//
// With one worker (or n <= 1) it runs on the caller's goroutine and
// starts none: each unit is produced and at once delivered, the first
// delivery error returns before the next unit is produced, and so no
// result is ever left for drop.
func Ordered[T any](n, workers, ahead int, produce func(w, i int, stop *atomic.Bool) T, deliver func(i int, r T) error, drop func(T)) error {
	ahead = max(1, min(ahead, n))
	workers = max(1, min(workers, ahead))
	var stop atomic.Bool
	if workers == 1 {
		for i := range n {
			if err := deliver(i, produce(0, i, &stop)); err != nil {
				return err
			}
		}
		return nil
	}
	slots := make([]chan T, ahead)
	tokens := make(chan struct{}, ahead)
	for s := range slots {
		slots[s] = make(chan T, 1)
		tokens <- struct{}{}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range tokens {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				slots[i%ahead] <- produce(w, i, &stop)
			}
		}()
	}

	var err error
	delivered := 0
	for ; delivered < n && err == nil; delivered++ {
		if err = deliver(delivered, <-slots[delivered%ahead]); err != nil {
			stop.Store(true)
		} else {
			tokens <- struct{}{}
		}
	}
	// Every goroutine ends on the closed tokens, at the latest once the
	// tokens still buffered are spent; each unit it claimed on the way
	// has a vacant slot, so its send cannot block.
	close(tokens)
	wg.Wait()
	for i := delivered; i < min(int(next.Load()), n); i++ {
		r := <-slots[i%ahead]
		if drop != nil {
			drop(r)
		}
	}
	return err
}
