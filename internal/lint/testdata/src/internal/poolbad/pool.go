// Package poolbad is library code with a hand-rolled worker pool: its
// goroutines are accounted for, but they belong in internal/fanout.
package poolbad

import "sync"

// square fans the squaring of xs out on one goroutine per element.
func square(xs []int) {
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func() { // want `concurrency: go statement in library code outside internal/fanout`
			defer wg.Done()
			xs[i] *= xs[i]
		}()
	}
	wg.Wait()
}

// drain is a long-lived writer whose ignore gives the reason it is not
// an index-parallel loop, so the finding is suppressed.
func drain(in <-chan int, done chan<- struct{}) {
	//lint:ignore concurrency a writer queue, not an index loop; joined by the done receive of its owner
	go func() {
		for range in {
		}
		close(done)
	}()
}
