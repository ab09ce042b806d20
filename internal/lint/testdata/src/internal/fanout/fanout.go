// Package fanout stands for the one library package allowed to start
// goroutines; an accounted go statement here is clean.
package fanout

import "sync"

// each runs do for every index in [0, n) on its own goroutine.
func each(n int, do func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i)
		}()
	}
	wg.Wait()
}
