package fanout

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 7 [running]:").
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}

// settled waits until the goroutine count is back to base: a worker
// that has signalled its WaitGroup may still be unwinding.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		runtime.Gosched()
	}
}

func TestOrderedDeliversInIndexOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 3, 8} {
		for _, ahead := range []int{1, workers, 8 * workers} {
			t.Run(fmt.Sprintf("workers=%d/ahead=%d", workers, ahead), func(t *testing.T) {
				base := runtime.NumGoroutine()
				var mu sync.Mutex
				inFlight, peak := 0, 0 // claimed but undelivered
				var got []int
				err := Ordered(n, workers, ahead,
					func(w, i int, _ *atomic.Bool) int {
						if w < 0 || w >= workers {
							t.Errorf("worker %d outside [0, %d)", w, workers)
						}
						mu.Lock()
						inFlight++
						peak = max(peak, inFlight)
						mu.Unlock()
						return i * i
					},
					func(i, r int) error {
						if r != i*i {
							t.Errorf("unit %d delivered %d", i, r)
						}
						mu.Lock()
						inFlight--
						mu.Unlock()
						got = append(got, i)
						return nil
					},
					func(int) { t.Error("drop without an error") })
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("delivery %d is unit %d", i, v)
					}
				}
				if len(got) != n {
					t.Fatalf("delivered %d units, want %d", len(got), n)
				}
				if peak > ahead {
					t.Fatalf("%d units claimed but undelivered, ahead is %d", peak, ahead)
				}
				settled(t, base)
			})
		}
	}
}

func TestOrderedDeliveryErrorStops(t *testing.T) {
	const n, k = 200, 37
	boom := errors.New("sink failed")
	for _, workers := range []int{1, 2, 3, 8} {
		for _, ahead := range []int{1, workers, 8 * workers} {
			t.Run(fmt.Sprintf("workers=%d/ahead=%d", workers, ahead), func(t *testing.T) {
				base := runtime.NumGoroutine()
				var produced atomic.Int64
				handed := make([]atomic.Int32, n) // deliveries + drops per unit
				var delivered []int
				err := Ordered(n, workers, ahead,
					func(_, i int, _ *atomic.Bool) int {
						produced.Add(1)
						return i
					},
					func(i, r int) error {
						delivered = append(delivered, i)
						handed[r].Add(1)
						if i == k {
							return boom
						}
						return nil
					},
					func(r int) { handed[r].Add(1) })
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want %v", err, boom)
				}
				if last := delivered[len(delivered)-1]; last != k || len(delivered) != k+1 {
					t.Fatalf("delivered %d units ending at %d, want %d ending at %d", len(delivered), last, k+1, k)
				}
				settled(t, base)
				total := 0
				for i := range handed {
					switch c := handed[i].Load(); {
					case c > 1:
						t.Errorf("unit %d handed back %d times", i, c)
					case c == 1:
						total++
					}
				}
				if int64(total) != produced.Load() {
					t.Fatalf("%d units produced, %d delivered or dropped", produced.Load(), total)
				}
				if produced.Load() > k+int64(ahead) {
					t.Fatalf("%d units produced, more than ahead past the failure", produced.Load())
				}
			})
		}
	}
}

// TestOrderedStopIsObserved holds the failing delivery until a unit
// claimed after it has been produced, so that unit must see stop.
func TestOrderedStopIsObserved(t *testing.T) {
	const n, k, ahead = 50, 5, 4
	boom := errors.New("sink failed")
	var sawStop atomic.Bool
	err := Ordered(n, 2, ahead,
		func(_, i int, stop *atomic.Bool) int {
			if i > k {
				deadline := time.Now().Add(5 * time.Second)
				for !stop.Load() && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				if stop.Load() {
					sawStop.Store(true)
				}
			}
			return i
		},
		func(i, _ int) error {
			if i == k {
				return boom
			}
			return nil
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !sawStop.Load() {
		t.Fatal("no unit after the failed delivery observed stop")
	}
}

// TestOrderedOneWorkerInline: with one worker every unit is produced
// and delivered on the caller's goroutine, alternately, with no
// goroutine started; a failed delivery returns before the next unit is
// produced, so drop never runs.
func TestOrderedOneWorkerInline(t *testing.T) {
	const n, k = 40, 13
	boom := errors.New("sink failed")
	for _, ahead := range []int{1, 4, 64} {
		for _, fail := range []bool{false, true} {
			id := fmt.Sprintf("ahead=%d fail=%v", ahead, fail)
			caller, base := goid(), runtime.NumGoroutine()
			var trace []string
			err := Ordered(n, 1, ahead,
				func(w, i int, stop *atomic.Bool) int {
					if w != 0 || goid() != caller || runtime.NumGoroutine() > base || stop.Load() {
						t.Errorf("%s: unit %d produced by worker %d off the caller's goroutine, or with stop up", id, i, w)
					}
					trace = append(trace, fmt.Sprint("p", i))
					return i
				},
				func(i, r int) error {
					if goid() != caller {
						t.Errorf("%s: unit %d delivered off the caller's goroutine", id, i)
					}
					trace = append(trace, fmt.Sprint("d", r))
					if fail && i == k {
						return boom
					}
					return nil
				},
				func(int) { t.Errorf("%s: drop called", id) })
			last := n - 1
			if fail {
				last = k
				if !errors.Is(err, boom) {
					t.Fatalf("%s: err = %v, want %v", id, err, boom)
				}
			} else if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var want []string
			for i := 0; i <= last; i++ {
				want = append(want, fmt.Sprint("p", i), fmt.Sprint("d", i))
			}
			if fmt.Sprint(trace) != fmt.Sprint(want) {
				t.Fatalf("%s: calls %v, want %v", id, trace, want)
			}
		}
	}
}

func TestOrderedEdges(t *testing.T) {
	base := runtime.NumGoroutine()
	calls := 0
	err := Ordered(0, 4, 4, func(_, i int, _ *atomic.Bool) int { calls++; return i },
		func(int, int) error { calls++; return nil }, nil)
	if err != nil || calls != 0 {
		t.Fatalf("n = 0: err %v, %d calls", err, calls)
	}
	var got []int
	err = Ordered(3, 16, 64, func(_, i int, _ *atomic.Bool) int { return i },
		func(i, r int) error { got = append(got, r); return nil }, nil)
	if err != nil || fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("workers > n: err %v, delivered %v", err, got)
	}
	settled(t, base)
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8} {
		runs := make([]atomic.Int32, n)
		perWorker := make([]int, workers) // written only by worker w
		err := Each(n, workers, func(w, i int, _ *atomic.Bool) error {
			runs[i].Add(1)
			perWorker[w]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		sum := 0
		for _, c := range perWorker {
			sum += c
		}
		if sum != n {
			t.Fatalf("workers=%d: per-worker counts sum to %d", workers, sum)
		}
	}
}

// TestEachReturnsLowestFailure makes index 7 fail first while index 3,
// claimed earlier, is still running; 3's error must win.
func TestEachReturnsLowestFailure(t *testing.T) {
	fail7 := make(chan struct{})
	err := Each(20, 4, func(_, i int, _ *atomic.Bool) error {
		switch i {
		case 3:
			<-fail7
			return errors.New("index 3")
		case 7:
			defer close(fail7)
			return errors.New("index 7")
		}
		return nil
	})
	if err == nil || err.Error() != "index 3" {
		t.Fatalf("err = %v, want index 3", err)
	}
}

// TestEachStopEndsClaims raises stop at index 10 — by do itself, then
// by a failure — while every index above 10 waits for it, so each other
// worker can hold at most one index past 10 when claims end.
func TestEachStopEndsClaims(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		for _, fail := range []bool{false, true} {
			var ran atomic.Int32
			err := Each(1000, workers, func(_, i int, stop *atomic.Bool) error {
				ran.Add(1)
				switch {
				case i == 10 && fail:
					return boom
				case i == 10:
					stop.Store(true)
				case i > 10:
					for !stop.Load() {
						runtime.Gosched()
					}
				}
				return nil
			})
			if fail != errors.Is(err, boom) {
				t.Fatalf("workers=%d fail=%v: err = %v", workers, fail, err)
			}
			if r := ran.Load(); r < 11 || r > int32(10+workers) {
				t.Fatalf("workers=%d fail=%v: %d indices ran", workers, fail, r)
			}
		}
	}
}

func TestEachOneWorkerStaysOnCaller(t *testing.T) {
	caller := goid()
	for _, workers := range []int{-1, 0, 1} {
		if err := Each(5, workers, func(w, _ int, _ *atomic.Bool) error {
			if id := goid(); id != caller || w != 0 {
				t.Fatalf("workers=%d: ran on goroutine %d as worker %d, caller is %d", workers, id, w, caller)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Each(0, 4, func(int, int, *atomic.Bool) error {
		t.Fatal("n = 0 ran an index")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	for n, want := range map[int]int{-3: runtime.GOMAXPROCS(0), 0: runtime.GOMAXPROCS(0), 1: 1, 5: 5} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}
