package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark was sized on does not run at one speed: it
// drifts, for every workload at once, over a range of 1.6x within
// minutes (see README, "The yardstick"). A median over the passes of
// one run removes none of that, so the harness times a fixed piece of
// work of its own — the yardstick — between the passes, and reports
// times as they would read on a machine where the yardstick takes
// yardstickNominal: seconds x yardstickNominal / measured yardstick.
// Raw seconds are kept next to every normalised figure.

// yardstickNominal is what the yardstick took in the sandbox's usual
// state when the benchmark was sized, so that normalised seconds read
// like real ones there.
const yardstickNominal = 0.045

// yardstickInts is the number of integers each goroutine sorts.
const yardstickInts = 300_000

// yardstick is the reference computation: W goroutines each fill a
// slice from the same seeded generator and sort it. Of the kernels
// tried (random memory walk, integer formatting into a CRC, sorting)
// sorting followed every workload's pass time most closely, with a
// ratio near one.
type yardstick struct {
	bufs [][]int
}

func newYardstick(w int) *yardstick {
	y := &yardstick{bufs: make([][]int, w)}
	for i := range y.bufs {
		y.bufs[i] = make([]int, yardstickInts)
	}
	return y
}

// yardstickReadings is how many times in a row the yardstick runs each
// time it is taken out: one 40 ms reading is itself at the mercy of a
// single scheduling hiccup, and in sizing three readings per slot
// halved the run-to-run range of the normalised figures of one.
const yardstickReadings = 3

// readings takes yardstickReadings readings and appends them to dst.
func (y *yardstick) readings(dst []float64) []float64 {
	for i := 0; i < yardstickReadings; i++ {
		dst = append(dst, y.measure())
	}
	return dst
}

// settleLimit bounds settle.
const settleLimit = 3 * time.Second

// settle runs the yardstick until its W goroutines take about as long
// as one of them alone, that is, until the kernel has spread the
// process's threads over the processors. A process starts with all its
// threads on one processor, and in the sandbox the load balancer left
// them there for the first one to two and a half seconds: W goroutines
// then take W times as long as one, the yardstick reads double, and the
// first set-ups are timed in a state no later pass ever sees. It also
// touches the yardstick's memory before the first reading counts.
func (y *yardstick) settle() {
	one := &yardstick{bufs: y.bufs[:1]}
	for start := time.Now(); time.Since(start) < settleLimit; {
		if y.measure() < 1.5*one.measure() {
			return
		}
	}
}

// measure runs the yardstick once and returns the seconds it took.
func (y *yardstick) measure() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	for _, buf := range y.bufs {
		wg.Add(1)
		go func(buf []int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			for i := range buf {
				buf[i] = rng.Int()
			}
			sort.Ints(buf)
		}(buf)
	}
	wg.Wait()
	return time.Since(t).Seconds()
}

// normalise converts raw seconds taken while the yardstick read
// yardSeconds into seconds at the nominal machine speed.
func normalise(rawSeconds, yardSeconds float64) float64 {
	if yardSeconds <= 0 {
		return rawSeconds
	}
	return rawSeconds * yardstickNominal / yardSeconds
}
