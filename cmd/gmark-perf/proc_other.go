//go:build !unix

package main

import "runtime"

// cpuSeconds is not measurable here; the per-layer CPU metric reads 0.
func cpuSeconds() float64 { return 0 }

// peakRSSMB falls back to what the Go runtime has obtained from the
// system, the closest figure available without getrusage.
func peakRSSMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
