//go:build !race

package graphgen

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of its Puts, so allocation pins cannot hold.
const raceEnabled = false
