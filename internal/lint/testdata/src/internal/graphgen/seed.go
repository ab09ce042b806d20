package graphgenfix

import "math/rand"

// shardRNG builds a per-shard generator the way graphgen did before
// internal/prng: correct stream, but an 11 µs serial seed per shard.
// Outside the emission packages the same call is fine.
func shardRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `determinism: math/rand\.NewSource in an emission package; use prng\.New`
}
