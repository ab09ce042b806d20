package eval

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardCacheConcurrentMissesOverlap is the regression test for the
// load-under-lock bug: two concurrent misses on different shards must
// run their loads at the same time. Each fake loader refuses to return
// until the other one has started, so if the cache still held its lock
// across the file read, the first load would block the second and both
// would time out.
func TestShardCacheConcurrentMissesOverlap(t *testing.T) {
	c := NewShardCache(1 << 20)
	var mu sync.Mutex
	started := 0
	both := make(chan struct{})
	loader := func() (*cachedShard, error) {
		mu.Lock()
		started++
		if started == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			return &cachedShard{bytes: 8}, nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("second miss never started its load: misses are serialized")
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		key := sharedShardKey{idx: i}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.get(key, loader); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Loads != 2 || st.DedupHits != 0 {
		t.Errorf("stats = %+v, want 2 loads, 0 dedup hits", st)
	}
}

// TestShardCacheSingleflightDedup: K concurrent misses on the same
// shard run the loader exactly once; the other K-1 goroutines wait for
// that flight and are counted as dedup hits.
func TestShardCacheSingleflightDedup(t *testing.T) {
	c := NewShardCache(1 << 20)
	var calls atomic.Int64
	release := make(chan struct{})
	loader := func() (*cachedShard, error) {
		calls.Add(1)
		<-release
		return &cachedShard{bytes: 8}, nil
	}
	key := sharedShardKey{idx: 42}
	const K = 8
	results := make([]*cachedShard, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh, err := c.get(key, loader)
			if err != nil {
				t.Error(err)
			}
			results[i] = sh
		}(i)
	}
	// Release the single flight only once every other goroutine is
	// blocked on it (dedups is bumped before a waiter parks).
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().DedupHits < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined the in-flight load", c.Stats().DedupHits, K-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Loads != 1 || st.DedupHits != K-1 {
		t.Errorf("stats = %+v, want 1 load, %d dedup hits", st, K-1)
	}
	for i, sh := range results {
		if sh != results[0] || sh == nil {
			t.Fatalf("goroutine %d got a different shard instance", i)
		}
	}
}

// TestShardCacheFailedLoadNotCached: a load error reaches the caller,
// is not cached, and the next access retries the load.
func TestShardCacheFailedLoadNotCached(t *testing.T) {
	c := NewShardCache(1 << 20)
	key := sharedShardKey{idx: 7}
	boom := errors.New("boom")
	if _, err := c.get(key, func() (*cachedShard, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}
	sh, err := c.get(key, func() (*cachedShard, error) { return &cachedShard{bytes: 4}, nil })
	if err != nil || sh == nil {
		t.Fatalf("retry after failure: sh=%v err=%v", sh, err)
	}
	if st := c.Stats(); st.Loads != 1 || st.BytesUsed != 4 {
		t.Errorf("stats after retry = %+v, want 1 load, 4 bytes", st)
	}
}

// TestShardCacheEvictionAccounting: the byte budget evicts least
// recently used shards, a single over-budget shard is still admitted
// alone, and peak residency is tracked.
func TestShardCacheEvictionAccounting(t *testing.T) {
	c := NewShardCache(10)
	load := func(bytes int64) func() (*cachedShard, error) {
		return func() (*cachedShard, error) { return &cachedShard{bytes: bytes}, nil }
	}
	if _, err := c.get(sharedShardKey{idx: 0}, load(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get(sharedShardKey{idx: 1}, load(8)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.BytesUsed != 8 {
		t.Errorf("after second insert: %+v, want 1 eviction, 8 bytes resident", st)
	}
	if st.PeakBytes != 16 {
		t.Errorf("peak = %d, want 16", st.PeakBytes)
	}
	// A shard larger than the whole budget still evaluates: it is
	// admitted alone after evicting everything else.
	if _, err := c.get(sharedShardKey{idx: 2}, load(100)); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.BytesUsed != 100 || st.Evictions != 2 {
		t.Errorf("oversized shard: %+v, want it resident alone", st)
	}
	// Hitting the resident shard is a hit, not a load.
	if _, err := c.get(sharedShardKey{idx: 2}, load(100)); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Hits != st.Hits+1 || after.Loads != st.Loads {
		t.Errorf("resident access: stats %+v after %+v, want one more hit and no load", after, st)
	}
}
