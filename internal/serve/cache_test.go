package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gmark/internal/manifest"
)

// intCache is an lruCache of ints that each cost their own value.
func intCache(budget int64) *lruCache[string, int] {
	return newLRUCache[string](budget, func(v int) int64 { return int64(v) }, nil, nil)
}

// waitForHits blocks until n lookups have joined a resident entry or a
// flight: a waiter counts its hit before it parks on the flight.
func waitForHits[K comparable, V any](t *testing.T, c *lruCache[K, V], n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.stats().Hits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters joined the flight", c.stats().Hits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheBudget pins the residency policy both server caches share:
// resident bytes never pass the budget, the coldest entry goes first,
// and a value over the whole budget is handed to its caller without
// being kept or evicting anything.
func TestCacheBudget(t *testing.T) {
	c := intCache(10)
	loads := 0
	get := func(key string, size int) bool {
		t.Helper()
		v, hit, err := c.get(key, func() (int, error) { loads++; return size, nil })
		if err != nil || v != size {
			t.Fatalf("get(%s) = %d, %v; want %d", key, v, err, size)
		}
		if got := c.stats().Bytes; got > 10 {
			t.Fatalf("after %s the cache holds %d bytes of a 10-byte budget", key, got)
		}
		return hit
	}
	get("a", 4)
	get("b", 4)
	if !get("a", 4) { // a is now warmer than b
		t.Error("a was not retained")
	}
	get("big", 11)
	if get("big", 11) {
		t.Error("a value over the budget was retained")
	}
	if st := c.stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Errorf("an over-budget value disturbed the cache: %+v", st)
	}
	get("c", 4) // 12 bytes: b, the coldest, goes
	if !get("a", 4) || !get("c", 4) {
		t.Error("eviction took a warmer entry than the coldest")
	}
	if get("b", 4) {
		t.Error("b outlived the budget")
	}
	if st := c.stats(); st.Misses != int64(loads) {
		t.Errorf("%d loads ran for %d misses", loads, st.Misses)
	}
}

// TestCacheCoalescesLoads parks K lookups of one key behind a loader
// that has not returned: one load runs, everybody gets its value, even
// though the value is over the budget and is never resident.
func TestCacheCoalescesLoads(t *testing.T) {
	const K = 8
	c := intCache(1)
	release := make(chan struct{})
	var loads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.get("k", func() (int, error) {
				loads.Add(1)
				<-release
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	waitForHits(t, c, K-1)
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("%d loads for %d concurrent lookups of one key", n, K)
	}
	if st := c.stats(); st.Misses != 1 || st.Hits != K-1 || st.Entries != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestCachePanickingLoadReleasesWaiters is the regression test for a
// leader whose load panics (net/http recovers a handler's panic, so
// the process lives on): the waiters parked on its flight must be
// released with an error, and the key must be loadable again.
func TestCachePanickingLoadReleasesWaiters(t *testing.T) {
	c := intCache(100)
	loading, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.get("k", func() (int, error) {
			close(loading)
			<-release
			panic("boom")
		})
	}()
	<-loading

	waiterErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := c.get("k", func() (int, error) { return 0, errors.New("a waiter ran its own load") })
			waiterErrs <- err
		}()
	}
	// A waiter that arrives after the flight is gone would load for
	// itself; make sure both are parked on it first.
	waitForHits(t, c, 2)
	close(release)

	if r := <-leaderDone; r != "boom" {
		t.Errorf("the leader recovered %v, want its own panic", r)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-waiterErrs:
			if !errors.Is(err, errLoadPanicked) {
				t.Errorf("waiter got %v, want errLoadPanicked", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter is still parked on the panicked flight")
		}
	}
	v, hit, err := c.get("k", func() (int, error) { return 5, nil })
	if v != 5 || hit || err != nil {
		t.Errorf("reloading the key after the panic: %d, hit=%v, %v", v, hit, err)
	}
}

// policyServer returns a server with the given budget and its one
// job: lsn cut into 17 node ranges.
func policyServer(t *testing.T, cacheBytes int64) (*Server, *job) {
	t.Helper()
	srv := New(Options{Parallelism: 2, CacheBytes: cacheBytes})
	spec := e2eSpec("lsn")
	spec.ShardNodes = 16
	body, err := manifest.EncodeJobSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, _, herr := srv.register(body)
	if herr != nil {
		t.Fatalf("register: %d %s", herr.code, herr.msg)
	}
	return srv, j
}

// columnCosts is what each predicate's packed columns cost the
// budget, in the job's predicate order.
func columnCosts(t *testing.T, j *job) []int64 {
	t.Helper()
	probe := New(Options{CacheBytes: 1}) // retains nothing
	var cost []int64
	for i := range j.predNames {
		e, err := probe.predicateEdges(j, i)
		if err != nil {
			t.Fatal(err)
		}
		cost = append(cost, e.bytes())
	}
	return cost
}

// fetchSlice GETs one graph slice in-process and reports whether the
// slice cache had it.
func fetchSlice(t *testing.T, srv *Server, jobID, pred string, rng int, query string) (hit bool) {
	t.Helper()
	rr := do(srv, "GET", fmt.Sprintf("/v1/jobs/%s/graph/%s/%d", jobID, url.PathEscape(pred), rng), query, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("%s/%d?%s: status %d: %s", pred, rng, query, rr.Code, rr.Body)
	}
	return rr.Header().Get("X-Gmark-Cache") == "hit"
}

// TestColumnsKeepToTheirShare drives the budget split through the
// server: columns get a quarter of CacheBytes and not a byte of the
// slices' three quarters, however many predicates pass through.
func TestColumnsKeepToTheirShare(t *testing.T) {
	_, j := policyServer(t, 0)
	cost := columnCosts(t, j)
	bySize := make([]int, len(cost)) // predicate indexes, largest columns first
	for i := range bySize {
		bySize[i] = i
	}
	sort.Slice(bySize, func(a, b int) bool { return cost[bySize[a]] > cost[bySize[b]] })
	big, second := bySize[0], bySize[1]
	if cost[big] == cost[second] || len(cost) < 3 {
		t.Fatalf("fixture: column costs %v need a single largest among three or more", cost)
	}
	// The share holds any predicate's columns but the largest's.
	share := cost[big] - 1
	srv, j := policyServer(t, 4*share)
	jobID, preds := j.id, j.predNames

	// Three slices become resident before any column churn.
	for rng := 0; rng < 3; rng++ {
		fetchSlice(t, srv, jobID, preds[second], rng, "")
	}
	if n := srv.Stats().Cache.Entries; n != 3 {
		t.Fatalf("fixture: %d slices resident before the churn, want 3", n)
	}

	for round := 0; round < 2; round++ {
		for _, pred := range preds {
			fetchSlice(t, srv, jobID, pred, 5+round, "enc=text")
			if st := srv.Stats(); st.ColumnBytes > share {
				t.Fatalf("after %s the columns hold %d bytes, their share is %d", pred, st.ColumnBytes, share)
			}
		}
	}
	st := srv.Stats()
	if st.ColumnEvictions == 0 {
		t.Errorf("fixture: %d predicates costing %v never overflowed a share of %d", len(preds), cost, share)
	}
	if st.Cache.Evictions != 0 {
		t.Errorf("%d slices were evicted while %d of the slices' %d bytes were in use",
			st.Cache.Evictions, st.Cache.Bytes, 3*share)
	}
	for rng := 0; rng < 3; rng++ {
		if !fetchSlice(t, srv, jobID, preds[second], rng, "") {
			t.Errorf("slice %s/%d, resident before the columns churned, is gone", preds[second], rng)
		}
	}

	// The largest predicate is over the share: each new slice of it is
	// served from an emission of its own, and nothing resident moves.
	before := srv.Stats()
	for rng := 0; rng < 3; rng++ {
		fetchSlice(t, srv, jobID, preds[big], rng, "dir=b")
	}
	after := srv.Stats()
	if got := after.Emissions - before.Emissions; got != 3 {
		t.Errorf("3 slices of an over-share predicate ran %d emissions, want 3", got)
	}
	if after.ColumnBytes != before.ColumnBytes || after.ColumnEvictions != before.ColumnEvictions {
		t.Errorf("an over-share predicate changed the resident columns: %d bytes, %d evictions -> %d, %d",
			before.ColumnBytes, before.ColumnEvictions, after.ColumnBytes, after.ColumnEvictions)
	}

	// /statsz carries the columns' counters, all of them moving by now.
	rr := do(srv, "GET", "/statsz", "", nil)
	var wire Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if want := srv.Stats(); wire != want {
		t.Errorf("/statsz decoded to %+v, Stats() is %+v", wire, want)
	}
	if wire.Emissions == 0 || wire.ColumnHits == 0 || wire.ColumnBytes == 0 || wire.ColumnEvictions == 0 {
		t.Errorf("/statsz column counters not moving: %+v", wire)
	}
	for _, field := range []string{`"emissions"`, `"column_hits"`, `"column_bytes"`, `"column_evictions"`, `"column_indexes"`} {
		if !strings.Contains(rr.Body.String(), field) {
			t.Errorf("/statsz has no %s field: %s", field, rr.Body)
		}
	}
}

// TestConcurrentRangesShareOneEmission fetches K distinct ranges of
// one predicate at once: K slice misses, one emission.
func TestConcurrentRangesShareOneEmission(t *testing.T) {
	const K = 8
	srv, j := policyServer(t, 0)
	jobID, preds := j.id, j.predNames
	var wg sync.WaitGroup
	for rng := 0; rng < K; rng++ {
		wg.Add(1)
		go func(rng int) {
			defer wg.Done()
			rr := do(srv, "GET", fmt.Sprintf("/v1/jobs/%s/graph/%s/%d", jobID, url.PathEscape(preds[0]), rng), "", nil)
			if rr.Code != http.StatusOK {
				t.Errorf("range %d: status %d: %s", rng, rr.Code, rr.Body)
			}
		}(rng)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Emissions != 1 || st.ColumnHits != K-1 || st.Cache.Misses != K || st.Cache.Hits != 0 {
		t.Errorf("%d concurrent ranges of one predicate: %d emissions, %d column hits, %d slice misses, %d slice hits",
			K, st.Emissions, st.ColumnHits, st.Cache.Misses, st.Cache.Hits)
	}
}

// TestPackedColumnsStayResident is what packing buys: a columns share
// between one job's packed and plain footprint holds every predicate
// packed, so two rounds of slices of every predicate run one emission
// each and evict no columns. Charged at their plain size, the columns
// would not fit and every round would re-emit.
func TestPackedColumnsStayResident(t *testing.T) {
	_, j := policyServer(t, 0)
	probe := New(Options{CacheBytes: 1}) // retains nothing
	var packed, plain int64
	for i := range j.predNames {
		e, err := probe.predicateEdges(j, i)
		if err != nil {
			t.Fatal(err)
		}
		packed += e.bytes()
		plain += 4 * int64(cap(e.plain.srcs)+cap(e.plain.dsts))
	}
	if packed >= plain {
		t.Fatalf("fixture: the packed columns cost %d bytes, the plain ones %d", packed, plain)
	}
	share := (packed + plain) / 2
	srv, j := policyServer(t, sliceColumnsShare*share)
	for round := 0; round < 2; round++ {
		for _, pred := range j.predNames {
			fetchSlice(t, srv, j.id, pred, round, "enc=text")
		}
	}
	if st := srv.Stats(); st.Emissions != int64(len(j.predNames)) || st.ColumnEvictions != 0 {
		t.Errorf("two rounds over %d predicates in a share of %d bytes (packed %d, plain %d): %d emissions, %d column evictions; want %d and 0",
			len(j.predNames), share, packed, plain, st.Emissions, st.ColumnEvictions, len(j.predNames))
	}
}

// TestColumnChargeIsTheFootprint sweeps every slice of a job, then
// checks the columns' charge against what their resident entries
// hold — the packed words and heads at capacity, plus each index
// still attached — and that no entry still holds an emission's plain
// columns. At the default budget every predicate keeps its index; in
// a share one byte short of the packed columns plus the first
// predicate's index, later predicates' columns shed indexes and evict
// nothing.
func TestColumnChargeIsTheFootprint(t *testing.T) {
	_, j := policyServer(t, 0)
	probe := New(Options{CacheBytes: 1}) // retains nothing
	var packed, firstIndex int64
	for i := range j.predNames {
		e, err := probe.predicateEdges(j, i)
		if err != nil {
			t.Fatal(err)
		}
		packed += e.bytes()
		if i == 0 {
			firstIndex = indexBytes(e.columns)
		}
	}
	// The first predicate swept is indexed while the share has room;
	// the last one's columns need part of that room back.
	for _, share := range []int64{0, packed + firstIndex - 1} {
		srv, j := policyServer(t, sliceColumnsShare*share)
		for _, pred := range j.predNames {
			for _, query := range []string{"dir=f", "dir=b", "enc=text"} {
				for rng := 0; rng < j.nRanges; rng++ {
					fetchSlice(t, srv, j.id, pred, rng, query)
				}
			}
		}
		var sum int64
		indexes := 0
		srv.columns.mu.Lock()
		for key, el := range srv.columns.entries {
			ent := el.Value.(*cacheEntry[columnsKey, predEdges])
			if ent.val.plain != nil {
				t.Errorf("share %d, predicate %d: the resident entry holds the plain columns", share, key.pred)
			}
			footprint := ent.val.bytes()
			if idx := ent.val.idx.Load(); idx != nil {
				footprint += idx.bytes()
				indexes++
			}
			if ent.size != footprint {
				t.Errorf("share %d, predicate %d: charged %d bytes, holds %d", share, key.pred, ent.size, footprint)
			}
			sum += footprint
		}
		srv.columns.mu.Unlock()
		st := srv.Stats()
		if st.ColumnBytes != sum {
			t.Errorf("share %d: column_bytes %d, the resident entries hold %d", share, st.ColumnBytes, sum)
		}
		n := len(j.predNames)
		if st.Emissions != int64(n) || st.ColumnEvictions != 0 {
			t.Errorf("share %d: %d emissions and %d column evictions for %d predicates", share, st.Emissions, st.ColumnEvictions, n)
		}
		switch {
		case share == 0 && (indexes != n || st.ColumnIndexes != int64(n)):
			t.Errorf("%d predicates swept: %d resident indexes, %d built", n, indexes, st.ColumnIndexes)
		case share > 0 && (indexes == 0 || indexes >= int(st.ColumnIndexes)):
			t.Errorf("fixture: in a share of %d bytes, %d of %d indexes built stayed resident", share, indexes, st.ColumnIndexes)
		}
	}
}

// TestCacheShedsGrowthFirst pins the order an insert makes room in:
// grown bytes, coldest entry first, and only then whole entries.
func TestCacheShedsGrowthFirst(t *testing.T) {
	var shed []string
	c := newLRUCache[string](10, func(v string) int64 { return int64(len(v)) }, nil,
		func(v string) { shed = append(shed, v) })
	get := func(key string) {
		t.Helper()
		if _, _, err := c.get(key, func() (string, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	yes := func(string) bool { return true }
	get("aaa")
	get("bbb")
	if !c.grow("aaa", 2, yes) || !c.grow("bbb", 2, yes) {
		t.Fatal("refused grows that fit")
	}
	get("ccc") // 13 bytes: both growths go, coldest first, and no entry
	if st := c.stats(); st.Bytes != 9 || st.Entries != 3 || st.Evictions != 0 || !slices.Equal(shed, []string{"aaa", "bbb"}) {
		t.Fatalf("after an insert over the budget: %+v, shed %v; want 9 bytes in 3 entries, aaa and bbb shed", st, shed)
	}
	get("ddd") // 12 bytes, nothing grown: aaa, the coldest, goes
	if st := c.stats(); st.Bytes != 9 || st.Evictions != 1 || len(shed) != 2 {
		t.Errorf("after a second insert: %+v, shed %v; want aaa evicted", st, shed)
	}
}
