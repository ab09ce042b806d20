package eval

import (
	"fmt"
	"testing"

	"gmark/internal/graphgen"
	"gmark/internal/testutil"
	"gmark/internal/usecases"
)

// openRaw opens a spill with the zero-copy path enabled, optionally
// forcing the portable read-into-slice fallback instead of mmap.
func openRaw(t *testing.T, dir string, forceRead bool) *SpillSource {
	t.Helper()
	src, err := OpenSpillSourceWith(dir, SpillSourceOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	src.forceRead = forceRead
	return src
}

// TestRawMmapCountsIdentical is the zero-copy acceptance property: a
// raw (-spill-compress=raw) spill served from memory mappings — and
// from the portable fallback reader — counts pinned equal to the
// in-memory evaluator for every built-in use case at shard widths 1,
// 7, and the default. Run with -race in CI.
func TestRawMmapCountsIdentical(t *testing.T) {
	for _, uc := range usecases.Names {
		for _, width := range []int{1, 7, 0} {
			size := 150
			t.Run(fmt.Sprintf("%s/width=%d", uc, width), func(t *testing.T) {
				t.Parallel()
				g, dir := buildSpillComp(t, uc, size, width, graphgen.SpillCompressRaw)
				cfg := testutil.Config(t, uc, size)
				pred := cfg.Schema.Predicates[0].Name
				for _, expr := range []string{pred, pred + "-." + pred, "(" + pred + ")*"} {
					q := chainQuery(t, expr)
					want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
					if err != nil {
						t.Fatalf("in-memory %s: %v", expr, err)
					}
					for _, forceRead := range []bool{false, true} {
						src := openRaw(t, dir, forceRead)
						got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 2})
						if err != nil {
							t.Fatalf("forceRead=%v %s: %v", forceRead, expr, err)
						}
						if got != want {
							t.Errorf("forceRead=%v count(%s) = %d, in-memory = %d", forceRead, expr, got, want)
						}
						st := src.CacheStats()
						if mmapSupported && !forceRead && st.MappedBytes == 0 {
							t.Errorf("mmap path served count(%s) with no mapped bytes (%+v)", expr, st)
						}
						if (forceRead || !mmapSupported) && st.MappedBytes != 0 {
							t.Errorf("fallback path reported %d mapped bytes", st.MappedBytes)
						}
					}
				}
			})
		}
	}
}

// TestSpillWorkerCountsIdentical: a multi-range bib spill, raw served
// by mmap and varint served by the decoding reader, counts
// authors-.authors equal to the in-memory evaluator sequentially and
// with three workers.
func TestSpillWorkerCountsIdentical(t *testing.T) {
	for _, comp := range []graphgen.SpillCompression{graphgen.SpillCompressRaw, graphgen.SpillCompressVarint} {
		g, dir := buildSpillComp(t, "bib", 300, 10, comp)
		q := chainQuery(t, "authors-.authors")
		want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			src, err := OpenSpillSourceWith(dir, SpillSourceOptions{Mmap: comp == graphgen.SpillCompressRaw})
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v workers=%d: count %d != in-memory %d", comp, workers, got, want)
			}
		}
	}
}

// TestMmapEvictionReleasesMappings: evicting mapped entries — by
// budget pressure and by Purge — must return MappedBytes to zero, the
// observable half of the munmap contract (the syscall itself is the
// release closure the accounting is keyed on).
func TestMmapEvictionReleasesMappings(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	_, dir := buildSpillComp(t, "bib", 400, 25, graphgen.SpillCompressRaw)

	// A budget far below the working set forces evictions mid-scan.
	src, err := OpenSpillSourceWith(dir, SpillSourceOptions{Mmap: true, CacheBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	q := chainQuery(t, "authors-.authors")
	if _, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	st := src.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("tight budget evicted nothing (%+v)", st)
	}
	if st.MappedBytes != st.BytesUsed {
		t.Errorf("all-raw spill: mapped %d != resident %d", st.MappedBytes, st.BytesUsed)
	}

	src.cache.Purge()
	st = src.CacheStats()
	if st.MappedBytes != 0 || st.BytesUsed != 0 {
		t.Errorf("after Purge: mapped %d, resident %d; want 0, 0", st.MappedBytes, st.BytesUsed)
	}

	// The spill must still be readable after a full purge: evicted
	// mappings reload on demand.
	if _, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestMmapEvictionRetiresUnderReader: an eviction that races an open
// reader bracket must retire the mapping instead of unmapping it, and
// the last reader's release must reclaim everything retired.
func TestMmapEvictionRetiresUnderReader(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	_, dir := buildSpillComp(t, "bib", 200, 20, graphgen.SpillCompressRaw)
	src, err := OpenSpillSourceWith(dir, SpillSourceOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountWith(src, chainQuery(t, "authors"), Budget{}, EvalOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	release := src.AcquireReader()
	src.cache.Purge()
	src.cache.mu.Lock()
	retired := len(src.cache.retired)
	src.cache.mu.Unlock()
	if retired == 0 {
		t.Fatal("purge under an open reader bracket retired no mappings")
	}

	release()
	src.cache.mu.Lock()
	retired = len(src.cache.retired)
	readers := src.cache.readers
	src.cache.mu.Unlock()
	if retired != 0 || readers != 0 {
		t.Errorf("after last release: %d retired, %d readers; want 0, 0", retired, readers)
	}
	// release is idempotent (sync.Once); a double call must not
	// corrupt the reader count.
	release()
	src.cache.mu.Lock()
	readers = src.cache.readers
	src.cache.mu.Unlock()
	if readers != 0 {
		t.Errorf("double release drove readers to %d", readers)
	}
}

// TestMmapMixedSpillFallsBack: the Mmap option on a varint spill must
// transparently use the decoding loader — same counts, nothing mapped.
func TestMmapMixedSpillFallsBack(t *testing.T) {
	g, dir := buildSpillComp(t, "bib", 200, 20, graphgen.SpillCompressVarint)
	q := chainQuery(t, "authors-.authors")
	want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := openRaw(t, dir, false)
	got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("count = %d, in-memory = %d", got, want)
	}
	if st := src.CacheStats(); st.MappedBytes != 0 {
		t.Errorf("varint spill mapped %d bytes", st.MappedBytes)
	}
}

// TestRawViewFallsBackOnBigEndian: on a big-endian host a raw shard's
// little-endian bytes cannot be viewed in place, so the Mmap option
// decodes them instead — same counts, nothing left mapped.
func TestRawViewFallsBackOnBigEndian(t *testing.T) {
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	g, dir := buildSpillComp(t, "bib", 200, 20, graphgen.SpillCompressRaw)
	q := chainQuery(t, "authors-.authors")
	want, err := CountWith(g, q, Budget{}, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, forceRead := range []bool{false, true} {
		src := openRaw(t, dir, forceRead)
		got, err := CountWith(src, q, Budget{}, EvalOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("forceRead=%v: count = %d, in-memory = %d", forceRead, got, want)
		}
		if st := src.CacheStats(); st.MappedBytes != 0 {
			t.Errorf("forceRead=%v: %d bytes left mapped", forceRead, st.MappedBytes)
		}
	}
}
