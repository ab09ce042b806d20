package eval

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"gmark/internal/graphgen"
)

// The zero-copy residency tier: raw ("GMKCSR3\n") shards are laid out
// so their offset and adjacency arrays can be reinterpreted in place.
// On linux the shard file is memory-mapped (mmap_linux.go) and
// Neighbors slices point straight into the mapping — no copy, no
// decode, and cold pages fault in lazily under madvise(WILLNEED); on
// other platforms, or when the test knob forces it, the same image is
// read into one heap slice and viewed identically (mmap_other.go).
// Mapped entries carry a release closure the ShardCache runs on
// eviction — under the reader bracket that keeps munmap ordered after
// the last live Neighbors slice (see ShardCache.AcquireReader).

// loadRawShard opens one shard file for in-place interpretation.
// handled is false when the file is not the raw layout — mixed or
// varint/deflate spills under -spill-mmap simply fall back to the
// decoding loader — or when the image is unusable for viewing
// (misaligned buffer, big-endian host); a raw image that fails
// validation is corrupt and returns an error, as does one whose counts
// disagree with its manifest entry. The structural check covers the
// header and the offset array only: adjacency bytes are trusted,
// because validating them would fault in every page and defeat the
// mapping.
func (s *SpillSource) loadRawShard(meta graphgen.CSRShard) (sh *cachedShard, handled bool, err error) {
	path := s.spill.ShardPath(meta)
	var data []byte
	var release func()
	if mmapSupported && !s.forceRead {
		data, release, err = mapShardFile(path)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, true, err
	}
	drop := func() {
		if release != nil {
			release()
		}
	}
	lay, isRaw, err := graphgen.ParseRawShardImage(data)
	if err != nil {
		drop()
		return nil, true, fmt.Errorf("eval: %s: %w", meta.File, err)
	}
	if !isRaw {
		drop()
		return nil, false, nil
	}
	if lay.NLocal != meta.Hi-meta.Lo || lay.Edges != meta.Edges {
		drop()
		return nil, true, fmt.Errorf("eval: %s: holds %d nodes and %d edges, the manifest says %d and %d",
			meta.File, lay.NLocal, lay.Edges, meta.Hi-meta.Lo, meta.Edges)
	}
	off, okOff := viewInt32(data[lay.OffStart:], lay.NLocal+1)
	adj, okAdj := viewInt32(data[lay.AdjStart:], lay.Edges)
	if !okOff || !okAdj {
		// A misaligned buffer cannot back an []int32 view, nor can
		// little-endian bytes on a big-endian host; decode instead.
		// Mappings are page-aligned and ReadFile buffers are
		// allocator-aligned, so on little-endian hosts this is a
		// defensive path, not a real one.
		drop()
		return nil, false, nil
	}
	if err := graphgen.CheckShardOffsets(off, lay.Edges); err != nil {
		drop()
		return nil, true, fmt.Errorf("eval: %s: %w", meta.File, err)
	}
	return &cachedShard{
		lo:        int32(meta.Lo),
		off:       off,
		adj:       adj,
		bytes:     int64(len(data)),
		diskBytes: int64(len(data)),
		release:   release,
	}, true, nil
}

// hostLittleEndian reports whether this host stores an int32 in
// GMKCSR3's byte order, so a shard's bytes can be read in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// viewInt32 reinterprets the first 4*n bytes of b as an int32 slice
// without copying; ok is false when b is too short or not 4-byte
// aligned, or when the host is big-endian and the little-endian bytes
// would read as other numbers.
func viewInt32(b []byte, n int) ([]int32, bool) {
	if n == 0 {
		return nil, true
	}
	if !hostLittleEndian || len(b) < 4*n || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), true
}
