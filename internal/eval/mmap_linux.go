//go:build linux

package eval

import (
	"fmt"
	"os"
	"syscall"
)

// mmapSupported reports whether this platform serves raw shards from a
// memory mapping; the !linux build runs the portable read-into-slice
// fallback instead (mmap_other.go).
const mmapSupported = true

// mapShardFile maps path read-only and advises the kernel the pages
// will be needed soon: the scan that demanded the shard is about to
// walk it. The release closure unmaps; it must not run while a
// slice into data can still be read — ShardCache's reader bracket
// enforces that.
func mapShardFile(path string) (data []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, nil, fmt.Errorf("eval: cannot map %d-byte shard file %s", size, path)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: mmap %s: %w", path, err)
	}
	// Best-effort readahead; the mapping works identically without it.
	_ = syscall.Madvise(data, syscall.MADV_WILLNEED)
	return data, func() { _ = syscall.Munmap(data) }, nil
}
