//go:build linux

package aem

import (
	"os"
	"syscall"
)

// Linux serves the file engine through a shared writable mapping. Other
// platforms use buffered positional I/O (see filestorage_portable.go).

// mmapSupported gates the file engine's zero-syscall transfer path.
const mmapSupported = true

// mapWindow is the span the file engine maps once, at construction: 64 GiB
// of address space on 64-bit platforms (1 GiB on 32-bit ones). The file
// grows into the window with ftruncate alone, so the mapping, and every
// block in it, never moves. The window reserves address space, not memory:
// only the pages of allocated blocks are ever touched.
const mapWindow = 1 << (30 + 6*(^uint(0)>>63))

// mmapFile maps length bytes of f read/write, shared with the file.
func mmapFile(f *os.File, length int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, length, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// munmapFile releases a mapping created by mmapFile.
func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}
