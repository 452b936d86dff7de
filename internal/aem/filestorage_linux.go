//go:build linux

package aem

import (
	"os"
	"syscall"
)

// Linux gets both real-I/O paths: shared writable mappings for the mmap
// mode and O_DIRECT for the direct mode. Other platforms fall back to
// buffered positional I/O (see filestorage_portable.go).

// mmapSupported gates FileMmap's zero-syscall transfer path.
const mmapSupported = true

// mapWindow is the span the mmap mode maps once, at construction: 64 GiB
// of address space on 64-bit platforms (1 GiB on 32-bit ones). The file
// grows into the window with ftruncate alone, so the mapping, and every
// block in it, never moves. The window reserves address space, not memory:
// only the pages of allocated blocks are ever touched.
const mapWindow = 1 << (30 + 6*(^uint(0)>>63))

// directOpenFlag is OR'd into the open flags of FileDirect engines; a
// filesystem that rejects it (tmpfs) falls back to buffered I/O at open.
const directOpenFlag = syscall.O_DIRECT

// mmapFile maps length bytes of f read/write, shared with the file.
func mmapFile(f *os.File, length int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, length, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// munmapFile releases a mapping created by mmapFile.
func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}
