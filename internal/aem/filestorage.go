package aem

import (
	"fmt"
	"os"
	"unsafe"
)

// This file is the file storage engine: one file as the external memory.
// Every other engine in the repository is RAM-backed; this one checks
// that the algorithms and the cost accounting do not depend on where the
// blocks live, and serves `aem dict -engine file`.
//
// Block a occupies the byte range [a·stride, (a+1)·stride) of the file;
// live lengths are a segmented RAM side table (segments.go), as in the
// counting engine. On Linux one fixed window of mapWindow bytes is mapped
// read/write at construction and never remapped; growth extends the file
// under it with ftruncate alone, so blocks never move and transfers are
// memcpys against a stable mapping. Elsewhere transfers are buffered
// positional reads and writes straight through the caller's items.
//
// Storage I/O failures panic: the machine's ReadInto/Write signatures are
// error-free by design (an algorithm cannot meaningfully continue on a
// half-read block), so a failing device is an assertion failure like an
// out-of-range address, not a recoverable condition.

// itemSize is the on-disk size of one Item: two little-endian-native
// int64s. The file format is the in-memory representation, so the file is
// scratch external memory for one run on one machine, not an interchange
// format.
const itemSize = int(unsafe.Sizeof(Item{}))

// FileStorage is the file-backed engine. It is open from construction;
// Close releases the mapping and descriptor (and removes the file when
// the engine owns it, as registry-built temp engines do).
type FileStorage struct {
	f    *os.File
	path string
	own  bool // remove path on Close

	b      int   // block capacity in items
	stride int64 // bytes per block slot in the file
	n      int   // blocks allocated
	lens   segDir[int32]

	capBlk int    // block slots the file is currently sized for
	mm     []byte // the fixed mapping window (nil without mmap)
	closed bool
}

// NewFileStorage creates (truncating) the file at path and returns an
// open engine over it for blocks of at most blockSize items. The caller
// keeps ownership of the path: Close releases the descriptor but leaves
// the file behind.
func NewFileStorage(path string, blockSize int) (*FileStorage, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("aem: NewFileStorage(%q, %d): need blockSize ≥ 1", path, blockSize)
	}
	s := &FileStorage{path: path, b: blockSize, stride: int64(blockSize * itemSize)}
	var err error
	if s.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
		return nil, fmt.Errorf("aem: NewFileStorage: %w", err)
	}
	if mmapSupported {
		if s.mm, err = mmapFile(s.f, mapWindow); err != nil {
			s.f.Close()
			return nil, fmt.Errorf("aem: NewFileStorage: map %d bytes: %w", mapWindow, err)
		}
	}
	return s, nil
}

// NewTempFileStorage creates an engine over a fresh temp file in dir
// (os.TempDir() when dir is empty) that is removed on Close — the
// construction the engine registry uses, so an engine's external memory
// vanishes with the engine.
func NewTempFileStorage(dir string, blockSize int) (*FileStorage, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "aem-file-*.em")
	if err != nil {
		return nil, fmt.Errorf("aem: NewTempFileStorage: %w", err)
	}
	path := f.Name()
	f.Close()
	s, err := NewFileStorage(path, blockSize)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	s.own = true
	return s, nil
}

// Path returns the backing file's path.
func (s *FileStorage) Path() string { return s.path }

// BlockSize returns the engine's fixed per-block item capacity, letting
// NewWithStorage reject machines whose B exceeds it.
func (s *FileStorage) BlockSize() int { return s.b }

// Alloc implements Storage. Growing is an ftruncate (sparse, so untouched
// slots cost no disk) under the fixed mapping; capacity doubles, so
// steady-state allocation is amortized O(1) syscalls.
func (s *FileStorage) Alloc(count int) Addr {
	s.mustOpen("Alloc")
	base := Addr(s.n)
	if count <= 0 {
		return base
	}
	need := s.n + count
	if need > s.capBlk {
		capBlk := max(2*s.capBlk, need, 16)
		if s.mm != nil {
			window := int(int64(len(s.mm)) / s.stride)
			if need > window {
				panic(fmt.Sprintf("aem: file engine %s: %d blocks exceed the %d-block mapping window", s.path, need, window))
			}
			capBlk = min(capBlk, window)
		}
		if err := s.f.Truncate(int64(capBlk) * s.stride); err != nil {
			panic(fmt.Sprintf("aem: file engine %s: grow to %d blocks: %v", s.path, capBlk, err))
		}
		s.capBlk = capBlk
	}
	s.lens.cover(need)
	s.n = need
	return base
}

// NumBlocks implements Storage.
func (s *FileStorage) NumBlocks() int { return s.n }

// ReadInto implements Storage.
func (s *FileStorage) ReadInto(a Addr, dst []Item) []Item {
	s.mustOpen("ReadInto")
	seg, slot := locate(a)
	n := int(s.lens[seg][slot])
	dst = sizedDst(dst, n)
	if n == 0 {
		return dst
	}
	off := int64(a) * s.stride
	if s.mm != nil {
		copy(itemBytes(dst), s.mm[off:off+int64(n*itemSize)])
	} else if _, err := s.f.ReadAt(itemBytes(dst), off); err != nil {
		panic(fmt.Sprintf("aem: file engine %s: read block %d: %v", s.path, a, err))
	}
	return dst
}

// Write implements Storage.
func (s *FileStorage) Write(a Addr, items []Item) {
	s.mustOpen("Write")
	if len(items) > s.b {
		panic(fmt.Sprintf("aem: file Write(%d): %d items exceed block capacity %d", a, len(items), s.b))
	}
	off := int64(a) * s.stride
	if s.mm != nil {
		copy(s.mm[off:], itemBytes(items))
	} else if _, err := s.f.WriteAt(itemBytes(items), off); err != nil {
		panic(fmt.Sprintf("aem: file engine %s: write block %d: %v", s.path, a, err))
	}
	seg, slot := locate(a)
	s.lens[seg][slot] = int32(len(items))
}

// Discard implements Storage: the blocks' lengths drop to 0. Their slots
// keep their bytes until the next Write overwrites them.
func (s *FileStorage) Discard(a Addr, count int) {
	s.mustOpen("Discard")
	s.lens.fill(a, count, 0)
}

// Reset implements Storage: the Reset contract for a stateful engine is
// truncate, not leak — the file shrinks to zero bytes, so a recycled
// engine cannot serve (or keep paying disk for) a previous run's blocks.
// The mapping stays: the next Alloc re-extends the file under it, and
// newly extended regions read as zeros, which is exactly the fresh-engine
// behavior the conformance suite demands.
func (s *FileStorage) Reset() {
	s.mustOpen("Reset")
	if err := s.f.Truncate(0); err != nil {
		panic(fmt.Sprintf("aem: file engine %s: truncate on Reset: %v", s.path, err))
	}
	s.lens.clear(s.n)
	s.n = 0
	s.capBlk = 0
}

// Sync implements Storage: flush written blocks to the device. fsync
// covers dirty pages of a shared mapping too, so written blocks are
// durable after Sync returns.
func (s *FileStorage) Sync() error {
	s.mustOpen("Sync")
	return s.f.Sync()
}

// Close implements Storage: unmap, release the descriptor, and remove
// the file when the engine owns it. Idempotent.
func (s *FileStorage) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.mm != nil {
		err = munmapFile(s.mm)
		s.mm = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.own {
		if rerr := os.Remove(s.path); err == nil {
			err = rerr
		}
	}
	return err
}

func (s *FileStorage) mustOpen(op string) {
	if s.closed {
		panic(fmt.Sprintf("aem: file engine %s: %s after Close", s.path, op))
	}
}

// itemBytes reinterprets an Item slice as its backing bytes — the
// transfer path's zero-copy bridge between the typed world and the file.
func itemBytes(items []Item) []byte {
	if len(items) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&items[0])), len(items)*itemSize)
}
