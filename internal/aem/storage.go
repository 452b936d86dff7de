package aem

// Storage is the block engine behind a Machine: it owns the external
// memory's contents while the Machine owns the cost model (I/O counting,
// phase attribution, tracing, internal-memory metering). SliceStorage is
// the one engine; the interface stays so that a caller can wrap it, for
// instance to time or to fault its calls, and every algorithm sees only
// this interface.
//
// The Machine holds one Storage and calls it directly on every transfer:
// its costed ReadInto/Write and free PeekInto/Poke all map onto the same
// two data methods here — whether a transfer is billed is the cost model's
// business, not the storage's. The model's external memory is unbounded,
// but an engine's is the simulator's heap: Discard hands back the memory
// behind blocks an owner is done with, and like Alloc it costs nothing.
//
// Implementations may assume addresses are in range [0, NumBlocks()) and
// len(items) ≤ the machine's block size B: the Machine validates both
// before calling.
type Storage interface {
	// Alloc reserves count fresh, empty blocks and returns the address of
	// the first. Engines never free an address: an owner done with a
	// block may Discard it and Write it again (a dictionary service shard
	// rewrites the blocks its tree lets go of), but the block count only
	// grows. Addresses are dense and stable, and blocks never move:
	// growth adds storage for the new blocks without copying or remapping
	// the ones already allocated.
	Alloc(count int) Addr

	// NumBlocks returns the number of blocks allocated so far.
	NumBlocks() int

	// ReadInto copies block a's contents into dst and returns the filled
	// prefix, whose length is that of the block's last Write (0 for a
	// never-written block). If cap(dst) is smaller a fresh slice is
	// returned instead; callers that pass a capacity-B buffer never
	// allocate.
	//
	// ReadInto of a written block is the one concurrent operation: it is
	// safe while another goroutine calls Alloc, Write or Discard on other
	// blocks, or ReadInto, provided the write of block a happens before
	// the read. A Write may land in memory another block's Discard handed
	// back, never in a live block's. Every other method requires
	// exclusive access.
	ReadInto(a Addr, dst []Item) []Item

	// Write replaces block a's contents with a copy of items; the caller
	// keeps ownership of the argument slice.
	Write(a Addr, items []Item)

	// Discard tells the engine that the owner will not read blocks
	// [a, a+count) again before writing them: each reads back empty until
	// its next Write, and the engine may reuse its memory for later
	// writes. The addresses stay allocated, so NumBlocks is unchanged.
	// Discarding a never-written or already discarded block does nothing.
	Discard(a Addr, count int)
}

// sizedDst returns dst resized to hold n items, allocating only when the
// capacity is insufficient.
func sizedDst(dst []Item, n int) []Item {
	if cap(dst) < n {
		return make([]Item, n)
	}
	return dst[:n]
}

// SliceStorage is the RAM data engine: one Go slice per block, exactly
// the machine's original representation. Reads and writes copy, so no caller
// ever aliases a stored block. A write copies in place when the block's
// slice has room, and otherwise carves the block from a shared slab (a
// slab allocator in Bonwick's sense) as slab[i:i+n:i+n]: the clipped
// capacity keeps a block from ever growing into its neighbour, and the
// engine allocates once per slab rather than once per block. A discarded
// block's slice goes on a free list, and carving takes from that list
// before it cuts the slab.
type SliceStorage struct {
	n      int
	blocks segDir   // one slice header per block
	slab   []Item   // the current slab's uncarved rest
	free   [][]Item // discarded blocks' slices, at full capacity
}

// slabItems is the slice engine's slab size: 128 KiB of 16-byte items, a
// whole number of 8 KiB pages, so a slab wastes nothing to rounding and
// costs one allocation. Loading 2^20 items at B = 32 takes 128 slabs;
// with 32 KiB ones it took 512 and ran measurably slower.
const slabItems = 8192

// NewSliceStorage returns an empty slice engine.
func NewSliceStorage() *SliceStorage { return &SliceStorage{} }

// Alloc implements Storage.
func (s *SliceStorage) Alloc(count int) Addr {
	base := Addr(s.n)
	if count > 0 {
		s.blocks.cover(s.n + count)
		s.n += count
	}
	return base
}

// NumBlocks implements Storage.
func (s *SliceStorage) NumBlocks() int { return s.n }

// ReadInto implements Storage.
func (s *SliceStorage) ReadInto(a Addr, dst []Item) []Item {
	seg, off := locate(a)
	blk := s.blocks[seg][off]
	dst = sizedDst(dst, len(blk))
	copy(dst, blk)
	return dst
}

// Write implements Storage. Only block a's own slice is written, so a
// concurrent ReadInto of any other block is unaffected.
func (s *SliceStorage) Write(a Addr, items []Item) {
	seg, off := locate(a)
	blk := s.blocks[seg][off]
	if cap(blk) < len(items) {
		blk = s.carve(len(items))
	}
	blk = blk[:len(items)]
	copy(blk, items)
	s.blocks[seg][off] = blk
}

// Discard implements Storage. Each written block's slice moves to the
// free list and its table entry is cleared, so the block reads back
// empty and no two blocks ever share memory.
func (s *SliceStorage) Discard(a Addr, count int) {
	for end := a + Addr(count); a < end; a++ {
		seg, off := locate(a)
		if blk := s.blocks[seg][off]; cap(blk) > 0 {
			s.free = append(s.free, blk[:0])
			s.blocks[seg][off] = nil
		}
	}
}

// carve returns n items with capacity at least n: the most recently
// discarded block's slice if it is long enough, else a fresh cut from
// the current slab or, once its rest is too short, from a new one. A
// freed slice too short for n is dropped rather than searched past: the
// blocks a program discards and the ones it writes next are almost always
// the same size. A block larger than a slab gets an allocation of its
// own.
func (s *SliceStorage) carve(n int) []Item {
	if k := len(s.free); k > 0 {
		blk := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		if cap(blk) >= n {
			return blk
		}
	}
	if n > slabItems {
		return make([]Item, n)
	}
	if len(s.slab) < n {
		s.slab = make([]Item, slabItems)
	}
	blk := s.slab[:n:n]
	s.slab = s.slab[n:]
	return blk
}

// NewArenaStorage returns the slice engine; blockSize is ignored.
//
// Deprecated: the arena engine is gone and SliceStorage is the one RAM
// data engine. Use NewSliceStorage.
func NewArenaStorage(blockSize int) *SliceStorage { return NewSliceStorage() }
