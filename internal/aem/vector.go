package aem

import "fmt"

// Vector is a view of N items stored in ⌈N/B⌉ consecutive blocks of
// external memory — the standard input/output layout of the EM literature.
// All blocks except possibly the last hold exactly B items.
type Vector struct {
	ma   *Machine
	base Addr
	n    int
}

// NewVector allocates ⌈n/B⌉ fresh blocks for a vector of n items. The
// blocks start empty; fill them with a Writer (costed) or Load (free, for
// inputs).
func NewVector(ma *Machine, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("aem: NewVector(%d): negative length", n))
	}
	blocks := ma.cfg.BlocksOf(n)
	base := ma.Alloc(blocks)
	return &Vector{ma: ma, base: base, n: n}
}

// Load places items into the vector's blocks without costing I/O. It models
// the initial condition of the machine: the input resides in external
// memory at time zero. It panics if len(items) differs from the vector
// length.
func Load(ma *Machine, items []Item) *Vector {
	v := NewVector(ma, len(items))
	b := ma.cfg.B
	for i := 0; i < len(items); i += b {
		end := i + b
		if end > len(items) {
			end = len(items)
		}
		ma.Poke(v.base+Addr(i/b), items[i:end])
	}
	return v
}

// Len returns the number of items in the vector.
func (v *Vector) Len() int { return v.n }

// Base returns the address of the vector's first block.
func (v *Vector) Base() Addr { return v.base }

// Blocks returns the number of blocks the vector occupies.
func (v *Vector) Blocks() int { return v.ma.cfg.BlocksOf(v.n) }

// Machine returns the machine the vector lives on.
func (v *Vector) Machine() *Machine { return v.ma }

// BlockAddr returns the address of the block holding item index i.
func (v *Vector) BlockAddr(i int) Addr {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("aem: BlockAddr(%d): index out of range [0,%d)", i, v.n))
	}
	return v.base + Addr(i/v.ma.cfg.B)
}

// ReadBlockInto reads (with cost) the block holding item index i into the
// caller-owned dst buffer, returning the filled prefix and the index of
// the block's first item. With cap(dst) ≥ B no allocation occurs; the
// returned slice aliases dst and is overwritten by the caller's next read
// into the same buffer.
func (v *Vector) ReadBlockInto(i int, dst []Item) (items []Item, first int) {
	a := v.BlockAddr(i)
	return v.ma.ReadInto(a, dst), int(a-v.base) * v.ma.cfg.B
}

// Discard hands the vector's blocks [lo, hi), in block indices, back to
// the storage engine (Machine.Discard): the owner will not read them
// again. It costs nothing.
func (v *Vector) Discard(lo, hi int) {
	if lo < 0 || hi < lo || hi > v.Blocks() {
		panic(fmt.Sprintf("aem: Discard(%d,%d) of vector of %d blocks", lo, hi, v.Blocks()))
	}
	v.ma.Discard(v.base+Addr(lo), hi-lo)
}

// Materialize returns a copy of the whole vector without costing I/O. For
// verification in tests and experiment harnesses only.
func (v *Vector) Materialize() []Item {
	out := make([]Item, v.n)
	pos := 0
	for b := 0; b < v.Blocks(); b++ {
		got := v.ma.PeekInto(v.base+Addr(b), out[pos:pos:len(out)])
		pos += len(got)
	}
	if pos != v.n {
		panic(fmt.Sprintf("aem: Materialize: vector holds %d items, expected %d", pos, v.n))
	}
	return out
}

// Slice returns a sub-vector view of items [lo, hi). The bounds must be
// block-aligned (lo % B == 0), since a vector is a view of whole blocks;
// hi may be v.Len() or any multiple of B.
func (v *Vector) Slice(lo, hi int) *Vector {
	b := v.ma.cfg.B
	if lo < 0 || hi < lo || hi > v.n {
		panic(fmt.Sprintf("aem: Slice(%d,%d) of vector of length %d", lo, hi, v.n))
	}
	if lo%b != 0 {
		panic(fmt.Sprintf("aem: Slice(%d,%d): lower bound not block-aligned (B=%d)", lo, hi, b))
	}
	if hi != v.n && hi%b != 0 {
		panic(fmt.Sprintf("aem: Slice(%d,%d): upper bound not block-aligned (B=%d)", lo, hi, b))
	}
	return &Vector{ma: v.ma, base: v.base + Addr(lo/b), n: hi - lo}
}

// Shrink returns a view of the first n items of v. It is used by
// length-reducing operations (merge with duplicate reduction) that allocate
// for the worst case and then discover the true output length. n must not
// exceed v.Len().
func (v *Vector) Shrink(n int) *Vector {
	if n < 0 || n > v.n {
		panic(fmt.Sprintf("aem: Shrink(%d) of vector of length %d", n, v.n))
	}
	return &Vector{ma: v.ma, base: v.base, n: n}
}

// Scanner reads a vector sequentially, one block at a time, costing one
// read I/O per block boundary crossed. It reserves B slots of internal
// memory for its current block; call Close to release them. The block
// frame is allocated once at construction, so scanning performs no
// allocation per I/O.
type Scanner struct {
	v      *Vector
	pos    int    // index of next item to return
	frame  []Item // owned buffer of capacity B
	buf    []Item // current block contents (aliases frame)
	bufLo  int    // index of buf[0] within the vector
	closed bool
}

// NewScanner returns a scanner positioned at the start of v.
func (v *Vector) NewScanner() *Scanner {
	v.ma.Reserve(v.ma.cfg.B)
	return &Scanner{v: v, bufLo: -1, frame: make([]Item, 0, v.ma.cfg.B)}
}

// Next returns the next item. ok is false when the vector is exhausted.
func (s *Scanner) Next() (item Item, ok bool) {
	if s.pos >= s.v.n {
		return Item{}, false
	}
	if s.bufLo < 0 || s.pos >= s.bufLo+len(s.buf) {
		s.refill()
	}
	item = s.buf[s.pos-s.bufLo]
	s.pos++
	return item, true
}

// refill advances the block frame to the block holding s.pos, costing one
// read I/O.
func (s *Scanner) refill() {
	s.buf, s.bufLo = s.v.ReadBlockInto(s.pos, s.frame)
}

// Peek returns the next item without consuming it.
func (s *Scanner) Peek() (item Item, ok bool) {
	item, ok = s.Next()
	if ok {
		s.pos--
	}
	return item, ok
}

// Remaining returns how many items have not yet been returned.
func (s *Scanner) Remaining() int { return s.v.n - s.pos }

// Close releases the scanner's internal memory reservation. A scanner must
// be closed exactly once.
func (s *Scanner) Close() {
	if s.closed {
		panic("aem: Scanner closed twice")
	}
	s.closed = true
	s.v.ma.Release(s.v.ma.cfg.B)
}

// Writer appends items to a vector sequentially, buffering one block in
// internal memory and writing each block exactly once when it fills (or on
// Close). It reserves B slots of internal memory.
type Writer struct {
	v       *Vector
	pos     int    // number of items appended so far
	flushed int    // number of items already flushed to external memory
	buf     []Item // buffered items [flushed, pos)
	closed  bool
}

// NewWriter returns a writer positioned at the start of v. The caller must
// append exactly v.Len() items before Close.
func (v *Vector) NewWriter() *Writer {
	v.ma.Reserve(v.ma.cfg.B)
	return &Writer{v: v, buf: make([]Item, 0, v.ma.cfg.B)}
}

// Append buffers one item, flushing a full block to external memory (one
// write I/O) when B items have accumulated.
func (w *Writer) Append(item Item) {
	if w.pos >= w.v.n {
		panic(fmt.Sprintf("aem: Writer overflow: vector length %d", w.v.n))
	}
	w.buf = append(w.buf, item)
	w.pos++
	if w.pos-w.flushed == w.v.ma.cfg.B {
		w.flush()
	}
}

// Written returns the number of items appended so far.
func (w *Writer) Written() int { return w.pos }

func (w *Writer) flush() {
	if w.pos == w.flushed {
		return
	}
	ma := w.v.ma
	ma.Write(w.v.base+Addr(w.flushed/ma.cfg.B), w.buf)
	w.buf = w.buf[:0]
	w.flushed = w.pos
}

// Close flushes any partial final block and releases the writer's internal
// memory. It panics if fewer than v.Len() items were appended, since the
// vector would be left with undefined holes.
func (w *Writer) Close() {
	if w.closed {
		panic("aem: Writer closed twice")
	}
	if w.pos != w.v.n {
		panic(fmt.Sprintf("aem: Writer closed after %d of %d items", w.pos, w.v.n))
	}
	w.flush()
	w.closed = true
	w.v.ma.Release(w.v.ma.cfg.B)
}

// CloseShort flushes and releases like Close but permits fewer than
// v.Len() appended items, returning the count. Pair it with Vector.Shrink
// when the output length is data-dependent.
func (w *Writer) CloseShort() int {
	if w.closed {
		panic("aem: Writer closed twice")
	}
	w.flush()
	w.closed = true
	w.v.ma.Release(w.v.ma.cfg.B)
	return w.pos
}
