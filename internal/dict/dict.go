// Package dict implements online dictionaries on the (M,B,ω)-AEM machine:
// an ω-adaptive buffer-tree dictionary that batches its writes, and an
// unbatched B-tree baseline that pays ω on every update.
//
// The paper's central message is that when writes cost ω× reads, algorithms
// must buffer and batch their writes. The bulk computations elsewhere in
// this repository (sort, permute, SpMxV) show it for one-shot problems; the
// dictionary shows it in the online data-structure regime, extending the
// write-efficient ARAM/data-structure line of Blelloch et al. that the aem
// package documentation cites. A B-tree pays Θ(log_B N) reads plus ω for
// the leaf rewrite on every update; the buffer tree appends updates to
// per-node buffers and flushes them lazily in block-granular batches, so an
// update's amortized write count is O(height/B) — and the ω-adaptive root
// buffer of Θ(ω·M) items defers even that work longer the more expensive
// writes become.
//
// All dictionary state — buffers, leaf runs, routing keys — lives in
// external memory blocks accessed through the costed Machine.ReadInto/Write
// path with caller-owned block frames, so both dictionaries run unchanged
// (and allocation-free in steady state) on every storage engine.
package dict

import (
	"fmt"

	"repro/internal/aem"
)

// Kind distinguishes the four dictionary operations.
type Kind uint8

const (
	// Insert puts (Key, Value) into the dictionary, overwriting any
	// previous value.
	Insert Kind = 1
	// Delete removes Key; deleting an absent key is a no-op.
	Delete Kind = 2
	// Lookup reports the value currently associated with Key.
	Lookup Kind = 3
	// RangeScan reports every live (key, value) pair with Key ≤ key < Hi,
	// in ascending key order.
	RangeScan Kind = 4
)

// String names the operation kind.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Lookup:
		return "lookup"
	case RangeScan:
		return "range"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one dictionary operation in a stream.
type Op struct {
	Kind  Kind
	Key   int64
	Value int64 // Insert payload; must lie in [0, MaxValue]
	Hi    int64 // RangeScan end (exclusive)
}

// ValueBits is the width of a stored value. Values share an aem.Item's Aux
// field with the operation's sequence number and kind, so they are capped:
// the dictionary stores int64 keys and ValueBits-bit values.
const ValueBits = 30

// MaxValue is the largest storable value.
const MaxValue = 1<<ValueBits - 1

// maxSeq bounds the per-dictionary operation count: sequence numbers share
// the Aux field with the kind and value.
const maxSeq = 1 << 30

// Found is one hit of a range scan.
type Found struct {
	Key   int64
	Value int64
}

// Result answers one Lookup or RangeScan operation.
type Result struct {
	OK    bool    // Lookup: key present
	Value int64   // Lookup: associated value (0 if absent)
	Hits  []Found // RangeScan: live pairs in [Key, Hi), ascending by key
}

// Dict is an online dictionary processing a stream of operations in
// batches. Apply executes the batch in order — a Lookup observes exactly
// the Inserts and Deletes that precede it, including earlier ops of the
// same batch — and returns one Result per Lookup/RangeScan in stream
// order. Operation batches and their results are client-side streams, like
// the initial input of a bulk computation: the dictionary meters the
// internal memory it uses to process them, not the stream itself.
type Dict interface {
	Apply(ops []Op) []Result
	// Flush forces all buffered work down to the persistent structure.
	// Unbatched structures are always flushed; for the buffer tree this
	// empties every buffer into the leaf runs.
	Flush()
	// Len returns the number of live keys. It is derived from client-side
	// bookkeeping and costs no I/O.
	Len() int
}

// packEntry encodes an update (or a leaf entry, which is just the winning
// update for its key) into an Item Aux field: sequence number in the high
// bits, then the kind, then the value. Sorting items by (Key, Aux) with
// this encoding orders them by (key, seq), which is exactly the order
// updates must be applied in.
func packEntry(seq int64, kind Kind, value int64) int64 {
	return seq<<32 | int64(kind)<<ValueBits | value
}

func entrySeq(aux int64) int64   { return aux >> 32 }
func entryKind(aux int64) Kind   { return Kind(aux >> ValueBits & 3) }
func entryValue(aux int64) int64 { return aux & MaxValue }

// checkValue panics on a value outside the storable range; feeding the
// dictionary an unstorable value is a programming error in the caller.
func checkValue(v int64) {
	if v < 0 || v > MaxValue {
		panic(fmt.Sprintf("dict: value %d outside [0, %d]", v, int64(MaxValue)))
	}
}

// isUpdate reports whether the op mutates the dictionary.
func isUpdate(op Op) bool { return op.Kind == Insert || op.Kind == Delete }

// chain is an append-only bag of items stored in external blocks. Blocks
// are written once, whole, and never rewritten while the chain holds
// them: appending streams full frames into blocks no one else holds, so a
// chain of n items occupies at most ⌈n/B⌉ + (number of partial append
// tails) blocks. Chains back both node buffers (unordered bags of
// updates) and leaf runs (key-sorted entries); order is the writer's
// business, the chain just stores blocks. A block the chain lets go of is
// rewritten once no reader can reach it (see BufferTree.TakeRetired and
// Reuse).
//
// Within one node's buffer chain a later block holds only entries newer,
// by sequence number, than any earlier block's entries for the same key,
// and the root's stage is newer than the root's chain: the root appends
// in commit order, and a node flushes only its oldest blocks into its
// children, which append them after what they hold. So a point read may
// stop at the newest block that holds its key.
//
// Snapshots share the address array instead of copying it (see
// snapshot.go): a capture holds addrs[:len:len], and appending only ever
// writes past that length, so the captured entries stay intact. The one
// mutation that would overwrite them is reusing the array from index 0,
// so once a capture has shared it (shared is set), reset drops the array
// and the next append starts a fresh one. pub counts the chain's oldest
// blocks that a capture holds: appends come after them and drops take
// them first.
type chain struct {
	addrs  []aem.Addr
	n      int
	pub    int
	shared bool
}

// reset empties the chain, letting go of all its blocks. An array a
// snapshot shares is dropped rather than reused.
func (c *chain) reset() {
	if c.shared {
		c.addrs, c.shared = nil, false
	} else {
		c.addrs = c.addrs[:0]
	}
	c.n, c.pub = 0, 0
}

// dropPrefix detaches the chain's oldest k blocks, which hold n items
// (a flush just moved them down). Dropping every block is a reset.
func (c *chain) dropPrefix(k, n int) {
	if k == len(c.addrs) {
		c.reset()
		return
	}
	c.addrs = c.addrs[k:]
	c.n -= n
	c.pub = max(0, c.pub-k)
}

// blocks returns the number of blocks the chain occupies.
func (c *chain) blocks() int { return len(c.addrs) }

// chainWriter streams items into a chain through a caller-reserved block
// frame. The caller must Reserve B slots before constructing it and
// Release them after close.
type chainWriter struct {
	t     *BufferTree
	c     *chain
	frame []aem.Item
}

func newChainWriter(t *BufferTree, c *chain, frame []aem.Item) chainWriter {
	return chainWriter{t: t, c: c, frame: frame[:0]}
}

func (w *chainWriter) append(it aem.Item) {
	w.frame = append(w.frame, it)
	if len(w.frame) == cap(w.frame) {
		w.t.appendBlock(w.c, w.frame)
		w.frame = w.frame[:0]
	}
}

// close flushes the partial tail frame (if any). The frame memory itself
// is the caller's to release.
func (w *chainWriter) close() {
	if len(w.frame) > 0 {
		w.t.appendBlock(w.c, w.frame)
		w.frame = w.frame[:0]
	}
}

// chainScanner iterates the items of a chain's blocks, given by their
// addresses, through a caller-reserved block frame, one costed read per
// block.
type chainScanner struct {
	ma    *aem.Machine
	addrs []aem.Addr
	frame []aem.Item
	blk   int
	buf   []aem.Item
	pos   int
}

func newChainScanner(ma *aem.Machine, addrs []aem.Addr, frame []aem.Item) *chainScanner {
	return &chainScanner{ma: ma, addrs: addrs, frame: frame}
}

func (s *chainScanner) next() (aem.Item, bool) {
	for s.pos >= len(s.buf) {
		if s.blk >= len(s.addrs) {
			return aem.Item{}, false
		}
		s.buf = s.ma.ReadInto(s.addrs[s.blk], s.frame)
		s.blk++
		s.pos = 0
	}
	it := s.buf[s.pos]
	s.pos++
	return it, true
}
