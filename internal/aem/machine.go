package aem

import (
	"fmt"
)

// OpKind distinguishes the two kinds of I/O operation in a trace.
type OpKind uint8

const (
	// OpRead is a block read from external memory.
	OpRead OpKind = iota
	// OpWrite is a block write to external memory.
	OpWrite
)

// String returns "R" or "W".
func (k OpKind) String() string {
	if k == OpRead {
		return "R"
	}
	return "W"
}

// TraceOp is one recorded I/O operation.
type TraceOp struct {
	Kind OpKind
	Addr Addr
}

// Machine simulates an (M,B,ω)-AEM machine: a block-granular external
// memory, an internal memory capacity meter, and I/O cost accounting.
//
// The external memory's contents live in a pluggable Storage engine; the
// machine itself owns the cost model and, between StartTrace and
// StopTrace, the in-memory trace of costed transfers. Every transfer,
// costed or free, reaches the engine through the one Storage reference
// the machine holds, so each engine runs the same machine code. New
// machines default to the reference SliceStorage — use NewWithStorage to
// run on another engine.
//
// The simulator deliberately does not model internal memory *contents* —
// internal computation is free in the model — but it does meter how many
// item slots an algorithm has reserved, and panics if the total ever exceeds
// M. Algorithms bracket their buffers with Reserve/Release; exceeding M is a
// bug in the algorithm (its memory footprint analysis is wrong), so the
// violation is an assertion failure rather than an error return.
type Machine struct {
	cfg       Config
	store     Storage
	stats     Stats
	phases    PhaseStats
	phase     string
	phaseSlot *Stats // phases slot for the current phase, kept hot
	// left is the phase SetPhase last left and leftSlot its slot (nil:
	// none), so the SetPhase(prev) that restores it skips the map.
	left     string
	leftSlot *Stats
	inUse    int
	peak     int
	tracing  bool
	trace    []TraceOp // operations recorded since StartTrace
	zeros    []Item    // lazily built zero block for ScanWrites on data engines
}

// New returns a fresh machine backed by the reference slice engine. It
// panics if cfg is invalid; constructing a machine from bad parameters is a
// programming error, and every CLI validates user input before reaching
// this point.
func New(cfg Config) *Machine {
	return NewWithStorage(cfg, NewSliceStorage())
}

// NewWithStorage returns a fresh machine on the given storage engine,
// which must be empty. Like New it panics on an invalid cfg, and on an
// engine whose fixed block capacity is smaller than cfg.B — catching the
// misconfiguration at construction rather than at the first large write
// deep inside an algorithm.
func NewWithStorage(cfg Config, store Storage) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if store.NumBlocks() != 0 {
		panic(fmt.Sprintf("aem: NewWithStorage: engine already holds %d blocks", store.NumBlocks()))
	}
	if sized, ok := store.(interface{ BlockSize() int }); ok && sized.BlockSize() < cfg.B {
		panic(fmt.Sprintf("aem: NewWithStorage: engine block capacity %d < B = %d", sized.BlockSize(), cfg.B))
	}
	ma := &Machine{cfg: cfg, store: store}
	ma.phaseSlot = ma.phases.slot("main")
	ma.phase = "main"
	return ma
}

// Recycle returns the machine to the state NewWithStorage would produce
// for cfg on the same storage engine: counters, phases, memory metering
// and any trace in progress are cleared and the engine is Reset to zero
// blocks (retaining its capacity, which is the point — a pooled machine's
// next run allocates nothing in steady state). cfg may differ from the
// machine's previous configuration in M and ω freely; like the
// constructor, Recycle panics on an invalid cfg or an engine whose fixed
// block capacity is smaller than the new B.
func (ma *Machine) Recycle(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if sized, ok := ma.store.(interface{ BlockSize() int }); ok && sized.BlockSize() < cfg.B {
		panic(fmt.Sprintf("aem: Recycle: engine block capacity %d < B = %d", sized.BlockSize(), cfg.B))
	}
	ma.cfg = cfg
	ma.store.Reset()
	ma.stats = Stats{}
	ma.phases = PhaseStats{}
	ma.phase = "main"
	ma.phaseSlot = ma.phases.slot("main")
	ma.leftSlot = nil
	ma.inUse = 0
	ma.peak = 0
	ma.tracing = false
	ma.trace = nil
}

// Config returns the machine parameters.
func (ma *Machine) Config() Config { return ma.cfg }

// Close releases the machine's storage engine. A machine over a stateful
// engine (the file engine's descriptor, mapping and temp file) must be
// closed after use exactly like an os.File; over RAM engines Close is a
// no-op. The machine is unusable afterwards.
func (ma *Machine) Close() error { return ma.store.Close() }

// Sync flushes the storage engine's written blocks to its backing device.
func (ma *Machine) Sync() error { return ma.store.Sync() }

// Stats returns the accumulated I/O counts.
func (ma *Machine) Stats() Stats { return ma.stats }

// Cost returns the accumulated AEM cost Q = Qr + ω·Qw.
func (ma *Machine) Cost() int64 { return ma.stats.Cost(ma.cfg.Omega) }

// ResetStats zeroes the I/O counters (the disk contents are untouched).
func (ma *Machine) ResetStats() {
	ma.stats = Stats{}
	ma.phases = PhaseStats{}
	ma.phaseSlot = ma.phases.slot(ma.phase)
	ma.leftSlot = nil
}

// SetPhase labels subsequent I/Os with the given phase name for per-stage
// accounting and returns the previous label so callers can restore it.
// The default phase is "main".
func (ma *Machine) SetPhase(name string) (previous string) {
	previous, slot := ma.phase, ma.phaseSlot
	if ma.leftSlot != nil && name == ma.left {
		ma.phaseSlot = ma.leftSlot
	} else {
		ma.phaseSlot = ma.phases.slot(name)
	}
	ma.phase = name
	ma.left, ma.leftSlot = previous, slot
	return previous
}

// Phases returns the per-phase I/O accounting.
func (ma *Machine) Phases() *PhaseStats { return &ma.phases }

// StartTrace begins recording every costed I/O operation, discarding
// any trace in progress. Recording continues until StopTrace.
func (ma *Machine) StartTrace() {
	ma.tracing = true
	ma.trace = nil
}

// StopTrace stops recording and returns the operations recorded since
// StartTrace. The machine keeps no reference to the returned slice. It
// panics if no trace was started.
func (ma *Machine) StopTrace() []TraceOp {
	if !ma.tracing {
		panic("aem: StopTrace without StartTrace")
	}
	ops := ma.trace
	ma.tracing = false
	ma.trace = nil
	return ops
}

// Tracing reports whether a trace is being recorded.
func (ma *Machine) Tracing() bool { return ma.tracing }

// NumBlocks returns the number of blocks currently allocated on disk.
func (ma *Machine) NumBlocks() int { return ma.store.NumBlocks() }

// Alloc reserves count fresh, empty, contiguous blocks of external memory
// and returns the address of the first. Allocation itself is free: the
// model's external memory is unbounded and address arithmetic costs
// nothing. Writing to the blocks costs I/O as usual.
func (ma *Machine) Alloc(count int) Addr {
	if count < 0 {
		panic(fmt.Sprintf("aem: Alloc(%d): negative count", count))
	}
	return ma.store.Alloc(count)
}

// Discard tells the storage engine that blocks [a, a+count) will not be
// read again before they are written: each reads back empty until its
// next Write, and the engine may reuse its memory. Like Alloc it is free
// and is not traced: the model's external memory is unbounded, and
// Discard frees only the simulator's memory. The addresses stay
// allocated.
func (ma *Machine) Discard(a Addr, count int) {
	ma.checkRange(a, count, "Discard")
	ma.store.Discard(a, count)
}

// ReadInto performs one read I/O, copies the block's contents (between 0
// and B items) into dst and returns the filled prefix. The copy models the
// transfer into internal memory; callers that retain it must account for
// its footprint with Reserve. With cap(dst) ≥ B it performs no allocation;
// with a smaller dst (nil included) the result is freshly allocated. The
// previous contents of dst are overwritten; the returned slice aliases dst.
func (ma *Machine) ReadInto(a Addr, dst []Item) []Item {
	ma.checkAddr(a, "ReadInto")
	ma.count(OpRead, a)
	return ma.store.ReadInto(a, dst)
}

// Write performs one write I/O, replacing the block's contents with a copy
// of items. It panics if len(items) > B: a block cannot hold more than B
// items.
func (ma *Machine) Write(a Addr, items []Item) {
	ma.checkAddr(a, "Write")
	if len(items) > ma.cfg.B {
		panic(fmt.Sprintf("aem: Write(%d): %d items exceed block size B=%d", a, len(items), ma.cfg.B))
	}
	ma.count(OpWrite, a)
	ma.store.Write(a, items)
}

// ScanReads performs blocks consecutive read I/Os over the address range
// [base, base+blocks) as one batched accounting step: the range is
// validated once and Stats and the current phase slot advance by a single
// addition instead of one count per block. It is the bulk primitive
// behind counting-only sweeps, where whole scan phases advance
// arithmetically rather than block-by-block.
//
// ScanReads does not materialize the transferred values — it models a
// data-oblivious scan whose schedule never branches on block contents
// (the paper's lower-bound setting: Q = Qr + ω·Qw is all that matters).
// Programs that inspect values use ReadInto or a Scanner, whose
// accounting ScanReads matches I/O-for-I/O.
//
// While tracing the per-op path is taken instead, so recorded traces
// are identical to an unbatched scan of the same range.
func (ma *Machine) ScanReads(base Addr, blocks int) {
	ma.checkRange(base, blocks, "ScanReads")
	if blocks == 0 {
		return
	}
	if ma.tracing {
		for i := 0; i < blocks; i++ {
			ma.count(OpRead, base+Addr(i))
		}
		return
	}
	ma.stats.Reads += int64(blocks)
	ma.phaseSlot.Reads += int64(blocks)
}

// ScanWrites performs blocks consecutive write I/Os over the address
// range [base, base+blocks) as one batched accounting step, modeling a
// streaming writer that fills every block to B items and the final block
// to lastLen (1 ≤ lastLen ≤ B) — exactly the schedule a Writer produces
// appending (blocks−1)·B + lastLen items. The values written are zero
// items: like ScanReads, the primitive serves data-oblivious programs
// whose output values are never inspected. Block lengths are recorded so
// subsequent scans of the range see the same sizes the per-op path would
// leave.
//
// On the counting engine the data plane is a bulk length update, the one
// engine-specific step in the machine: it is EXP-MG1's hot loop, and a
// per-block Write there would cost as much as the accounting it batches.
// On the data-bearing engines each block is zero-filled through the normal
// storage write. While tracing the accounting takes the per-op path, so
// recorded traces are identical to the equivalent Writer run.
func (ma *Machine) ScanWrites(base Addr, blocks int, lastLen int) {
	ma.checkRange(base, blocks, "ScanWrites")
	if blocks == 0 {
		return
	}
	if lastLen < 1 || lastLen > ma.cfg.B {
		panic(fmt.Sprintf("aem: ScanWrites(%d, %d): last block length %d outside [1, B=%d]",
			base, blocks, lastLen, ma.cfg.B))
	}
	if ma.tracing {
		for i := 0; i < blocks; i++ {
			ma.count(OpWrite, base+Addr(i))
		}
	} else {
		ma.stats.Writes += int64(blocks)
		ma.phaseSlot.Writes += int64(blocks)
	}
	if c, ok := ma.store.(*CountingStorage); ok {
		c.setLens(base, blocks, int32(ma.cfg.B), int32(lastLen))
		return
	}
	z := ma.zeroBlock()
	for i := 0; i < blocks-1; i++ {
		ma.store.Write(base+Addr(i), z)
	}
	ma.store.Write(base+Addr(blocks-1), z[:lastLen])
}

// zeroBlock returns a B-item all-zero block, built lazily and reused; it
// is only ever copied from, never written to.
func (ma *Machine) zeroBlock() []Item {
	if len(ma.zeros) < ma.cfg.B {
		ma.zeros = make([]Item, ma.cfg.B)
	}
	return ma.zeros[:ma.cfg.B]
}

// PeekInto copies the block's contents into dst like ReadInto, without
// performing (or costing) an I/O. It exists for test verification and for
// "program knowledge": in the paper's program model (§2) the structure of
// the input is known to the program for free; only data movement costs.
// Algorithms must not use PeekInto to move item *values* — tests enforce
// cost bounds that would be violated by such cheating anyway.
func (ma *Machine) PeekInto(a Addr, dst []Item) []Item {
	ma.checkAddr(a, "PeekInto")
	return ma.store.ReadInto(a, dst)
}

// Poke replaces the block's contents without performing (or costing) an
// I/O. It is used to lay out the *input*, which the model places in
// external memory at time zero at no cost.
func (ma *Machine) Poke(a Addr, items []Item) {
	ma.checkAddr(a, "Poke")
	if len(items) > ma.cfg.B {
		panic(fmt.Sprintf("aem: Poke(%d): %d items exceed block size B=%d", a, len(items), ma.cfg.B))
	}
	ma.store.Write(a, items)
}

// Reserve meters the allocation of slots items of internal memory. It
// panics if the total reserved would exceed M.
func (ma *Machine) Reserve(slots int) {
	if slots < 0 {
		panic(fmt.Sprintf("aem: Reserve(%d): negative count", slots))
	}
	if ma.inUse+slots > ma.cfg.M {
		panic(fmt.Sprintf("%v: in use %d + requested %d > M = %d",
			ErrMemoryOverflow, ma.inUse, slots, ma.cfg.M))
	}
	ma.inUse += slots
	if ma.inUse > ma.peak {
		ma.peak = ma.inUse
	}
}

// Release returns slots items of internal memory to the machine.
func (ma *Machine) Release(slots int) {
	if slots < 0 || slots > ma.inUse {
		panic(fmt.Sprintf("aem: Release(%d): in use %d", slots, ma.inUse))
	}
	ma.inUse -= slots
}

// MemInUse returns the number of internal memory slots currently reserved.
func (ma *Machine) MemInUse() int { return ma.inUse }

// MemPeak returns the high-water mark of reserved internal memory.
func (ma *Machine) MemPeak() int { return ma.peak }

func (ma *Machine) count(kind OpKind, a Addr) {
	if kind == OpRead {
		ma.stats.Reads++
		ma.phaseSlot.Reads++
	} else {
		ma.stats.Writes++
		ma.phaseSlot.Writes++
	}
	if ma.tracing {
		ma.trace = append(ma.trace, TraceOp{Kind: kind, Addr: a})
	}
}

// checkRange validates a bulk primitive's address range in one step —
// the whole point of batching is that this check runs once per phase
// segment, not once per block.
func (ma *Machine) checkRange(base Addr, blocks int, op string) {
	if blocks < 0 {
		panic(fmt.Sprintf("aem: %s(%d, %d): negative block count", op, base, blocks))
	}
	if n := ma.store.NumBlocks(); base < 0 || int(base)+blocks > n {
		panic(fmt.Sprintf("aem: %s(%d, %d): range outside [0,%d)", op, base, blocks, n))
	}
}

func (ma *Machine) checkAddr(a Addr, op string) {
	if n := ma.store.NumBlocks(); a < 0 || int(a) >= n {
		panic(fmt.Sprintf("aem: %s(%d): address out of range [0,%d)", op, a, n))
	}
}
