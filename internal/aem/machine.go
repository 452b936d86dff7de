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
// The external memory's contents live in a Storage engine; the machine
// itself owns the cost model and, between StartTrace and StopTrace, the
// in-memory trace of costed transfers. Every transfer, costed or free,
// reaches the engine through the one Storage reference the machine
// holds. New machines run on a fresh SliceStorage — use NewWithStorage to
// hand the machine a wrapped engine.
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
}

// New returns a fresh machine backed by a fresh slice engine. It
// panics if cfg is invalid; constructing a machine from bad parameters is a
// programming error, and every CLI validates user input before reaching
// this point.
func New(cfg Config) *Machine {
	return NewWithStorage(cfg, NewSliceStorage())
}

// NewWithStorage returns a fresh machine on the given storage engine,
// which must be empty. Like New it panics on an invalid cfg.
func NewWithStorage(cfg Config, store Storage) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if store.NumBlocks() != 0 {
		panic(fmt.Sprintf("aem: NewWithStorage: engine already holds %d blocks", store.NumBlocks()))
	}
	ma := &Machine{cfg: cfg, store: store}
	ma.phaseSlot = ma.phases.slot("main")
	ma.phase = "main"
	return ma
}

// Config returns the machine parameters.
func (ma *Machine) Config() Config { return ma.cfg }

// Close does nothing and returns nil: no storage engine owns anything
// outside the Go heap.
//
// Deprecated: machines need no closing. Only perfbench/ still calls it.
func (ma *Machine) Close() error { return nil }

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

// checkRange validates the block range [base, base+blocks) in one step.
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
