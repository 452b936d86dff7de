package dict

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/aem"
	"repro/internal/slab"
	"repro/internal/sorting"
)

// BufferTree is an ω-adaptive buffer-tree dictionary in the style of Arge,
// adapted to the AEM cost model:
//
//   - The skeleton is a balanced search tree with fan-out d ≈ m over leaf
//     runs of ≤ M/2 key-sorted entries.
//   - Every node carries an unordered external buffer of pending updates.
//     Updates land in the root's stage, a B-item internal-memory tail that
//     reaches the root chain only as full blocks (see stage), and trickle
//     down lazily: when a buffer crosses its threshold it is streamed once,
//     partitioned among the children's buffers, and emptied. At the
//     leaves, buffered updates are merge-applied into the sorted run.
//   - The root buffer's capacity is Θ(ω·M) — the ω-adaptive knob. The more
//     expensive writes are, the longer updates batch up before any
//     restructuring happens, trading cheap buffer-scan reads on the query
//     path for expensive structural writes. At ω = 1 the tree behaves like
//     a classic EM buffer tree; at large ω it approaches a differential
//     log + static store.
//
// An update is therefore written O((height + c)/B) times amortized instead
// of the B-tree's ≥ 1 per operation, which is the write-buffering message
// of the paper in data-structure form.
//
// Updates carry sequence numbers (packEntry), so buffers can be unordered
// bags: whenever two updates for the same key meet — at a leaf apply or on
// a query path — the larger sequence number wins. Deletes persist in leaf
// runs as tombstone entries (so out-of-order chunked applies stay correct)
// and are purged at rebuilds.
//
// The tree's shape bookkeeping (child pointers, block addresses, item
// counts) is program knowledge in the sense of §2 of the paper and lives in
// Go structs, exactly as aem.Vector keeps its base address; all data — keys,
// values, separator keys — lives in external blocks and moves only through
// costed I/O. Batches of operations and their results are client-side
// streams (see Dict); the tree meters every internal buffer it uses to
// process them.
type BufferTree struct {
	ma  *aem.Machine
	cfg aem.Config

	rootCap    int // root buffer flush threshold, Θ(ω·M)
	intCap     int // internal node buffer flush threshold, M/2
	leafBufCap int // leaf buffer apply threshold, M/4
	leafCap    int // target leaf run size at rebuild, M/2; rebuild at 2×
	chunkCap   int // leaf-apply in-memory chunk, M/2

	seq     int64
	frame   []aem.Item // shared B-item scratch frame for serial scans
	top     *btnode
	liveRun int // live (non-tombstone) entries across all leaf runs
	runLen  int // total entries (incl. tombstones) across all leaf runs

	// stage holds the root buffer's partial tail block in internal memory:
	// updates accumulate here and only full blocks are appended to the
	// root chain, so the chain holds ⌈n/B⌉ blocks however small the Apply
	// batches are (a serving layer's group commits are sized by its
	// writers, not by B), and no Apply pays for a partial block write. Its
	// B items of internal memory are reserved for the tree's lifetime.
	// stageFree marks a flush section that has already spilled the stage
	// and released its reservation, so nested sections don't double spill.
	// stageShared marks a stage array whose entries a snapshot can read,
	// which a spill must replace rather than refill (see spillStage);
	// every stage is carved from stages, so each starts at a distinct
	// element, which StagedSince's identity check needs.
	stage       []aem.Item
	stageFree   bool
	stageShared bool

	// debt is the queue of overfull nodes awaiting a flush, in the
	// breadth-first order of the run-to-completion cascade (see payDebt).
	// In the default (amortized) mode it is paid to empty the moment the
	// root buffer crosses its threshold; in deamortized mode (see
	// Deamortize) the caller retires it incrementally via FlushStep.
	debt        []*btnode
	deamortized bool
	nodeFlushes int64 // cumulative node-flushes (partition or leaf apply)

	// oversized records that some leaf run has outgrown 2× the target leaf
	// size since the last rebuild. mergeApply never shrinks a run (every
	// key it held is emitted again), so the flag stays exact until rebuild
	// replaces the leaves, and the rebuild check costs O(1).
	oversized bool

	// rootSnap is the root's last capture, kept by value so that a
	// publish recapturing only the root allocates no node; rootSnapOf is
	// the root it captured and rootGen counts root captures (see
	// captureRoot). The root's own btnode.snap stays nil.
	rootSnap   snapNode
	rootSnapOf *btnode
	rootGen    int64

	// captureVisits counts the nodes capture has visited, cumulatively:
	// the work of a publish, which tests pin.
	captureVisits int64

	// Node-flush scratch, reused so a flush allocates nothing per child:
	// partition's separator keys, its d writers and their d·B frame
	// items (the first B of which are mergeApply's output frame), and
	// applyLeaf's in-memory chunk. This is host memory only: the flush
	// paths Reserve the model's internal memory for it where they use it.
	seps    []int64
	writers []chainWriter
	frames  []aem.Item
	chunk   []aem.Item

	// Block reuse (see TakeRetired). retired lists the captured addresses
	// the tree has let go of since its owner last took them; spare holds
	// addresses free to rewrite, which single-block writes take before
	// allocating; reused counts the writes that did. sortArea and sorter
	// are the external leaf sort's scratch extent and working set (see
	// sortBuf).
	retired  []aem.Addr
	spare    []aem.Addr
	reused   int64
	sortArea *aem.Vector
	sorter   *sorting.SmallSorter

	// Slabs for what captures share and flushes write, so neither a
	// publish nor a flush allocates per node or per array: snapNodes,
	// their child lists, chain address arrays and stages. A capture keeps
	// the slabs of its carves alive; the sizes below bound that (see
	// slabNodes). Captures are carved in eras (see startEra); eraLeft
	// counts the non-root captures the current era may still carve.
	nodes    slab.Carver[snapNode]
	kidLists slab.Carver[*snapNode]
	addrs    slab.Carver[aem.Addr]
	stages   slab.Carver[aem.Item]
	eraLeft  int
}

// The tree's slab sizes, in elements: a node slab is 32 × 104 B = 3.3
// KiB, a child-list slab 2 KiB, an address slab 32 KiB and a stage slab
// 64·B items (32 KiB at B = 32), each within Go's small-object size
// classes. Node and child-list slabs are the small ones because every era
// (see startEra) abandons the rest of one of each. Address and stage
// slabs hold no pointers, so one is kept alive only by its own live
// carves, each of which keeps at most one slab alive: a tree of n nodes,
// whose chains and captures reach about two address arrays per node,
// keeps at most 2n address slabs, and in practice a few, since carves
// made in one flush sit side by side and mostly die together. Node and
// child-list slabs do hold pointers, which eras bound (see startEra).
const (
	slabNodes     = 32
	slabKids      = 256
	slabAddrs     = 4096
	slabStageRuns = 64
)

// eraCaptures is how many non-root captures per tree node one era carves
// before the next begins.
const eraCaptures = 4

// startEra begins a new era of captures: fresh node and child-list slabs
// (slab.Carver.Drop), and every node dirty, so the next publish
// recaptures the whole tree into them. A slab is one object, so a live
// slab keeps alive whatever its dead captures point to, and their slabs
// in turn; within one era that chain can reach every slab the era
// carved. No capture points into an earlier era's slabs, so an era's
// slabs are garbage once no snapshot of it is held. For a tree of n
// nodes an era carves at most (eraCaptures+1)·n captures, so the live
// tree and its current snapshot keep at most that many alive, and a
// snapshot held from the previous era as many again; the whole-tree
// recapture that starts an era costs n captures per eraCaptures·n.
// Rebuilds start an era too, since every node is new.
func (t *BufferTree) startEra() {
	t.nodes.Drop()
	t.kidLists.Drop()
	n := 0
	var mark func(nd *btnode)
	mark = func(nd *btnode) {
		nd.dirty = true
		n++
		for _, kid := range nd.kids {
			mark(kid)
		}
	}
	mark(t.top)
	t.eraLeft = eraCaptures * n
}

// TakeRetired appends the addresses retired since the last call to dst
// and returns it. Every one is unreachable from the live tree, and from
// any snapshot captured after its retirement.
//
// The tree rewrites the blocks it lets go of. A block that some capture
// holds — a flushed buffer prefix, a replaced leaf run, a rebuilt
// skeleton's runs and separator blocks — may still be read through a
// snapshot, which the tree cannot see, so it is retired, and rewritten
// only once the owner hands it back through Reuse, when no reader can
// reach it. A block no capture ever held (one a flush wrote and a later
// flush dropped before the next capture) and the external leaf sort's
// vectors are rewritten at once. A tree whose owner never drains it keeps
// every block a capture held, as a tree that reused nothing would, plus
// one address in retired for each; a tree that is never captured retires
// only the separator blocks its rebuilds replace (see retireTree).
// External memory is unbounded in the model and a rewritten address is
// billed like a fresh one, so reuse moves no I/O count, only how many
// blocks the tree stores.
func (t *BufferTree) TakeRetired(dst []aem.Addr) []aem.Addr {
	dst = append(dst, t.retired...)
	t.retired = t.retired[:0]
	return dst
}

// Reuse hands the tree back retired addresses that no reader can reach
// any more; later single-block writes take them before allocating.
func (t *BufferTree) Reuse(addrs []aem.Addr) { t.spare = append(t.spare, addrs...) }

// ReusedBlocks returns how many block writes have taken a reclaimed
// address instead of a fresh one.
func (t *BufferTree) ReusedBlocks() int64 { return t.reused }

// ReachableBlocks appends to dst the address of every external block the
// live tree holds — each node's buffer and run blocks and its separator
// blocks — and returns it. A structure walk, no I/O.
func (t *BufferTree) ReachableBlocks(dst []aem.Addr) []aem.Addr {
	var walk func(nd *btnode)
	walk = func(nd *btnode) {
		dst = append(dst, nd.buf.addrs...)
		dst = append(dst, nd.run.addrs...)
		for b := 0; b < nd.sepBlocks; b++ {
			dst = append(dst, nd.sepBase+aem.Addr(b))
		}
		for _, kid := range nd.kids {
			walk(kid)
		}
	}
	walk(t.top)
	return dst
}

// letGo hands over c's oldest k blocks, which the caller is about to
// drop from the chain: those a capture holds (the chain's first pub) are
// retired, the rest are spare at once.
func (t *BufferTree) letGo(c *chain, k int) {
	p := min(k, c.pub)
	t.retired = append(t.retired, c.addrs[:p]...)
	t.spare = append(t.spare, c.addrs[p:k]...)
}

// spareRange makes the contiguous blocks [lo, hi), which no capture
// holds, spare. Nothing reads a spare block before rewriting it, so
// their memory goes back to the engine at once.
func (t *BufferTree) spareRange(lo, hi aem.Addr) {
	t.ma.Discard(lo, int(hi-lo))
	for a := lo; a < hi; a++ {
		t.spare = append(t.spare, a)
	}
}

// retireTree lets go of every block left in the subtree at nd; a rebuild
// has just copied it. Separator blocks are retired whether or not a capture
// holds them: a node is rarely rebuilt away before its first capture.
func (t *BufferTree) retireTree(nd *btnode) {
	t.letGo(&nd.buf, nd.buf.blocks())
	t.letGo(&nd.run, nd.run.blocks())
	for b := 0; b < nd.sepBlocks; b++ {
		t.retired = append(t.retired, nd.sepBase+aem.Addr(b))
	}
	for _, kid := range nd.kids {
		t.retireTree(kid)
	}
}

// allocBlock returns the address of one block to write: a reclaimed one
// if the owner has handed any back, else a fresh one.
func (t *BufferTree) allocBlock() aem.Addr {
	if n := len(t.spare); n > 0 {
		a := t.spare[n-1]
		t.spare = t.spare[:n-1]
		t.reused++
		return a
	}
	return t.ma.Alloc(1)
}

// appendBlock writes items (≤ B of them) as the next block of c. A full
// address array is replaced by one twice as long, carved from the
// address slab; a capture may still share the old one.
func (t *BufferTree) appendBlock(c *chain, items []aem.Item) {
	a := t.allocBlock()
	t.ma.Write(a, items)
	if len(c.addrs) == cap(c.addrs) {
		grown := t.addrs.Take(max(2*len(c.addrs), 1))
		c.addrs = grown[:copy(grown, c.addrs)]
	}
	c.addrs = append(c.addrs, a)
	c.n += len(items)
}

// EnableTailStaging does nothing: every tree stages its root tail (see
// BufferTree.stage).
//
// Deprecated: staging is the only root-buffer mode. The method goes with
// perfbench's traced replay, its last caller.
func (t *BufferTree) EnableTailStaging() {}

// newStage returns an empty stage of capacity B, carved from the stage
// slab.
func (t *BufferTree) newStage() []aem.Item { return t.stages.Take(t.cfg.B)[:0] }

// Deamortize switches the tree to incremental flushing: crossing the root
// threshold enqueues the root on the debt queue instead of running the
// cascade to completion, and the caller retires debt with FlushStep — at
// most `budget` node-flushes per call — so the worst write-path stall is
// one node-flush, not a full cascade. The amortized cascade is the same
// engine run to empty, FlushStep(∞), except that the root is paid whole
// there and in bounded installments here (see rootStep); that, and the
// narrower fan-out beside a resident stage (see Fanout), changes the I/O
// accounting by a constant factor, not asymptotically. If debt is never
// retired, the root buffer is flushed one installment at a time at 2×
// its threshold. Rebuilds never run on the incremental path; callers trigger
// them at idle via Compact, and Flush keeps its drain-everything barrier
// semantics. Must be called before the first Apply.
func (t *BufferTree) Deamortize() {
	if t.deamortized {
		return
	}
	if t.seq != 0 {
		panic("dict: Deamortize after updates were applied")
	}
	t.deamortized = true
}

// spillStage appends the staged items (if any) to the root chain as one
// block and empties the stage: appends spill a full stage, and a flush
// that needs the root buffer's full contents in external memory spills
// the partial tail. A stage array shared with a snapshot is left to the
// snapshot and replaced by a fresh one.
func (t *BufferTree) spillStage() {
	if len(t.stage) == 0 {
		return
	}
	t.appendBlock(&t.top.buf, t.stage)
	t.top.touch()
	if t.stageShared {
		t.stage, t.stageShared = t.newStage(), false
	} else {
		t.stage = t.stage[:0]
	}
}

// releaseStage spills the stage and releases its internal-memory
// reservation until reclaimStage: the cascade, rebuild and external
// leaf-apply paths size their streaming frames to use all of M, and the
// stage's B slots are genuinely free while it is empty. It reports false,
// leaving nothing to reclaim, when an enclosing section already released
// it.
func (t *BufferTree) releaseStage() bool {
	if t.stageFree {
		return false
	}
	t.spillStage()
	t.ma.Release(t.cfg.B)
	t.stageFree = true
	return true
}

// reclaimStage re-reserves the stage's slots after releaseStage.
func (t *BufferTree) reclaimStage() {
	t.stageFree = false
	t.ma.Reserve(t.cfg.B)
}

// rootPending returns the root buffer's total pending updates, staged
// items included.
func (t *BufferTree) rootPending() int { return t.top.buf.n + len(t.stage) }

// flushSection runs f as one flush section: its I/O is charged to the
// "dict-flush" phase. With spill set, the stage is spilled (that write
// stays with the caller's phase) and released for the duration; sections
// that may flush the root whole or rebuild must spill, while a
// deamortized step leaves the stage resident.
func (t *BufferTree) flushSection(spill bool, f func()) {
	released := spill && t.releaseStage()
	prev := t.ma.SetPhase("dict-flush")
	f()
	t.ma.SetPhase(prev)
	if released {
		t.reclaimStage()
	}
}

// btnode is one tree node. Internal nodes have children and externally
// stored separator keys; leaves have a sorted run. Both have a buffer.
//
// dirty marks a node whose chains, or some descendant's, changed since its
// last capture (see touch); a clean node's capture (snap, or the tree's
// rootSnap for the root) is current, so a capture stops there.
type btnode struct {
	kids   []*btnode // nil for a leaf
	parent *btnode   // nil for the root
	dirty  bool

	sepBase   aem.Addr // separator blocks (internal only)
	sepBlocks int

	buf    chain     // pending updates, unordered
	run    chain     // leaf only: entries sorted by key, unique keys, incl. tombstones
	liveN  int       // leaf only: non-tombstone entries in run
	inDebt bool      // queued on the tree's debt queue (dedup flag)
	snap   *snapNode // last capture of this non-root node, reused while unchanged
}

func (nd *btnode) isLeaf() bool { return nd.kids == nil }

// touch marks nd and its ancestors dirty. Every dirty node's parent is
// dirty too (a capture cleans top-down along dirty paths only), so the
// walk stops at the first node already marked.
func (nd *btnode) touch() {
	for ; nd != nil && !nd.dirty; nd = nd.parent {
		nd.dirty = true
	}
}

// NewBufferTree returns an empty dictionary on the machine. It requires
// M ≥ 8B, the same minimum the repository's mergesort needs: below that
// there is no room for a block frame per child next to a scan frame.
func NewBufferTree(ma *aem.Machine) *BufferTree {
	cfg := ma.Config()
	if cfg.M < 8*cfg.B {
		panic(fmt.Sprintf("dict: BufferTree needs M ≥ 8B, got M=%d B=%d", cfg.M, cfg.B))
	}
	t := &BufferTree{
		ma:         ma,
		cfg:        cfg,
		rootCap:    cfg.Omega * cfg.M,
		intCap:     cfg.M / 2,
		leafBufCap: cfg.M / 4,
		leafCap:    cfg.M / 2,
		chunkCap:   cfg.M / 2,
		frame:      make([]aem.Item, cfg.B),
		top:        &btnode{dirty: true},
		nodes:      slab.New[snapNode](slabNodes),
		kidLists:   slab.New[*snapNode](slabKids),
		addrs:      slab.New[aem.Addr](slabAddrs),
		stages:     slab.New[aem.Item](slabStageRuns * cfg.B),
	}
	t.stage = t.newStage()
	t.startEra()
	ma.Reserve(cfg.B) // the stage, for the tree's lifetime
	return t
}

// Fanout returns the fan-out d of a buffer tree on a machine with cfg: ~m,
// capped so one streaming partition — a scan frame, d output frames and d
// separator keys — fits in internal memory. A deamortized non-root
// partition runs with the stage's B slots still reserved (spilling the
// stage on every step would re-fragment the root chain), so there d must
// fit beside it: d + (d+1)·B + B ≤ M. The bounds predictors call this
// too, so prediction and implementation share one choice of d.
func Fanout(cfg aem.Config, deamortized bool) int {
	free := cfg.M - cfg.B
	if deamortized {
		free -= cfg.B
	}
	return max(2, min(cfg.BlocksInMemory(), free/(cfg.B+1)))
}

// Fanout returns the tree's fan-out d in its current mode.
func (t *BufferTree) Fanout() int { return Fanout(t.cfg, t.deamortized) }

// RootCap returns the ω-adaptive root buffer capacity in items.
func (t *BufferTree) RootCap() int { return t.rootCap }

// Len reports the number of live keys materialized in the leaf runs. It is
// exact after Flush; between flushes, buffered updates are not counted.
func (t *BufferTree) Len() int { return t.liveRun }

// Height returns the number of node levels (1 for a single leaf).
func (t *BufferTree) Height() int {
	h, nd := 1, t.top
	for !nd.isLeaf() {
		h++
		nd = nd.kids[0]
	}
	return h
}

// Apply implements Dict.
func (t *BufferTree) Apply(ops []Op) []Result {
	var results []Result
	for i := 0; i < len(ops); {
		j := i
		if isUpdate(ops[i]) {
			for j < len(ops) && isUpdate(ops[j]) {
				j++
			}
			t.update(ops[i:j])
		} else {
			for j < len(ops) && !isUpdate(ops[j]) {
				j++
			}
			results = append(results, t.query(ops[i:j])...)
		}
		i = j
	}
	return results
}

// Flush implements Dict: every buffered update is pushed into the leaf
// runs, then the rebuild condition is checked once.
func (t *BufferTree) Flush() {
	t.flushSection(true, func() {
		t.forceFlush()
		t.maybeRebuild()
	})
}

// update appends a run of Insert/Delete ops to the root buffer. Whenever
// the buffer reaches the ω·M threshold — also mid-batch, so a single huge
// batch behaves exactly like the same ops trickling in — the root joins
// the debt queue. Amortized mode pays the queue to empty on the spot (the
// classic run-to-completion cascade, FlushStep(∞)); deamortized mode
// leaves the debt for FlushStep and only flushes root installments itself
// if occupancy reaches 2× the threshold, preserving the root-chain
// occupancy bound without a full cascade on the write path.
func (t *BufferTree) update(ops []Op) {
	for i := 0; i < len(ops); {
		room := t.rootCap - t.rootPending()
		if room < 1 {
			room = 1
		}
		j := min(len(ops), i+room)
		t.appendUpdates(ops[i:j])
		i = j
		if t.rootPending() < t.rootCap {
			continue
		}
		t.addDebt(t.top)
		if !t.deamortized {
			t.flushSection(true, func() {
				for t.payDebt() {
				}
				t.maybeRebuild()
			})
			continue
		}
		// Backstop: occupancy must never outrun the debt queue's drain
		// rate unboundedly. Each installment is a bounded O(chunkCap)
		// root-prefix flush, so even a huge batch pays its excess in
		// bounded stalls rather than one cascade.
		for t.rootPending() >= 2*t.rootCap && t.top.buf.blocks() > 0 {
			t.flushSection(false, func() { t.flushNode(t.top, t.rootStep()) })
		}
	}
}

// appendUpdates stages packed updates in the root's tail; only full
// blocks reach the chain.
func (t *BufferTree) appendUpdates(ops []Op) {
	prev := t.ma.SetPhase("dict-append")
	for _, op := range ops {
		if op.Kind == Insert {
			checkValue(op.Value)
		}
		t.seq++
		if t.seq >= maxSeq {
			panic("dict: operation sequence space exhausted")
		}
		t.stage = append(t.stage, aem.Item{Key: op.Key, Aux: packEntry(t.seq, op.Kind, op.Value)})
		if len(t.stage) == t.cfg.B {
			t.spillStage()
		}
	}
	t.ma.SetPhase(prev)
}

// addDebt enqueues a node for flushing unless it is already queued.
func (t *BufferTree) addDebt(nd *btnode) {
	if nd.inDebt {
		return
	}
	nd.inDebt = true
	t.debt = append(t.debt, nd)
}

// Debt returns the number of queued node-flushes still owed. Entries
// whose buffers have since been emptied (a forced root flush, a barrier)
// may linger until popped; they are skipped for free by FlushStep.
func (t *BufferTree) Debt() int { return len(t.debt) }

// NodeFlushes returns the cumulative count of node-flushes (buffer
// partitions and leaf applies) the tree has performed — the unit FlushStep
// budgets in. Serving layers difference it across a commit batch to pin
// the bounded-stall contract.
func (t *BufferTree) NodeFlushes() int64 { return t.nodeFlushes }

// wholeBuffer is the block count that flushes a node's entire buffer —
// for the root, with the staged tail spilled into its chain first.
const wholeBuffer = math.MaxInt

// rootStep returns how many of the root chain's oldest blocks one debt
// payment flushes. Amortized mode pays the root whole: installments would
// each re-read the separators and close d partial child frames, changing
// the cascade's I/O. Deamortized mode pays it in installments of
// ⌈chunkCap/B⌉ blocks, O(M) work each, because the root's debt is Θ(ωM)
// items — the size of a whole cascade.
func (t *BufferTree) rootStep() int {
	if t.deamortized {
		return (t.chunkCap + t.cfg.B - 1) / t.cfg.B
	}
	return wholeBuffer
}

// payDebt pops the oldest debt entry with work and pays it, reporting
// whether there was one; entries whose buffers emptied in the meantime (a
// root backstop, a barrier) are discarded on the way. A non-root node is
// flushed whole. The root is flushed by rootStep() blocks and rejoins the
// back of the queue until its chain is empty; draining it to empty (not
// merely below rootCap) matches the amortized mode's average occupancy
// and keeps snapshot reads from scanning a permanently full root chain.
// Any flush order is safe because every entry carries its sequence number
// and winners are chosen by it. Seeded with the root and paid until the
// queue is empty, this visits nodes in exactly the breadth-first order of
// the classic run-to-completion cascade.
func (t *BufferTree) payDebt() bool {
	for len(t.debt) > 0 {
		nd := t.debt[0]
		t.debt = slices.Delete(t.debt, 0, 1) // keeps the queue's capacity
		nd.inDebt = false
		if nd.buf.n == 0 {
			continue
		}
		k := wholeBuffer
		if nd == t.top {
			k = t.rootStep()
		}
		t.flushNode(nd, k)
		if nd.buf.blocks() > 0 {
			t.addDebt(nd) // a root installment left blocks behind
		}
		return true
	}
	return false
}

// FlushStep pays at most budget node-flushes from the debt queue (see
// payDebt) and returns how many it performed; discarded empty entries do
// not count toward the budget. The steps are one flush section. Children
// pushed over their threshold by a step join the back of the queue; the
// caller keeps stepping (or calls Flush) to retire them.
func (t *BufferTree) FlushStep(budget int) int {
	if budget <= 0 || len(t.debt) == 0 {
		return 0
	}
	done := 0
	t.flushSection(false, func() {
		for done < budget && t.payDebt() {
			done++
		}
	})
	return done
}

// flushNode performs one node-flush of the oldest k blocks of nd's buffer
// (wholeBuffer: all of it): partition them among an internal node's
// children, enqueuing any child pushed over its threshold, or merge-apply
// them into a leaf's run. It is the only node-flush: the cascade, the
// deamortized steps, the root backstop and the barrier all come here.
// Only a whole root flush spills the stage (its items belong to the root
// buffer and ride the partition down), and only an external leaf apply
// releases its reservation; every other flush runs with the stage
// resident — Fanout guarantees a non-root partition fits beside it, and
// spilling on every step would re-fragment the chain staging exists to
// defragment.
func (t *BufferTree) flushNode(nd *btnode, k int) {
	if nd.buf.n == 0 {
		return
	}
	t.nodeFlushes++
	nd.touch()
	if nd.isLeaf() {
		t.applyLeaf(nd, k)
		return
	}
	t.partition(nd, k)
	for _, kid := range nd.kids {
		if kid.buf.n >= t.threshold(kid) {
			t.addDebt(kid)
		}
	}
}

// forceFlush pushes every buffer in the tree down to the leaves regardless
// of thresholds, level by level. Every buffer is empty afterwards, so any
// queued debt is settled wholesale and the queue is cleared.
func (t *BufferTree) forceFlush() {
	level := []*btnode{t.top}
	for len(level) > 0 {
		var next []*btnode
		for _, nd := range level {
			t.flushNode(nd, wholeBuffer)
			next = append(next, nd.kids...)
		}
		level = next
	}
	for _, nd := range t.debt {
		nd.inDebt = false
	}
	clear(t.debt) // pin no node: a rebuild may be about to drop them all
	t.debt = t.debt[:0]
}

// prefix returns the addresses of the oldest k blocks of nd's buffer, to
// scan (wholeBuffer: every block, after spilling the root's staged tail).
func (t *BufferTree) prefix(nd *btnode, k int) []aem.Addr {
	if k == wholeBuffer && nd == t.top {
		t.spillStage()
	}
	return nd.buf.addrs[:min(k, nd.buf.blocks())]
}

func (t *BufferTree) threshold(nd *btnode) int {
	if nd.isLeaf() {
		return t.leafBufCap
	}
	return t.intCap
}

// readSeps loads an internal node's separator keys (the lower key bound of
// each child; seps[0] is -∞). One costed read per separator block; the
// keys occupy metered internal memory only while the caller holds them —
// callers must Release len(kids) slots when done. The keys live in the
// tree's scratch until the next readSeps.
func (t *BufferTree) readSeps(nd *btnode) []int64 {
	t.ma.Reserve(len(nd.kids) + t.cfg.B)
	seps := t.seps[:0]
	for b := 0; b < nd.sepBlocks; b++ {
		blk := t.ma.ReadInto(nd.sepBase+aem.Addr(b), t.frame[:0])
		for _, it := range blk {
			seps = append(seps, it.Key)
		}
	}
	t.ma.Release(t.cfg.B)
	if len(seps) != len(nd.kids) {
		panic(fmt.Sprintf("dict: node has %d separators for %d children", len(seps), len(nd.kids)))
	}
	t.seps = seps
	return seps
}

// writeSeps stores the separator keys of a freshly built internal node.
func (t *BufferTree) writeSeps(nd *btnode, seps []int64) {
	nd.sepBlocks = (len(seps) + t.cfg.B - 1) / t.cfg.B
	if nd.sepBlocks == 1 {
		nd.sepBase = t.allocBlock()
	} else {
		nd.sepBase = t.ma.Alloc(nd.sepBlocks)
	}
	t.ma.Reserve(t.cfg.B)
	frame := make([]aem.Item, 0, t.cfg.B)
	blk := 0
	for i, s := range seps {
		frame = append(frame, aem.Item{Key: s, Aux: int64(i)})
		if len(frame) == t.cfg.B || i == len(seps)-1 {
			t.ma.Write(nd.sepBase+aem.Addr(blk), frame)
			blk++
			frame = frame[:0]
		}
	}
	t.ma.Release(t.cfg.B)
}

// route returns the index of the child covering key k: child i covers
// [seps[i], seps[i+1]), with seps[0] acting as -∞ and the last interval
// open-ended. A binary search without a closure, so the snapshot lookup
// path stays allocation-free.
func route(seps []int64, k int64) int {
	lo, hi := 0, len(seps)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k < seps[mid+1] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// partition streams the oldest k blocks of an internal node's buffer once
// and distributes their updates among the children's buffers — one scan
// frame in, d output frames out, d separator keys resident — then detaches
// those blocks.
func (t *BufferTree) partition(nd *btnode, k int) {
	pre := t.prefix(nd, k)
	seps := t.readSeps(nd) // holds len(kids) slots until released below
	d := len(nd.kids)
	t.ma.Reserve((d + 1) * t.cfg.B)
	scan := newChainScanner(t.ma, pre, t.frame)
	frames, b := t.outFrames(d), t.cfg.B
	if len(t.writers) < d {
		t.writers = make([]chainWriter, d)
	}
	writers := t.writers[:d]
	for i, kid := range nd.kids {
		writers[i] = chainWriter{t: t, c: &kid.buf, frame: frames[i*b : i*b : (i+1)*b]}
	}
	moved := 0
	for {
		it, ok := scan.next()
		if !ok {
			break
		}
		moved++
		i := route(seps, it.Key)
		writers[i].append(it)
		nd.kids[i].touch()
	}
	for i := range writers {
		writers[i].close()
	}
	clear(writers) // pin no child's chain
	t.letGo(&nd.buf, len(pre))
	nd.buf.dropPrefix(len(pre), moved)
	t.ma.Release((d + 1) * t.cfg.B)
	t.ma.Release(d) // separators
}

// outFrames returns d block frames of tree scratch laid end to end,
// clipped to d·B items.
func (t *BufferTree) outFrames(d int) []aem.Item {
	n := d * t.cfg.B
	if len(t.frames) < n {
		t.frames = make([]aem.Item, n)
	}
	return t.frames[:n:n]
}

// applyLeaf merges the updates in the oldest k blocks of a leaf's buffer
// into its sorted run in ONE streaming pass over the run, so the run is
// rewritten once per apply no matter how many updates arrived, then
// detaches those blocks. A whole buffer of up to M/2 items, or a bounded
// prefix, is sorted in internal memory (free computation); a bigger whole
// buffer — a root cascade can dump up to ω·M updates on one leaf — is
// materialized and sorted with the repository's own AEM mergesort, which
// converts the would-be write amplification into cheap read passes,
// exactly the trade the model rewards. That external path sizes itself to
// all of M, so it runs with the stage spilled.
func (t *BufferTree) applyLeaf(leaf *btnode, k int) {
	pre := t.prefix(leaf, k)
	if k == wholeBuffer && leaf.buf.n > t.chunkCap {
		released := t.releaseStage()
		sorted, lo, hi := t.sortBuf(&leaf.buf)
		sc := sorted.NewScanner()
		t.mergeApply(leaf, leaf.buf.n, sc.Next)
		sc.Close()
		if released {
			t.reclaimStage()
		}
		t.letGo(&leaf.buf, leaf.buf.blocks())
		leaf.buf.reset()
		t.spareRange(lo, hi)
		return
	}
	room := min(leaf.buf.n, len(pre)*t.cfg.B) // items the prefix can hold
	t.ma.Reserve(room + t.cfg.B)
	chunk := slices.Grow(t.chunk[:0], room)
	scan := newChainScanner(t.ma, pre, t.frame)
	for {
		it, ok := scan.next()
		if !ok {
			break
		}
		chunk = append(chunk, it)
	}
	sortEntries(chunk)
	i := 0
	t.mergeApply(leaf, len(chunk), func() (aem.Item, bool) {
		if i < len(chunk) {
			i++
			return chunk[i-1], true
		}
		return aem.Item{}, false
	})
	t.letGo(&leaf.buf, len(pre))
	leaf.buf.dropPrefix(len(pre), len(chunk))
	t.ma.Release(room + t.cfg.B)
	t.chunk = chunk
}

// sortBuf copies a buffer chain into a contiguous vector and sorts it with
// the repository's AEM mergesort, returning the sorted vector. No capture
// ever holds the sort's vectors. A buffer of up to ωM items — mergesort's
// base case, SmallSort — sorts with the same I/O in the tree's sortArea,
// which at least doubles whenever a sort outgrows it, up to room for two
// such buffers, and in one SmallSorter kept for the tree's lifetime. A
// larger buffer (a height-1 root reaches 2·ωM) sorts in fresh vectors;
// sortBuf reports the blocks [lo, hi) they took, spare once the caller is
// done with the sorted vector.
func (t *BufferTree) sortBuf(c *chain) (sorted *aem.Vector, lo, hi aem.Addr) {
	small := t.cfg.Omega * t.cfg.M
	if c.n > small {
		lo = aem.Addr(t.ma.NumBlocks())
		v := aem.NewVector(t.ma, c.n)
		t.materialize(c, v)
		sorted = sorting.MergeSort(t.ma, v)
		return sorted, lo, aem.Addr(t.ma.NumBlocks())
	}
	half := t.cfg.BlocksOf(c.n) * t.cfg.B
	if t.sortArea == nil || t.sortArea.Len() < 2*half {
		size := 2 * half
		if old := t.sortArea; old != nil {
			size = max(size, min(2*old.Len(), 2*small))
			t.spareRange(old.Base(), old.Base()+aem.Addr(old.Blocks()))
		}
		t.sortArea = aem.NewVector(t.ma, size)
	}
	v := t.sortArea.Slice(0, half).Shrink(c.n)
	sorted = t.sortArea.Slice(half, 2*half).Shrink(c.n)
	t.materialize(c, v)
	if t.sorter == nil {
		t.sorter = sorting.NewSmallSorter(t.cfg)
	}
	t.sorter.SortInto(t.ma, v, sorted)
	return sorted, 0, 0
}

// materialize copies a buffer chain into v, a vector of its length, so it
// can be sorted externally: one read and one write per block.
func (t *BufferTree) materialize(c *chain, v *aem.Vector) {
	t.ma.Reserve(t.cfg.B)
	scan := newChainScanner(t.ma, c.addrs, t.frame)
	w := v.NewWriter()
	for {
		it, ok := scan.next()
		if !ok {
			break
		}
		w.Append(it)
	}
	w.Close()
	t.ma.Release(t.cfg.B)
}

// mergeApply merges a (key, seq)-sorted stream of n updates into the
// leaf's run: one streaming pass, two block frames. The run keeps exactly
// one entry per key — the winning update, tombstones included. The new
// run replaces the old one, its address list sized up front for the
// merge's largest outcome.
func (t *BufferTree) mergeApply(leaf *btnode, n int, next func() (aem.Item, bool)) {
	t.ma.Reserve(2 * t.cfg.B)
	old := leaf.run
	leaf.run = chain{addrs: t.addrs.Take((old.n + n + t.cfg.B - 1) / t.cfg.B)[:0]}
	scan := newChainScanner(t.ma, old.addrs, t.frame)
	w := newChainWriter(t, &leaf.run, t.outFrames(1))
	liveN := 0
	emit := func(it aem.Item) {
		w.append(it)
		if entryKind(it.Aux) == Insert {
			liveN++
		}
	}
	cur, ok := scan.next()
	op, opOk := next()
	for ok || opOk {
		if !opOk || (ok && cur.Key < op.Key) {
			emit(cur)
			cur, ok = scan.next()
			continue
		}
		k := op.Key
		win := op
		for op, opOk = next(); opOk && op.Key == k; op, opOk = next() {
			if entrySeq(op.Aux) > entrySeq(win.Aux) {
				win = op
			}
		}
		if ok && cur.Key == k {
			if entrySeq(cur.Aux) > entrySeq(win.Aux) {
				win = cur
			}
			cur, ok = scan.next()
		}
		emit(win)
	}
	w.close()
	t.letGo(&old, old.blocks())
	t.liveRun += liveN - leaf.liveN
	t.runLen += leaf.run.n - old.n
	if leaf.run.n > 2*t.leafCap {
		t.oversized = true
	}
	leaf.liveN = liveN
	t.ma.Release(2 * t.cfg.B)
}

// sortEntries orders items by (Key, Aux); with packEntry's layout that is
// (key, sequence) order. Internal computation is free in the model.
func sortEntries(items []aem.Item) {
	slices.SortFunc(items, aem.Compare)
}

// needRebuild reports whether the skeleton should be rebuilt: some leaf
// run outgrew 2× the target leaf size, or tombstones and overwrites have
// bloated the runs to 2× the live entry count. O(1), no I/O.
func (t *BufferTree) needRebuild() bool {
	return t.oversized || t.runLen > 2*max(t.liveRun, t.leafCap)
}

// maybeRebuild rebuilds the skeleton when needRebuild says so.
func (t *BufferTree) maybeRebuild() {
	if !t.needRebuild() {
		return
	}
	prev := t.ma.SetPhase("dict-rebuild")
	t.forceFlush()
	t.rebuild()
	t.ma.SetPhase(prev)
}

// Compact runs the rebuild check off the commit path. Deamortized callers
// invoke it at idle — the incremental path (FlushStep, the 2× root
// backstop) never rebuilds, because a rebuild replaces the node structure
// the debt queue points into, so Compact declines while debt is
// outstanding. Returns whether a rebuild ran; when it does, it is a full
// flush-and-rebuild stall, which is exactly why it belongs at idle.
func (t *BufferTree) Compact() bool {
	if len(t.debt) > 0 || !t.needRebuild() {
		return false
	}
	t.flushSection(true, t.maybeRebuild)
	return true
}

// leaves returns the tree's leaves in key order (structure walk, no I/O).
// Rebuild erects balanced levels, so every leaf is at the same depth.
func (t *BufferTree) leaves() []*btnode {
	level := []*btnode{t.top}
	for !level[0].isLeaf() {
		var next []*btnode
		for _, nd := range level {
			next = append(next, nd.kids...)
		}
		level = next
	}
	return level
}

// rebuild streams every live entry (leaves are already in global key
// order) into fresh leaf runs of ≤ leafCap entries, purging tombstones,
// and erects a balanced fan-out-d skeleton above them. All buffers must be
// empty (forceFlush). Cost: one read and one write per run block, plus the
// separator blocks. Every new node starts dirty: it has no capture yet.
func (t *BufferTree) rebuild() {
	old := t.leaves()
	t.oversized = false
	t.ma.Reserve(2 * t.cfg.B)
	inFrame := make([]aem.Item, t.cfg.B)
	var newLeaves []*btnode
	var lows []int64
	var cur *btnode
	var w chainWriter
	outFrame := make([]aem.Item, 0, t.cfg.B)
	flushCur := func() {
		if cur != nil {
			w.close()
			newLeaves = append(newLeaves, cur)
		}
		cur = nil
	}
	live := 0
	for _, leaf := range old {
		scan := newChainScanner(t.ma, leaf.run.addrs, inFrame)
		for {
			it, ok := scan.next()
			if !ok {
				break
			}
			if entryKind(it.Aux) != Insert {
				continue // purge tombstone
			}
			if cur == nil {
				cur = &btnode{dirty: true}
				w = newChainWriter(t, &cur.run, outFrame)
				lows = append(lows, it.Key)
			}
			w.append(it)
			cur.liveN++
			live++
			if cur.run.n+len(w.frame) >= t.leafCap {
				flushCur()
			}
		}
		// The leaf is copied: the next leaves' copies may reuse what of
		// its run no capture holds.
		t.letGo(&leaf.run, leaf.run.blocks())
		leaf.run.reset()
	}
	flushCur()
	t.ma.Release(2 * t.cfg.B)
	t.retireTree(t.top)

	if len(newLeaves) == 0 {
		t.top = &btnode{dirty: true}
		t.liveRun, t.runLen = 0, 0
		t.startEra()
		return
	}
	t.liveRun = live
	t.runLen = live

	// Erect internal levels, writing each node's separator keys.
	level, lvLows, d := newLeaves, lows, t.Fanout()
	for len(level) > 1 {
		var parents []*btnode
		var parentLows []int64
		for lo := 0; lo < len(level); lo += d {
			hi := min(lo+d, len(level))
			nd := &btnode{kids: append([]*btnode(nil), level[lo:hi]...), dirty: true}
			for _, kid := range nd.kids {
				kid.parent = nd
			}
			t.writeSeps(nd, lvLows[lo:hi])
			parents = append(parents, nd)
			parentLows = append(parentLows, lvLows[lo])
		}
		level, lvLows = parents, parentLows
	}
	t.top = level[0]
	t.startEra()
}

// ---- queries ----

// lookupQ tracks the best (max-sequence) update seen for one Lookup.
type lookupQ struct {
	idx  int
	key  int64
	cand int64 // packed Aux of the winner; 0 = none seen
}

// rangeQ accumulates winners per key for one RangeScan.
type rangeQ struct {
	idx    int
	lo, hi int64
	cands  map[int64]int64 // key → packed Aux of the winner
}

// query answers a run of Lookup/RangeScan ops with one batched tree
// descent: every buffer on a relevant root-to-leaf path is scanned exactly
// once, and winners are resolved by sequence number across buffers and
// leaf runs. Because Apply segments the stream, every update in the tree
// precedes every query in the batch.
func (t *BufferTree) query(ops []Op) []Result {
	prev := t.ma.SetPhase("dict-query")
	defer t.ma.SetPhase(prev)

	lookups := make([]*lookupQ, 0, len(ops))
	ranges := make([]*rangeQ, 0)
	for i, op := range ops {
		switch op.Kind {
		case Lookup:
			lookups = append(lookups, &lookupQ{idx: i, key: op.Key})
		case RangeScan:
			ranges = append(ranges, &rangeQ{idx: i, lo: op.Key, hi: op.Hi, cands: make(map[int64]int64)})
		default:
			panic(fmt.Sprintf("dict: query batch contains %v", op.Kind))
		}
	}
	sort.Slice(lookups, func(i, j int) bool { return lookups[i].key < lookups[j].key })

	// The staged root tail is internal memory: scan it at no I/O cost.
	// Its entries carry the newest sequence numbers, so scanMatch's
	// winner resolution handles them like any buffered update.
	for _, it := range t.stage {
		scanMatch(it, lookups, ranges)
	}
	t.descend(t.top, lookups, ranges)

	results := make([]Result, len(ops))
	for _, lq := range lookups {
		if lq.cand != 0 && entryKind(lq.cand) == Insert {
			results[lq.idx] = Result{OK: true, Value: entryValue(lq.cand)}
		}
	}
	for _, rq := range ranges {
		keys := make([]int64, 0, len(rq.cands))
		for k, aux := range rq.cands {
			if entryKind(aux) == Insert {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		hits := make([]Found, 0, len(keys))
		for _, k := range keys {
			hits = append(hits, Found{Key: k, Value: entryValue(rq.cands[k])})
		}
		results[rq.idx] = Result{Hits: hits}
	}
	return results
}

// scanMatch feeds one stored item (a buffered update or a leaf run entry)
// to the queries it concerns. lookups are sorted by key.
func scanMatch(it aem.Item, lookups []*lookupQ, ranges []*rangeQ) {
	i := sort.Search(len(lookups), func(j int) bool { return lookups[j].key >= it.Key })
	for ; i < len(lookups) && lookups[i].key == it.Key; i++ {
		if entrySeq(it.Aux) > entrySeq(lookups[i].cand) {
			lookups[i].cand = it.Aux
		}
	}
	for _, rq := range ranges {
		if rq.lo <= it.Key && it.Key < rq.hi {
			if entrySeq(it.Aux) > entrySeq(rq.cands[it.Key]) {
				rq.cands[it.Key] = it.Aux
			}
		}
	}
}

func (t *BufferTree) descend(nd *btnode, lookups []*lookupQ, ranges []*rangeQ) {
	if len(lookups) == 0 && len(ranges) == 0 {
		return
	}
	// Scan this node's buffer (and run, for leaves) with one block frame.
	t.ma.Reserve(t.cfg.B)
	for _, c := range []*chain{&nd.buf, &nd.run} {
		scan := newChainScanner(t.ma, c.addrs, t.frame)
		for {
			it, ok := scan.next()
			if !ok {
				break
			}
			scanMatch(it, lookups, ranges)
		}
	}
	t.ma.Release(t.cfg.B)
	if nd.isLeaf() {
		return
	}

	// Route queries to children while the separator keys are resident,
	// then release the keys before recursing, so the metered peak is one
	// node's worth of memory regardless of tree height.
	seps := t.readSeps(nd) // holds len(kids) slots until released below
	d := len(nd.kids)
	kidLookups := make([][]*lookupQ, d)
	lo := 0
	for ci := 0; ci < d; ci++ {
		// Lookups routed to this child form a contiguous slice.
		hi := lo
		for hi < len(lookups) && route(seps, lookups[hi].key) == ci {
			hi++
		}
		kidLookups[ci] = lookups[lo:hi]
		lo = hi
	}
	kidRanges := make([][]*rangeQ, d)
	for ci := 0; ci < d; ci++ {
		for _, rq := range ranges {
			if rangeOverlaps(rq, seps, ci) {
				kidRanges[ci] = append(kidRanges[ci], rq)
			}
		}
	}
	t.ma.Release(d)
	for ci, kid := range nd.kids {
		t.descend(kid, kidLookups[ci], kidRanges[ci])
	}
}

// rangeOverlaps reports whether the range query intersects child ci's key
// interval [seps[ci], seps[ci+1]) (the first child's interval starts at -∞,
// the last child's ends at +∞).
func rangeOverlaps(rq *rangeQ, seps []int64, ci int) bool {
	lo := seps[ci]
	if ci == 0 {
		lo = math.MinInt64
	}
	if ci+1 < len(seps) && rq.lo >= seps[ci+1] {
		return false
	}
	return rq.hi > lo || ci == 0
}
