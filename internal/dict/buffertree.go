package dict

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/aem"
	"repro/internal/sorting"
)

// BufferTree is an ω-adaptive buffer-tree dictionary in the style of Arge,
// adapted to the AEM cost model:
//
//   - The skeleton is a balanced search tree with fan-out d ≈ m over leaf
//     runs of ≤ M/2 key-sorted entries.
//   - Every node carries an unordered external buffer of pending updates.
//     Updates are appended to the root buffer in block-granular frames and
//     trickle down lazily: when a buffer crosses its threshold it is
//     streamed once, partitioned among the children's buffers, and emptied.
//     At the leaves, buffered updates are merge-applied into the sorted run.
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

	fanout     int // d: children per internal node
	rootCap    int // root buffer flush threshold, Θ(ω·M)
	intCap     int // internal node buffer flush threshold, M/2
	leafBufCap int // leaf buffer apply threshold, M/4
	leafCap    int // target leaf run size at rebuild, M/2; rebuild at 2×
	chunkCap   int // leaf-apply in-memory chunk, M/2

	seq     int64
	frame   []aem.Item // shared B-item scratch frame for serial scans/appends
	top     *btnode
	liveRun int // live (non-tombstone) entries across all leaf runs
	runLen  int // total entries (incl. tombstones) across all leaf runs

	// flushHook, when set, observes the wall-clock duration of every
	// top-level flush section — a threshold cascade, a forced flush, or a
	// rebuild, including the follow-on work each triggers. It exists for
	// serving layers that track flush pauses as tail latency; flushDepth
	// keeps nested sections (a rebuild inside a flush) from double firing.
	flushHook  func(time.Duration)
	flushDepth int

	// stage, when non-nil, holds the root buffer's partial tail block in
	// internal memory (see EnableTailStaging): updates accumulate here and
	// only full blocks are appended to the root chain. stageFree marks a
	// flush section that has already spilled the stage and released its
	// reservation, so nested staged sections don't double spill.
	// stageShared marks a stage array a snapshot holds a prefix of, which a
	// spill must replace rather than refill (see spillStage).
	stage       []aem.Item
	stageFree   bool
	stageShared bool

	// debt is the queue of overfull nodes awaiting a flush, in the exact
	// breadth-first order the old run-to-completion cascade visited them.
	// In the default (amortized) mode the queue is drained to empty the
	// moment the root buffer crosses its threshold; in deamortized mode
	// (see Deamortize) the caller retires it incrementally via FlushStep.
	debt        []*btnode
	deamortized bool
	nodeFlushes int64 // cumulative node-flushes (partition or leaf apply)
}

// EnableTailStaging switches the root buffer to staged appends: incoming
// updates collect in a B-item internal-memory buffer and reach external
// memory only as full blocks (the stage is written out as a final partial
// block when a flush needs the buffer's contents). Without staging, every
// Apply call's append ends on a partially filled block — irrelevant when
// updates arrive in large batches, but a serving layer's group commits
// are sized by the number of concurrent writers, and a chain built from
// 5-item batches occupies ~B/5× more blocks than its items need, which
// every subsequent buffer scan then pays for. Staging restores the
// ⌈n/B⌉ occupancy at the cost of B items of internal memory (metered via
// Reserve for the tree's lifetime).
//
// Off by default: staging removes the per-batch partial-tail writes, so
// it changes the I/O accounting of existing experiments; the serving
// layer opts in, the batch experiments keep their committed numbers.
// Must be called before the first Apply.
func (t *BufferTree) EnableTailStaging() {
	if t.stage != nil {
		return
	}
	if t.seq != 0 {
		panic("dict: EnableTailStaging after updates were applied")
	}
	t.ma.Reserve(t.cfg.B)
	t.stage = make([]aem.Item, 0, t.cfg.B)
	t.refitFanout()
}

// Deamortize switches the tree to incremental flushing: crossing the root
// threshold enqueues the root on the debt queue instead of running the
// cascade to completion, and the caller retires debt with FlushStep — at
// most `budget` node-flushes per call — so the worst write-path stall is
// one node-flush, not a full cascade. Total I/O accounting is unchanged:
// the same node-flushes happen in the same order, just spread across
// calls. Only the root-occupancy backstop differs: if debt is never
// retired, the root buffer is force-flushed (one node-flush) at 2× its
// threshold. Rebuilds never run on the incremental path; callers trigger
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
	t.refitFanout()
}

// refitFanout shrinks the fan-out when deamortized flushing and tail
// staging are both on: an incremental non-root partition then runs with
// the stage's B slots still reserved (spilling the stage on every step
// would re-fragment the root chain), so the scan frame, d output frames
// and d separator keys must fit beside it: d + (d+1)·B + B ≤ M.
func (t *BufferTree) refitFanout() {
	if !t.deamortized || t.stage == nil {
		return
	}
	d := (t.cfg.M - 2*t.cfg.B) / (t.cfg.B + 1)
	if m := t.cfg.BlocksInMemory(); d > m {
		d = m
	}
	if d < 2 {
		d = 2
	}
	t.fanout = d
}

// flushStage writes the staged tail (if any) to the root chain as one
// partial block, emptying the stage. Called before any flush that needs
// the root buffer's full contents in external memory.
func (t *BufferTree) flushStage() {
	if len(t.stage) > 0 {
		t.spillStage()
	}
}

// spillStage appends the staged items to the root chain as one block and
// empties the stage. A stage array shared with a snapshot is left to the
// snapshot and replaced by a fresh one.
func (t *BufferTree) spillStage() {
	t.top.buf.appendBlock(t.ma, t.stage)
	if t.stageShared {
		t.stage, t.stageShared = make([]aem.Item, 0, t.cfg.B), false
	} else {
		t.stage = t.stage[:0]
	}
}

// stagedSection runs a flush section f with the stage emptied and its
// internal-memory reservation released for the duration: the cascade and
// rebuild paths size their streaming frames to use all of M, and the
// stage's B slots are genuinely free while it is empty.
func (t *BufferTree) stagedSection(f func()) {
	if t.stage == nil || t.stageFree {
		f()
		return
	}
	t.flushStage()
	t.ma.Release(t.cfg.B)
	t.stageFree = true
	f()
	t.stageFree = false
	t.ma.Reserve(t.cfg.B)
}

// rootPending returns the root buffer's total pending updates, staged
// items included.
func (t *BufferTree) rootPending() int { return t.top.buf.n + len(t.stage) }

// SetFlushHook registers fn to observe the wall-clock duration of every
// top-level flush section (cascade, forced flush, rebuild — each with the
// follow-on work it triggers). The longest such section is the worst
// write-path stall the structure inflicts on a caller: the Θ(ωM) root
// buffer defers restructuring, so a bigger ω means rarer but bigger
// pauses, which is exactly the tail-latency axis internal/dictsrv
// measures. A nil fn removes the hook.
func (t *BufferTree) SetFlushHook(fn func(time.Duration)) { t.flushHook = fn }

// timeFlush runs f, reporting its wall-clock to the flush hook when f is
// the outermost flush section.
func (t *BufferTree) timeFlush(f func()) {
	if t.flushHook == nil || t.flushDepth > 0 {
		f()
		return
	}
	t.flushDepth++
	start := time.Now()
	f()
	d := time.Since(start)
	t.flushDepth--
	t.flushHook(d)
}

// btnode is one tree node. Internal nodes have children and externally
// stored separator keys; leaves have a sorted run. Both have a buffer.
type btnode struct {
	kids []*btnode // nil for a leaf

	sepBase   aem.Addr // separator blocks (internal only)
	sepBlocks int

	buf    chain     // pending updates, unordered
	run    chain     // leaf only: entries sorted by key, unique keys, incl. tombstones
	liveN  int       // leaf only: non-tombstone entries in run
	inDebt bool      // queued on the tree's debt queue (dedup flag)
	snap   *snapNode // last capture of this node, reused while unchanged
}

func (nd *btnode) isLeaf() bool { return nd.kids == nil }

// NewBufferTree returns an empty dictionary on the machine. It requires
// M ≥ 8B, the same minimum the repository's mergesort needs: below that
// there is no room for a block frame per child next to a scan frame.
func NewBufferTree(ma *aem.Machine) *BufferTree {
	cfg := ma.Config()
	if cfg.M < 8*cfg.B {
		panic(fmt.Sprintf("dict: BufferTree needs M ≥ 8B, got M=%d B=%d", cfg.M, cfg.B))
	}
	m := cfg.BlocksInMemory()
	// The fan-out is ~m, capped so one streaming partition — a scan frame,
	// d output frames and d separator keys — fits in internal memory.
	d := (cfg.M - cfg.B) / (cfg.B + 1)
	if d > m {
		d = m
	}
	if d < 2 {
		d = 2
	}
	t := &BufferTree{
		ma:         ma,
		cfg:        cfg,
		fanout:     d,
		rootCap:    cfg.Omega * cfg.M,
		intCap:     cfg.M / 2,
		leafBufCap: cfg.M / 4,
		leafCap:    cfg.M / 2,
		chunkCap:   cfg.M / 2,
		frame:      make([]aem.Item, cfg.B),
		top:        &btnode{},
	}
	return t
}

// Fanout returns the tree's fan-out d.
func (t *BufferTree) Fanout() int { return t.fanout }

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
	t.timeFlush(func() {
		t.stagedSection(func() {
			prev := t.ma.SetPhase("dict-flush")
			t.forceFlush()
			t.ma.SetPhase(prev)
			t.maybeRebuild()
		})
	})
}

// update appends a run of Insert/Delete ops to the root buffer. Whenever
// the buffer reaches the ω·M threshold — also mid-batch, so a single huge
// batch behaves exactly like the same ops trickling in — the root joins
// the debt queue. Amortized mode drains the queue to empty on the spot
// (the classic run-to-completion cascade); deamortized mode leaves the
// debt for FlushStep and only force-flushes the root itself (one
// node-flush) if occupancy reaches 2× the threshold, preserving the
// root-chain occupancy bound without a full cascade on the write path.
func (t *BufferTree) update(ops []Op) {
	for i := 0; i < len(ops); {
		room := t.rootCap - t.rootPending()
		if room < 1 {
			room = 1
		}
		j := min(len(ops), i+room)
		t.appendUpdates(ops[i:j])
		i = j
		if t.rootPending() >= t.rootCap {
			t.addDebt(t.top)
			if t.deamortized {
				// Backstop: occupancy must never outrun the debt queue's
				// drain rate unboundedly. Each installment is a bounded
				// O(chunkCap) root-prefix flush, so even a huge batch pays
				// its excess in bounded stalls rather than one cascade.
				for t.rootPending() >= 2*t.rootCap && t.top.buf.blocks() > 0 {
					t.timeFlush(func() {
						prev := t.ma.SetPhase("dict-flush")
						t.flushRootStep()
						t.ma.SetPhase(prev)
					})
				}
				continue
			}
			t.timeFlush(func() {
				t.stagedSection(func() {
					prev := t.ma.SetPhase("dict-flush")
					t.drainDebt()
					t.ma.SetPhase(prev)
					t.maybeRebuild()
				})
			})
		}
	}
}

// appendUpdates streams packed updates into the root buffer through one
// block frame — or through the persistent stage when tail staging is on,
// in which case only full blocks reach the chain.
func (t *BufferTree) appendUpdates(ops []Op) {
	prev := t.ma.SetPhase("dict-append")
	if t.stage != nil {
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
		return
	}
	t.ma.Reserve(t.cfg.B)
	w := newChainWriter(t.ma, &t.top.buf, t.frame)
	for _, op := range ops {
		if op.Kind == Insert {
			checkValue(op.Value)
		}
		t.seq++
		if t.seq >= maxSeq {
			panic("dict: operation sequence space exhausted")
		}
		w.append(aem.Item{Key: op.Key, Aux: packEntry(t.seq, op.Kind, op.Value)})
	}
	w.close()
	t.ma.Release(t.cfg.B)
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

// drainDebt retires the whole debt queue: pop front, skip nodes whose
// buffers emptied in the meantime, flush the rest. Seeded with the root,
// this visits nodes in exactly the breadth-first order of the classic
// run-to-completion cascade, so amortized-mode accounting is unchanged.
func (t *BufferTree) drainDebt() {
	for len(t.debt) > 0 {
		nd := t.debt[0]
		t.debt = t.debt[1:]
		nd.inDebt = false
		if nd.buf.n == 0 {
			continue
		}
		t.flushNode(nd)
	}
}

// FlushStep performs at most budget node-flushes from the debt queue and
// returns how many it performed. Queue entries whose buffers are already
// empty are discarded without counting toward the budget. Each step is
// its own timed flush section, so a flush hook observes exactly the
// bounded stall a caller pays. Children pushed over their threshold by a
// step join the back of the queue; the caller keeps stepping (or calls
// Flush) to retire them.
func (t *BufferTree) FlushStep(budget int) int {
	if budget <= 0 || len(t.debt) == 0 {
		return 0
	}
	done := 0
	t.timeFlush(func() {
		prev := t.ma.SetPhase("dict-flush")
		for done < budget && len(t.debt) > 0 {
			nd := t.debt[0]
			t.debt = t.debt[1:]
			nd.inDebt = false
			if nd.buf.n == 0 {
				continue
			}
			if nd == t.top {
				// The root's debt is Θ(ωM) items — the size of a whole
				// cascade — so it is paid in bounded installments: flush
				// the oldest ~chunkCap items, then rejoin the back of the
				// queue until the chain is empty. Draining to empty (not
				// merely below rootCap) matters doubly: it matches the
				// amortized mode's average occupancy, and it keeps
				// snapshot reads from scanning a permanently full root
				// chain. Any flush order is safe because every entry
				// carries its sequence number and winners are chosen by
				// it.
				t.flushRootStep()
				if t.top.buf.blocks() > 0 {
					t.addDebt(nd)
				}
			} else {
				t.flushNode(nd)
			}
			done++
		}
		t.ma.SetPhase(prev)
	})
	return done
}

// flushRootStep flushes one bounded installment of the root buffer: the
// oldest ⌈chunkCap/B⌉ chain blocks are partitioned among the children (or
// merge-applied, while the tree is a single leaf), leaving the rest of the
// chain — and the staged tail, which holds the newest partial block and
// need not ride down — in place. This is the deamortized counterpart of a
// full root flush: O(M) work per call instead of Θ(ωM).
func (t *BufferTree) flushRootStep() {
	nd := t.top
	if nd.buf.blocks() == 0 {
		return
	}
	stepBlocks := (t.chunkCap + t.cfg.B - 1) / t.cfg.B
	if nd.isLeaf() {
		t.applyLeafPrefix(nd, stepBlocks)
		return
	}
	t.partitionPrefix(nd, stepBlocks)
	for _, kid := range nd.kids {
		if kid.buf.n >= t.threshold(kid) {
			t.addDebt(kid)
		}
	}
}

// partitionPrefix distributes the items of a node's oldest maxBlocks chain
// blocks among its children and detaches those blocks from the buffer.
// Unlike partition it runs with the stage resident: the staged tail holds
// newer items than any chain block, and refitFanout sized the fan-out so
// d separators + (d+1) frames fit beside the stage's reserved block.
func (t *BufferTree) partitionPrefix(nd *btnode, maxBlocks int) {
	t.nodeFlushes++
	k := maxBlocks
	if k > nd.buf.blocks() {
		k = nd.buf.blocks()
	}
	seps := t.readSeps(nd) // holds len(kids) slots until released below
	d := len(nd.kids)
	t.ma.Reserve((d + 1) * t.cfg.B)
	prefix := chain{addrs: nd.buf.addrs[:k]}
	scan := newChainScanner(t.ma, &prefix, t.frame)
	writers := make([]*chainWriter, d)
	for i, kid := range nd.kids {
		writers[i] = newChainWriter(t.ma, &kid.buf, make([]aem.Item, 0, t.cfg.B))
	}
	moved := 0
	for {
		it, ok := scan.next()
		if !ok {
			break
		}
		moved++
		writers[route(seps, it.Key)].append(it)
	}
	for _, w := range writers {
		w.close()
	}
	nd.buf.addrs = nd.buf.addrs[k:]
	nd.buf.n -= moved
	t.ma.Release((d + 1) * t.cfg.B)
	t.ma.Release(d) // separators
}

// applyLeafPrefix merge-applies the items of a leaf's oldest maxBlocks
// chain blocks into its run and detaches those blocks. The prefix is at
// most chunkCap+B items, so it sorts in internal memory — the external
// mergesort path of a full applyLeaf is never needed for an installment.
func (t *BufferTree) applyLeafPrefix(leaf *btnode, maxBlocks int) {
	t.nodeFlushes++
	k := maxBlocks
	if k > leaf.buf.blocks() {
		k = leaf.buf.blocks()
	}
	t.ma.Reserve(k*t.cfg.B + t.cfg.B)
	prefix := chain{addrs: leaf.buf.addrs[:k]}
	chunk := make([]aem.Item, 0, k*t.cfg.B)
	scan := newChainScanner(t.ma, &prefix, t.frame)
	for {
		it, ok := scan.next()
		if !ok {
			break
		}
		chunk = append(chunk, it)
	}
	sortEntries(chunk)
	i := 0
	t.mergeApply(leaf, func() (aem.Item, bool) {
		if i < len(chunk) {
			i++
			return chunk[i-1], true
		}
		return aem.Item{}, false
	})
	leaf.buf.addrs = leaf.buf.addrs[k:]
	leaf.buf.n -= len(chunk)
	t.ma.Release(k*t.cfg.B + t.cfg.B)
}

// flushNode performs one node-flush: partition an internal node's buffer
// among its children (enqueuing any child pushed over its threshold), or
// merge-apply a leaf's buffer into its run. The staging interplay is
// per-node: flushing the root spills the stage first (its items belong to
// the root buffer and ride the partition down); a big leaf apply spills
// it too, because the external mergesort sizes itself to all of M; every
// other case runs with the stage resident — refitFanout guarantees a
// non-root partition fits beside it, and spilling on every step would
// re-fragment the chain staging exists to defragment. Inside a section
// that already spilled (amortized drains, barriers) the nested sections
// are no-ops.
func (t *BufferTree) flushNode(nd *btnode) {
	if nd.buf.n == 0 {
		return
	}
	if nd.isLeaf() {
		if nd == t.top || nd.buf.n > t.chunkCap {
			t.stagedSection(func() { t.applyLeaf(nd) })
		} else {
			t.applyLeaf(nd)
		}
		return
	}
	if nd == t.top {
		t.stagedSection(func() { t.partition(nd) })
	} else {
		t.partition(nd)
	}
	for _, kid := range nd.kids {
		if kid.buf.n >= t.threshold(kid) {
			t.addDebt(kid)
		}
	}
}

// forceFlush pushes every buffer in the tree down to the leaves regardless
// of thresholds. Every buffer is empty afterwards, so any queued debt is
// settled wholesale and the queue is cleared.
func (t *BufferTree) forceFlush() {
	level := []*btnode{t.top}
	for len(level) > 0 {
		var next []*btnode
		for _, nd := range level {
			if nd.isLeaf() {
				if nd.buf.n > 0 {
					t.applyLeaf(nd)
				}
				continue
			}
			if nd.buf.n > 0 {
				t.partition(nd)
			}
			next = append(next, nd.kids...)
		}
		level = next
	}
	for _, nd := range t.debt {
		nd.inDebt = false
	}
	t.debt = t.debt[:0]
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
// callers must Release len(kids) slots when done.
func (t *BufferTree) readSeps(nd *btnode) []int64 {
	t.ma.Reserve(len(nd.kids) + t.cfg.B)
	seps := make([]int64, 0, len(nd.kids))
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
	return seps
}

// writeSeps stores the separator keys of a freshly built internal node.
func (t *BufferTree) writeSeps(nd *btnode, seps []int64) {
	nd.sepBlocks = (len(seps) + t.cfg.B - 1) / t.cfg.B
	nd.sepBase = t.ma.Alloc(nd.sepBlocks)
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

// route returns the index of the child covering key k.
func route(seps []int64, k int64) int {
	// First child covers (-∞, seps[1]); seps[0] is its stored low bound
	// but acts as -∞.
	i := sort.Search(len(seps)-1, func(j int) bool { return k < seps[j+1] })
	return i
}

// partition streams an internal node's buffer once and distributes the
// updates among the children's buffers: one scan frame in, d output frames
// out, d separator keys resident.
func (t *BufferTree) partition(nd *btnode) {
	t.nodeFlushes++
	seps := t.readSeps(nd) // holds len(kids) slots until released below
	d := len(nd.kids)
	t.ma.Reserve((d + 1) * t.cfg.B)
	scan := newChainScanner(t.ma, &nd.buf, t.frame)
	writers := make([]*chainWriter, d)
	for i, kid := range nd.kids {
		writers[i] = newChainWriter(t.ma, &kid.buf, make([]aem.Item, 0, t.cfg.B))
	}
	for {
		it, ok := scan.next()
		if !ok {
			break
		}
		writers[route(seps, it.Key)].append(it)
	}
	for _, w := range writers {
		w.close()
	}
	nd.buf.reset()
	t.ma.Release((d + 1) * t.cfg.B)
	t.ma.Release(d) // separators
}

// applyLeaf merges a leaf's buffered updates into its sorted run in ONE
// streaming pass over the run, so the run is rewritten once per apply no
// matter how many updates arrived. A buffer that fits in M/2 items is
// sorted in internal memory (free computation); a bigger buffer — a root
// cascade can dump up to ω·M updates on one leaf — is materialized and
// sorted with the repository's own AEM mergesort, which converts the
// would-be write amplification into cheap read passes, exactly the trade
// the model rewards.
func (t *BufferTree) applyLeaf(leaf *btnode) {
	t.nodeFlushes++
	if leaf.buf.n <= t.chunkCap {
		t.ma.Reserve(t.chunkCap + t.cfg.B)
		chunk := make([]aem.Item, 0, leaf.buf.n)
		scan := newChainScanner(t.ma, &leaf.buf, t.frame)
		for {
			it, ok := scan.next()
			if !ok {
				break
			}
			chunk = append(chunk, it)
		}
		sortEntries(chunk)
		i := 0
		t.mergeApply(leaf, func() (aem.Item, bool) {
			if i < len(chunk) {
				i++
				return chunk[i-1], true
			}
			return aem.Item{}, false
		})
		t.ma.Release(t.chunkCap + t.cfg.B)
	} else {
		v := t.materializeBuf(&leaf.buf)
		sorted := sorting.MergeSort(t.ma, v)
		sc := sorted.NewScanner()
		t.mergeApply(leaf, sc.Next)
		sc.Close()
	}
	leaf.buf.reset()
}

// materializeBuf copies a buffer chain into a fresh contiguous vector so
// it can be sorted externally: one read and one write per block.
func (t *BufferTree) materializeBuf(c *chain) *aem.Vector {
	v := aem.NewVector(t.ma, c.n)
	t.ma.Reserve(t.cfg.B)
	scan := newChainScanner(t.ma, c, t.frame)
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
	return v
}

// mergeApply merges a (key, seq)-sorted update stream into the leaf's run:
// one streaming pass, two block frames. The run keeps exactly one entry
// per key — the winning update, tombstones included.
func (t *BufferTree) mergeApply(leaf *btnode, next func() (aem.Item, bool)) {
	t.ma.Reserve(2 * t.cfg.B)
	out := chain{}
	scan := newChainScanner(t.ma, &leaf.run, t.frame)
	w := newChainWriter(t.ma, &out, make([]aem.Item, 0, t.cfg.B))
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
	t.liveRun += liveN - leaf.liveN
	t.runLen += out.n - leaf.run.n
	leaf.run = out
	leaf.liveN = liveN
	t.ma.Release(2 * t.cfg.B)
}

// sortEntries orders items by (Key, Aux); with packEntry's layout that is
// (key, sequence) order. Internal computation is free in the model.
func sortEntries(items []aem.Item) {
	sort.Slice(items, func(i, j int) bool { return aem.Less(items[i], items[j]) })
}

// needRebuild reports whether the skeleton should be rebuilt: some leaf
// run outgrew 2× the target leaf size, or tombstones and overwrites have
// bloated the runs to 2× the live entry count. Structure walk, no I/O.
func (t *BufferTree) needRebuild() bool {
	if t.runLen > 2*max(t.liveRun, t.leafCap) {
		return true
	}
	for _, leaf := range t.leaves() {
		if leaf.run.n > 2*t.leafCap {
			return true
		}
	}
	return false
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
	t.timeFlush(func() {
		t.stagedSection(func() {
			t.maybeRebuild()
		})
	})
	return true
}

// leaves returns the tree's leaves in key order (structure walk, no I/O).
func (t *BufferTree) leaves() []*btnode {
	var out []*btnode
	var walk func(nd *btnode)
	walk = func(nd *btnode) {
		if nd.isLeaf() {
			out = append(out, nd)
			return
		}
		for _, kid := range nd.kids {
			walk(kid)
		}
	}
	walk(t.top)
	return out
}

// rebuild streams every live entry (leaves are already in global key
// order) into fresh leaf runs of ≤ leafCap entries, purging tombstones,
// and erects a balanced fan-out-d skeleton above them. All buffers must be
// empty (forceFlush). Cost: one read and one write per run block, plus the
// separator blocks.
func (t *BufferTree) rebuild() {
	old := t.leaves()
	t.ma.Reserve(2 * t.cfg.B)
	inFrame := make([]aem.Item, t.cfg.B)
	var newLeaves []*btnode
	var lows []int64
	var cur *btnode
	var w *chainWriter
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
		scan := newChainScanner(t.ma, &leaf.run, inFrame)
		for {
			it, ok := scan.next()
			if !ok {
				break
			}
			if entryKind(it.Aux) != Insert {
				continue // purge tombstone
			}
			if cur == nil {
				cur = &btnode{}
				w = newChainWriter(t.ma, &cur.run, outFrame)
				lows = append(lows, it.Key)
			}
			w.append(it)
			cur.liveN++
			live++
			if cur.run.n+len(w.frame) >= t.leafCap {
				flushCur()
			}
		}
	}
	flushCur()
	t.ma.Release(2 * t.cfg.B)

	if len(newLeaves) == 0 {
		t.top = &btnode{}
		t.liveRun, t.runLen = 0, 0
		return
	}
	t.liveRun = live
	t.runLen = live

	// Erect internal levels, writing each node's separator keys.
	level, lvLows := newLeaves, lows
	for len(level) > 1 {
		var parents []*btnode
		var parentLows []int64
		for lo := 0; lo < len(level); lo += t.fanout {
			hi := min(lo+t.fanout, len(level))
			nd := &btnode{kids: append([]*btnode(nil), level[lo:hi]...)}
			t.writeSeps(nd, lvLows[lo:hi])
			parents = append(parents, nd)
			parentLows = append(parentLows, lvLows[lo])
		}
		level, lvLows = parents, parentLows
	}
	t.top = level[0]
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

	// The staged root tail (if any) is internal memory: scan it at no I/O
	// cost. Its entries carry the newest sequence numbers, so scanMatch's
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
		scan := newChainScanner(t.ma, c, t.frame)
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
