package pq

import (
	"fmt"
	"slices"

	"repro/internal/aem"
	"repro/internal/sorting"
)

// Adaptive is the ω-adaptive buffered priority queue: a min-priority
// queue of aem.Items whose external writes are batched through a Θ(ωM)
// insertion buffer, the priority-queue counterpart of the buffer tree
// dictionary's ω-adaptive root buffer.
//
// The paper's §1.1 cites the write-optimized heap of Blelloch et al. [7]
// as achieving O(ω·n·log_{ωm} n) unconditionally where the classic
// sequence heap (Queue) pays the symmetric Θ((1+ω)·n·log_m n). The gap is
// closed by three ω-adaptive choices, all trading expensive writes for
// cheap reads:
//
//   - Pushes stream into an external, unsorted insertion buffer in
//     block-granular frames: one ω-cost write per B insertions, and no
//     restructuring until Θ(ωM) items have accumulated — each structural
//     write is amortized over up to ω·M insertions instead of the
//     sequence heap's M/8.
//   - DeleteMin is phase-aware. The queue tracks (as §2 program
//     knowledge: scalars derived from data it has already seen) the
//     minimum unconsumed buffered item, and refills its deletion buffer
//     from the sorted run frontiers through the shared tournament tree
//     for as long as their heads stay at or below that minimum. Push
//     phases above the deletion frontier — sawtooth builds, monotone
//     event traffic — therefore cost nothing beyond the appends.
//   - When the minimum does live in the buffer, the queue rents before it
//     buys: a selection pass streams the buffer once (reads only, the
//     [7, Lemma 4.2] selection idea run incrementally) and lifts the capDB
//     smallest unconsumed items directly into the deletion buffer, with a
//     watermark marking them consumed in place — no write happens at all.
//     Only after ω such passes, when the cumulative read rent matches the
//     ω-weighted cost of sorting, is the buffer folded into a level-0 run
//     by the repository's own AEM sort. At ω = 1 the queue folds almost
//     immediately, like the classic heap; at large ω almost all deletions
//     are served by read-only selection and the measured writes/op falls
//     toward the 1/B append floor.
//
// Level-0 runs of up to ωM items mean levels merge with effective fan-out
// up to ωm, so an item that does get folded is rewritten O(log_{ωm} n)
// times rather than O(log_m n).
type Adaptive struct {
	runLevels

	stage     []aem.Item // in-memory staging frame for pushes, cap B
	deleteBuf []aem.Item // ascending; deleteBuf[0] is the global minimum
	capDB     int

	buf         bufChain // external unsorted insertion buffer
	bufCap      int      // fold threshold, ω·M items
	bufConsumed int      // buffered items consumed in place via the watermark

	// watermark/wmSkip mark the buffered items already consumed by
	// selection passes: everything below the watermark, plus the first
	// wmSkip copies equal to it (the SmallSort duplicate rule).
	watermark aem.Item
	wmSkip    int
	wmValid   bool

	// bufMin is the smallest unconsumed buffered item when known; refills
	// consume run frontiers freely below it without touching the buffer.
	bufMin      aem.Item
	bufMinValid bool

	// stash holds pushes that undercut the watermark (they would alias
	// the buffer's consumed region): an ascending in-memory side buffer
	// of ≤ capDB/2 items, merged into every refill and folded with the
	// buffer. Without it, one low push with an empty deletion buffer
	// would force a full fold. The half-capDB cap is what keeps every
	// reservation path within M at the M = 16B floor, where a fold's
	// SmallSort needs M/2 + 2B next to the queue's own buffers.
	stash    []aem.Item
	stashCap int

	scans int // selection passes since the last fold (the read rent)

	size  int
	folds int

	baseRes int // stage + scan frame + DB reservation, held for the lifetime
}

// bufChain is an append-only bag of items in external blocks, the pq
// counterpart of the dictionary's node buffer chains: blocks are written
// once, whole, and never rewritten in place.
type bufChain struct {
	addrs []aem.Addr
	n     int
}

// appendBlock writes items (≤ B of them) as one fresh block of the chain.
func (c *bufChain) appendBlock(ma *aem.Machine, items []aem.Item) {
	a := ma.Alloc(1)
	ma.Write(a, items)
	c.addrs = append(c.addrs, a)
	c.n += len(items)
}

// reset empties the chain. The old blocks are abandoned (external memory
// is unbounded in the model; addresses are never reused).
func (c *bufChain) reset() {
	c.addrs = c.addrs[:0]
	c.n = 0
}

// NewAdaptive creates an empty ω-adaptive queue on the machine, reserving
// ~3M/16 + B of internal memory for its buffers plus the shared run-frame
// budget; Close releases them. Requires M ≥ 16B, the same minimum as the
// sequence heap.
func NewAdaptive(ma *aem.Machine) *Adaptive {
	cfg := ma.Config()
	if cfg.M < 16*cfg.B {
		panic(fmt.Sprintf("pq: need M ≥ 16B, got M=%d B=%d", cfg.M, cfg.B))
	}
	q := &Adaptive{
		capDB:  cfg.M / 8,
		bufCap: cfg.Omega * cfg.M,
		stage:  make([]aem.Item, 0, cfg.B),
	}
	q.stashCap = q.capDB / 2
	q.baseRes = q.capDB + q.stashCap + cfg.B // deleteBuf + stash + stage
	ma.Reserve(q.baseRes)
	q.initLevels(ma)
	return q
}

// Close releases the queue's internal memory. The queue must be empty.
func (q *Adaptive) Close() {
	if q.size != 0 {
		panic(fmt.Sprintf("pq: Close with %d items still queued", q.size))
	}
	q.ma.Release(q.baseRes)
	q.closeLevels()
}

// Len returns the number of queued items.
func (q *Adaptive) Len() int { return q.size }

// Folds returns how many times the insertion buffer has been folded into
// a sorted run — the structural write events the ω-adaptive buffering
// defers and, at large ω, mostly avoids.
func (q *Adaptive) Folds() int { return q.folds }

// bufUnconsumed returns the number of live (not watermark-consumed) items
// in the insertion buffer, staged block included.
func (q *Adaptive) bufUnconsumed() int { return q.buf.n + len(q.stage) - q.bufConsumed }

// consumedByWatermark reports whether a stored buffer item is one of the
// already-consumed instances. seenAtMark must count the equal-to-mark
// copies seen so far in the same scan, the SmallSort duplicate rule.
func (q *Adaptive) consumedByWatermark(it aem.Item, seenAtMark *int) bool {
	if !q.wmValid || aem.Less(q.watermark, it) {
		return false
	}
	if aem.Less(it, q.watermark) {
		return true
	}
	*seenAtMark++
	return *seenAtMark <= q.wmSkip
}

// Push inserts an item.
func (q *Adaptive) Push(it aem.Item) {
	// An item below the deletion-buffer maximum must enter the deletion
	// buffer, or DeleteMin order would break; everything else is absorbed
	// by the insertion buffer.
	if len(q.deleteBuf) > 0 && aem.Less(it, q.deleteBuf[len(q.deleteBuf)-1]) {
		q.deleteBuf = insertSorted(q.deleteBuf, it)
		if len(q.deleteBuf) > q.capDB {
			last := q.deleteBuf[len(q.deleteBuf)-1]
			q.deleteBuf = q.deleteBuf[:len(q.deleteBuf)-1]
			q.stageItem(last)
		}
	} else {
		q.stageItem(it)
	}
	q.size++
}

// stageItem appends an item to the staging frame, spilling full frames to
// the external buffer chain: one ω-cost write per B insertions. An item
// strictly below the watermark would alias the consumed region, so it
// goes to the in-memory stash instead; only a full stash forces a fold.
// (An item equal to the watermark is safe in the buffer: the
// consumed-instance filter skips exactly wmSkip equal copies, whichever
// instances it meets.)
func (q *Adaptive) stageItem(it aem.Item) {
	if q.wmValid && aem.Less(it, q.watermark) {
		if len(q.stash) < q.stashCap {
			q.stash = insertSorted(q.stash, it)
			return
		}
		q.fold()
	}
	// A push can lower a known buffer minimum, or establish one for an
	// empty buffer — but an unknown minimum over live items stays unknown:
	// the buffer may hold something smaller than this push.
	if q.bufMinValid {
		if aem.Less(it, q.bufMin) {
			q.bufMin = it
		}
	} else if q.bufUnconsumed() == 0 {
		q.bufMin, q.bufMinValid = it, true
	}
	q.stage = append(q.stage, it)
	if len(q.stage) == cap(q.stage) {
		prev := q.ma.SetPhase("pq-append")
		q.buf.appendBlock(q.ma, q.stage)
		q.ma.SetPhase(prev)
		q.stage = q.stage[:0]
	}
	if q.bufUnconsumed() >= q.bufCap {
		q.fold()
	}
}

// fold converts the unconsumed insertion buffer into a sorted level-0
// run: the chain is materialized into a contiguous vector (dropping the
// watermark-consumed instances) and sorted with the AEM sort, whose ω
// selection/merge passes trade expensive writes for cheap reads.
// Compaction runs if the fold pushed the live-run count over budget.
func (q *Adaptive) fold() {
	live := q.bufUnconsumed() + len(q.stash)
	if live == 0 {
		q.resetBuf()
		return
	}
	prev := q.ma.SetPhase("pq-fold")
	var sorted *aem.Vector
	// The filter drops exactly bufConsumed stored instances. On real data
	// the watermark rule matches exactly those; the count cap makes the
	// fold robust on the data-free counting engine too, where every
	// stored item reads back as zeros and a value rule alone could drop
	// live instances.
	seenAtMark, dropped := 0, 0
	consumed := func(it aem.Item) bool {
		if dropped < q.bufConsumed && q.consumedByWatermark(it, &seenAtMark) {
			dropped++
			return true
		}
		return false
	}
	if q.buf.n == 0 {
		// Only staged and stashed items: filter and sort in memory (free)
		// and write the run directly — ⌈live/B⌉ writes, no sort passes.
		kept := make([]aem.Item, 0, len(q.stage)+len(q.stash))
		for _, it := range q.stage {
			if !consumed(it) {
				kept = append(kept, it)
			}
		}
		kept = append(kept, q.stash...)
		slices.SortFunc(kept, aem.Compare)
		sorted = aem.NewVector(q.ma, len(kept))
		w := sorted.NewWriter()
		for _, it := range kept {
			w.Append(it)
		}
		w.Close()
	} else {
		if len(q.stage) > 0 {
			q.buf.appendBlock(q.ma, q.stage)
			q.stage = q.stage[:0]
		}
		// The sort needs the run frames' memory; drop them for the
		// duration, exactly as compaction does.
		q.dropFrames()
		v := aem.NewVector(q.ma, live)
		w := v.NewWriter()
		// The empty staging frame doubles as the scan frame — its B slots
		// are already part of baseRes.
		for _, a := range q.buf.addrs {
			blk := q.ma.ReadInto(a, q.stage[:0])
			for _, it := range blk {
				if !consumed(it) {
					w.Append(it)
				}
			}
		}
		for _, it := range q.stash {
			w.Append(it)
		}
		w.Close()
		sorted = sorting.MergeSort(q.ma, v)
		q.ma.Reserve(q.framesRes)
		q.framesIn = true
	}
	q.resetBuf()
	q.folds++
	q.addRun(0, &run{vec: sorted, frameLo: -1})
	q.ma.SetPhase(prev)
	if q.totalRuns() > q.maxRuns() {
		prevM := q.ma.SetPhase("pq-merge")
		q.compact()
		q.ma.SetPhase(prevM)
	}
}

// resetBuf clears the insertion buffer, the stash and the consumption
// bookkeeping.
func (q *Adaptive) resetBuf() {
	q.buf.reset()
	q.stage = q.stage[:0]
	q.stash = q.stash[:0]
	q.bufConsumed = 0
	q.wmValid = false
	q.bufMinValid = false
	q.scans = 0
}

// scanSelect streams the buffer once — one read per chain block, nothing
// written — and returns the up-to-capDB smallest unconsumed items in
// ascending order: one incremental selection pass of [7, Lemma 4.2]. The
// selection runs through a bounded max-heap (evict the root once capDB
// items are held, O(log capDB) per scanned item), so a scan's in-memory
// work is O(buffer · log capDB) — the same wall-clock discipline the
// tournament tree gives refills.
func (q *Adaptive) scanSelect() []aem.Item {
	var top aem.ItemHeap
	top.Max = true
	// Skip exactly bufConsumed stored instances: the watermark rule
	// matches exactly those on real data, and the count cap keeps the
	// selection exact on the data-free counting engine (see fold).
	seenAtMark, dropped := 0, 0
	add := func(it aem.Item) {
		if dropped < q.bufConsumed && q.consumedByWatermark(it, &seenAtMark) {
			dropped++
			return
		}
		if top.Len() == q.capDB {
			if !aem.Less(it, top.Peek()) {
				return
			}
			top.Pop()
		}
		top.Push(it)
	}
	// The staging frame may hold items, so the scan owns a second,
	// transiently metered frame.
	q.ma.Reserve(q.cfg.B)
	frame := make([]aem.Item, 0, q.cfg.B)
	for _, a := range q.buf.addrs {
		for _, it := range q.ma.ReadInto(a, frame) {
			add(it)
		}
	}
	for _, it := range q.stage {
		add(it)
	}
	q.ma.Release(q.cfg.B)
	s := make([]aem.Item, top.Len())
	for i := top.Len() - 1; i >= 0; i-- {
		s[i] = top.Pop()
	}
	return s
}

// Min returns the smallest item without removing it. Like DeleteMin it
// may trigger a refill — a buffer selection scan, or a fold whose
// ω-weighted writes are charged to the peek. Peeking is not free on a
// queue whose buffer holds the minimum.
func (q *Adaptive) Min() (aem.Item, bool) {
	if q.size == 0 {
		return aem.Item{}, false
	}
	q.ensureDeleteBuf()
	return q.deleteBuf[0], true
}

// DeleteMin removes and returns the smallest item.
func (q *Adaptive) DeleteMin() (aem.Item, bool) {
	if q.size == 0 {
		return aem.Item{}, false
	}
	q.ensureDeleteBuf()
	it := q.deleteBuf[0]
	q.deleteBuf = q.deleteBuf[1:]
	q.size--
	return it, true
}

// ensureDeleteBuf refills the deletion buffer with up to capDB of the
// globally smallest items — the phase-aware heart of the queue:
//
//  1. Run frontiers are consumed through the tournament tree for as long
//     as their heads stay at or below the buffer's minimum (freely, if
//     the buffer is empty). A refill may stop short of capDB items at
//     the buffer boundary; correctness needs only deleteBuf[0] to be the
//     global minimum.
//  2. If the buffer blocks the refill, a read-only selection scan lifts
//     buffered items into the refill, merged with the frontiers, and the
//     watermark marks them consumed in place.
//  3. Only after ω scans — when the read rent has matched a fold's
//     ω-weighted write bill — is the buffer folded into a real run.
func (q *Adaptive) ensureDeleteBuf() {
	if len(q.deleteBuf) > 0 {
		return
	}
	for {
		prev := q.ma.SetPhase("pq-refill")
		ft := newFrontierTree(q.liveRuns(), q.loadFrontier)
		var buf []aem.Item
		switch {
		case q.bufUnconsumed() == 0:
			buf, _ = q.mergeRefill(ft, nil, aem.Item{}, false)
		case q.bufMinValid:
			buf, _ = q.mergeRefill(ft, nil, q.bufMin, true)
		}
		if len(buf) > 0 || q.bufUnconsumed() == 0 {
			q.ma.SetPhase(prev)
			q.deleteBuf = buf
			if q.size > 0 && len(q.deleteBuf) == 0 {
				panic("pq: refill produced nothing despite non-empty queue")
			}
			return
		}
		if q.scans < q.cfg.Omega {
			// Rent: one selection pass over the buffer, merged with the
			// stash and the frontiers. The selection list is a second
			// capDB-sized buffer next to the (empty) deletion buffer;
			// meter it.
			q.ma.Reserve(q.capDB)
			s := q.scanSelect()
			q.scans++
			// A full selection caps what may be consumed this refill:
			// unconsumed buffered items beyond it are unknown but all
			// exceed its last element.
			limit, hasLimit := aem.Item{}, false
			if len(s) == q.capDB {
				limit, hasLimit = s[len(s)-1], true
			}
			var si int
			buf, si = q.mergeRefill(ft, s, limit, hasLimit)
			q.advanceWatermark(s, si)
			q.ma.Release(q.capDB)
			q.ma.SetPhase(prev)
			q.deleteBuf = buf
			if q.size > 0 && len(q.deleteBuf) == 0 {
				panic("pq: refill produced nothing despite non-empty queue")
			}
			return
		}
		// Buy: the read rent is spent; fold the buffer into a run and
		// refill from the frontiers on the next iteration.
		q.ma.SetPhase(prev)
		q.fold()
	}
}

// mergeRefill takes up to capDB smallest items from the selection s, the
// stash and the run frontiers, in that preference order on ties. Items
// above the limit (when set) stay where they are: the unsorted buffer may
// hold something smaller. Consumed s items are the returned prefix count;
// consumed stash and frontier items are removed at the source.
func (q *Adaptive) mergeRefill(ft *frontierTree, s []aem.Item, limit aem.Item, hasLimit bool) (buf []aem.Item, si int) {
	buf = make([]aem.Item, 0, q.capDB)
	for len(buf) < q.capDB {
		const (
			srcNone = iota
			srcSel
			srcStash
			srcFrontier
		)
		var best aem.Item
		src := srcNone
		if si < len(s) {
			best, src = s[si], srcSel
		}
		if len(q.stash) > 0 && (src == srcNone || aem.Less(q.stash[0], best)) {
			best, src = q.stash[0], srcStash
		}
		if r, ok := ft.min(); ok && (src == srcNone || aem.Less(r.head(), best)) {
			best, src = r.head(), srcFrontier
		}
		if src == srcNone {
			break
		}
		// Selection items are never above the limit (it is one of them).
		if src != srcSel && hasLimit && aem.Less(limit, best) {
			break
		}
		buf = append(buf, best)
		switch src {
		case srcSel:
			si++
		case srcStash:
			q.stash = q.stash[1:]
		case srcFrontier:
			ft.pop()
		}
	}
	return buf, si
}

// advanceWatermark records that the first si items of the selection s
// were consumed into the deletion buffer, and re-establishes the buffer
// minimum from the first unconsumed candidate.
func (q *Adaptive) advanceWatermark(s []aem.Item, si int) {
	if si > 0 {
		newWM := s[si-1]
		skip := 0
		for i := si - 1; i >= 0 && s[i] == newWM; i-- {
			skip++
		}
		if q.wmValid && newWM == q.watermark {
			skip += q.wmSkip
		}
		q.watermark, q.wmSkip, q.wmValid = newWM, skip, true
		q.bufConsumed += si
	}
	if si < len(s) {
		q.bufMin, q.bufMinValid = s[si], true
	} else {
		q.bufMinValid = false
	}
}

// AdaptiveHeapSort sorts v by pushing every item through an Adaptive
// queue — the ω-adaptive heapsort, cost O(ω·n·log_{ωm} n) like the §3
// mergesort, against HeapSort's symmetric Θ((1+ω)·n·log_m n).
func AdaptiveHeapSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	q := NewAdaptive(ma)
	out := heapSortThrough(ma, v, q)
	q.Close()
	return out
}
