// Package pq implements external-memory priority queues on the AEM
// machine, and the heapsorts built on them.
//
// Two queues share one substrate of leveled sorted runs (runLevels):
//
//   - Queue is the *classic external-memory sequence heap* in the style of
//     Sanders, run unchanged on the AEM machine — cost Θ((1+ω)·n·log_m n)
//     for a full insert/delete lifetime. It is ω-oblivious: every M/8
//     insertions it writes a run, whatever writes cost.
//   - Adaptive (see adaptive.go) is the ω-adaptive buffered queue that
//     closes the gap the paper's §1.1 points at: Blelloch et al. [7]
//     achieve O(ω·n·log_{ωm} n) unconditionally by buffering writes, and
//     the adaptive queue mirrors that construction's write-buffering with
//     the same Θ(ωM) external insertion buffer the repository's buffer
//     tree dictionary uses for its root.
//
// Structure of the sequence heap: an in-memory insertion buffer (IB) and
// deletion buffer (DB) of ~M/8 items each, plus sorted runs on disk
// organized in levels, with one resident block frame per live run (the
// classic EM frontier). A full IB is sorted (free internal computation)
// and written as a level-0 run; when the live-run count exceeds the frame
// budget ~M/(2B), levels are merged. DB refills take the globally
// smallest unconsumed items from the run frontiers through a tournament
// tree (see tournament.go).
package pq

import (
	"fmt"
	"slices"

	"repro/internal/aem"
	"repro/internal/sorting"
)

// run is a sorted on-disk run with a frontier cursor and a lazily loaded
// resident block frame. frameBuf is the run's owned block buffer, created
// on the first load and reused for every subsequent frontier read.
type run struct {
	vec      *aem.Vector
	consumed int // items already handed to the deletion buffer
	frame    []aem.Item
	frameBuf []aem.Item
	frameLo  int
}

// remaining returns how many items of the run are unconsumed.
func (r *run) remaining() int { return r.vec.Len() - r.consumed }

// head returns the run's smallest unconsumed item; the frame must be
// loaded.
func (r *run) head() aem.Item { return r.frame[r.consumed-r.frameLo] }

// runLevels is the external state both queues share: sorted runs
// organized in levels, one resident block frame per live run, a frame
// budget, and the compaction machinery that keeps the live-run count
// within it.
type runLevels struct {
	ma  *aem.Machine
	cfg aem.Config

	levels [][]*run

	framesRes int  // run-frame reservation, dropped around compaction
	framesIn  bool // whether framesRes is currently reserved
}

// initLevels wires the level store to the machine and reserves the run
// frames for the structure's lifetime.
func (h *runLevels) initLevels(ma *aem.Machine) {
	h.ma = ma
	h.cfg = ma.Config()
	h.framesRes = h.maxRuns() * h.cfg.B
	ma.Reserve(h.framesRes)
	h.framesIn = true
}

// closeLevels releases the frame reservation.
func (h *runLevels) closeLevels() {
	if h.framesIn {
		h.ma.Release(h.framesRes)
		h.framesIn = false
	}
}

// maxRuns is the frame budget: one resident block per live run, within
// half the memory.
func (h *runLevels) maxRuns() int {
	r := h.cfg.M / (2 * h.cfg.B)
	if r < 2 {
		r = 2
	}
	return r
}

func (h *runLevels) addRun(level int, r *run) {
	for len(h.levels) <= level {
		h.levels = append(h.levels, nil)
	}
	h.levels[level] = append(h.levels[level], r)
}

// compact merges each multi-run level into a single run of the next
// level, lowest level first, until the live-run count fits the frame
// budget. The run frames are dropped for the duration so MergeRuns can
// use the freed memory.
//
// The level-local pass alone cannot restore the budget when the excess
// runs are stranded one per level — a state interleaved push/delete
// traffic reaches once enough drained phases have left single
// mostly-consumed runs at distinct levels. compactFallback handles that
// corner, so the post-compaction invariant totalRuns() ≤ maxRuns() holds
// unconditionally.
func (h *runLevels) compact() {
	h.dropFrames()
	for level := 0; level < len(h.levels) && h.totalRuns() > h.maxRuns()/2; level++ {
		if len(h.levels[level]) < 2 {
			continue
		}
		vecs := make([]*aem.Vector, 0, len(h.levels[level]))
		for _, r := range h.levels[level] {
			if r.remaining() > 0 {
				vecs = append(vecs, h.suffixVector(r))
			}
		}
		h.levels[level] = nil
		if len(vecs) == 0 {
			continue
		}
		merged := sorting.MergeRuns(h.ma, vecs, sorting.MergeOptions{})
		h.addRun(level+1, &run{vec: merged, frameLo: -1})
	}
	if h.totalRuns() > h.maxRuns() {
		h.compactFallback()
	}
	h.ma.Reserve(h.framesRes)
	h.framesIn = true
	if h.totalRuns() > h.maxRuns() {
		panic(fmt.Sprintf("pq: %d live runs exceed budget %d after compaction", h.totalRuns(), h.maxRuns()))
	}
}

// compactFallback restores the run budget when every over-budget level
// holds a single run, so no level-local merge applies: it prunes
// fully-consumed runs (which occupy frame budget but hold nothing), and
// if the count is still over budget it merges the smallest live runs
// across levels into one run — smallest first, so the fallback moves the
// fewest blocks that restore the invariant.
func (h *runLevels) compactFallback() {
	for lv := range h.levels {
		kept := h.levels[lv][:0]
		for _, r := range h.levels[lv] {
			if r.remaining() > 0 {
				kept = append(kept, r)
			}
		}
		h.levels[lv] = kept
	}
	if h.totalRuns() <= h.maxRuns()/2 {
		return
	}
	type located struct {
		r     *run
		level int
	}
	var live []located
	for lv, runs := range h.levels {
		for _, r := range runs {
			live = append(live, located{r, lv})
		}
	}
	// Order by remaining size ascending; insertion sort is stable, so
	// (level, insertion order) tiebreaks keep the fallback deterministic.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].r.remaining() < live[j-1].r.remaining(); j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	// Merge the smallest runs, keeping enough to stay useful: down to half
	// the budget, the same hysteresis the level-local pass targets.
	take := len(live) - h.maxRuns()/2 + 1
	if take < 2 {
		return
	}
	if take > len(live) {
		take = len(live)
	}
	vecs := make([]*aem.Vector, 0, take)
	deepest := 0
	for _, lr := range live[:take] {
		vecs = append(vecs, h.suffixVector(lr.r))
		if lr.level > deepest {
			deepest = lr.level
		}
		lvl := h.levels[lr.level]
		for i, r := range lvl {
			if r == lr.r {
				h.levels[lr.level] = append(lvl[:i], lvl[i+1:]...)
				break
			}
		}
	}
	merged := sorting.MergeRuns(h.ma, vecs, sorting.MergeOptions{})
	h.addRun(deepest+1, &run{vec: merged, frameLo: -1})
}

func (h *runLevels) dropFrames() {
	for _, lv := range h.levels {
		for _, r := range lv {
			r.frame, r.frameLo = nil, -1
		}
	}
	if h.framesIn {
		h.ma.Release(h.framesRes)
		h.framesIn = false
	}
}

// suffixVector returns a vector of the run's unconsumed items. A
// block-aligned frontier is a free slice view; otherwise the suffix is
// copied (O(remaining/B) I/Os, amortized into the merge that needed it).
func (h *runLevels) suffixVector(r *run) *aem.Vector {
	b := h.cfg.B
	if r.consumed%b == 0 {
		return r.vec.Slice(r.consumed, r.vec.Len())
	}
	out := aem.NewVector(h.ma, r.remaining())
	w := out.NewWriter()
	sc := r.vec.Slice((r.consumed/b)*b, r.vec.Len()).NewScanner()
	skip := r.consumed % b
	for {
		it, ok := sc.Next()
		if !ok {
			break
		}
		if skip > 0 {
			skip--
			continue
		}
		w.Append(it)
	}
	sc.Close()
	w.Close()
	return out
}

func (h *runLevels) totalRuns() int {
	total := 0
	for _, lv := range h.levels {
		total += len(lv)
	}
	return total
}

// liveRuns returns every run in level-then-index order — the iteration
// order the refill's selection tie-breaks by.
func (h *runLevels) liveRuns() []*run {
	runs := make([]*run, 0, h.totalRuns())
	for _, lv := range h.levels {
		runs = append(runs, lv...)
	}
	return runs
}

// loadFrontier makes sure the block containing the run's next unconsumed
// item is resident (one read when the frontier crosses a block boundary).
func (h *runLevels) loadFrontier(r *run) {
	if r.frameLo >= 0 && r.consumed >= r.frameLo && r.consumed < r.frameLo+len(r.frame) {
		return
	}
	if r.frameBuf == nil {
		r.frameBuf = make([]aem.Item, 0, h.cfg.B)
	}
	r.frame, r.frameLo = r.vec.ReadBlockInto(r.consumed, r.frameBuf)
}

// Queue is an external-memory min-priority queue of aem.Items ordered by
// the (Key, Aux) total order — the classic sequence heap.
type Queue struct {
	runLevels

	insertBuf []aem.Item // unsorted, capacity capIB
	deleteBuf []aem.Item // ascending; deleteBuf[0] is the global minimum
	capIB     int
	capDB     int

	size int

	baseRes int // IB + DB reservation, held for the queue's lifetime
}

// New creates an empty queue on the machine, reserving ~3M/4 of internal
// memory (buffers + run frames) for its lifetime; Close releases it.
// Requires M ≥ 16B.
func New(ma *aem.Machine) *Queue {
	cfg := ma.Config()
	if cfg.M < 16*cfg.B {
		panic(fmt.Sprintf("pq: need M ≥ 16B, got M=%d B=%d", cfg.M, cfg.B))
	}
	q := &Queue{
		capIB: cfg.M / 8,
		capDB: cfg.M / 8,
	}
	q.baseRes = q.capIB + q.capDB
	ma.Reserve(q.baseRes)
	q.initLevels(ma)
	return q
}

// Close releases the queue's internal memory. The queue must be empty.
func (q *Queue) Close() {
	if q.size != 0 {
		panic(fmt.Sprintf("pq: Close with %d items still queued", q.size))
	}
	q.ma.Release(q.baseRes)
	q.closeLevels()
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.size }

// Push inserts an item.
func (q *Queue) Push(it aem.Item) {
	// If it sorts below the current deletion-buffer maximum it must enter
	// the deletion buffer, or DeleteMin order would break.
	if len(q.deleteBuf) > 0 && aem.Less(it, q.deleteBuf[len(q.deleteBuf)-1]) {
		q.deleteBuf = insertSorted(q.deleteBuf, it)
		if len(q.deleteBuf) > q.capDB {
			last := q.deleteBuf[len(q.deleteBuf)-1]
			q.deleteBuf = q.deleteBuf[:len(q.deleteBuf)-1]
			q.pushInsertBuf(last)
		}
	} else {
		q.pushInsertBuf(it)
	}
	q.size++
}

func (q *Queue) pushInsertBuf(it aem.Item) {
	q.insertBuf = append(q.insertBuf, it)
	if len(q.insertBuf) >= q.capIB {
		q.flushInsertBuf()
	}
}

// flushInsertBuf sorts the insertion buffer and writes it as a level-0
// run, compacting levels if the run budget is exceeded.
func (q *Queue) flushInsertBuf() {
	if len(q.insertBuf) == 0 {
		return
	}
	slices.SortFunc(q.insertBuf, aem.Compare)
	vec := aem.NewVector(q.ma, len(q.insertBuf))
	w := vec.NewWriter()
	for _, it := range q.insertBuf {
		w.Append(it)
	}
	w.Close()
	q.insertBuf = q.insertBuf[:0]
	q.addRun(0, &run{vec: vec, frameLo: -1})
	if q.totalRuns() > q.maxRuns() {
		q.compact()
	}
}

// Min returns the smallest item without removing it. Like DeleteMin it
// may trigger a refill — folding the insertion buffer into a run and
// paying its ω-weighted writes — so peeking is not free on a queue with
// an unflushed buffer.
func (q *Queue) Min() (aem.Item, bool) {
	if q.size == 0 {
		return aem.Item{}, false
	}
	q.ensureDeleteBuf()
	return q.deleteBuf[0], true
}

// DeleteMin removes and returns the smallest item.
func (q *Queue) DeleteMin() (aem.Item, bool) {
	if q.size == 0 {
		return aem.Item{}, false
	}
	q.ensureDeleteBuf()
	it := q.deleteBuf[0]
	q.deleteBuf = q.deleteBuf[1:]
	q.size--
	return it, true
}

// ensureDeleteBuf refills the deletion buffer with the capDB smallest
// unconsumed items across the insertion buffer and all run frontiers. The
// selection runs through a tournament tree over the run frontiers, so a
// refill costs O(capDB · log(live runs)) head comparisons instead of the
// linear rescan's O(capDB · live runs); the I/O schedule is identical
// (see frontierTree).
func (q *Queue) ensureDeleteBuf() {
	if len(q.deleteBuf) > 0 {
		return
	}
	// Fold the insertion buffer into a run so every source is sorted.
	// (At most once per capIB insertions or capDB deletions.)
	q.flushInsertBuf()

	buf := make([]aem.Item, 0, q.capDB)
	ft := newFrontierTree(q.liveRuns(), q.loadFrontier)
	for len(buf) < q.capDB {
		best, ok := ft.min()
		if !ok {
			break
		}
		buf = append(buf, best.head())
		ft.pop()
	}
	q.deleteBuf = buf
	if q.size > 0 && len(q.deleteBuf) == 0 {
		panic("pq: refill produced nothing despite non-empty queue")
	}
}

// insertSorted inserts it into the ascending slice.
func insertSorted(buf []aem.Item, it aem.Item) []aem.Item {
	return aem.InsertSorted(buf, it)
}

// HeapSort sorts v by pushing every item through a Queue — the heapsort
// baseline (classic EM sequence heap on the AEM machine).
func HeapSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	q := New(ma)
	out := heapSortThrough(ma, v, q)
	q.Close()
	return out
}

// minQueue is the interface both queues implement.
type minQueue interface {
	Push(aem.Item)
	DeleteMin() (aem.Item, bool)
	Len() int
	Close()
}

// heapSortThrough streams v through any queue and collects the ordered
// output.
func heapSortThrough(ma *aem.Machine, v *aem.Vector, q minQueue) *aem.Vector {
	sc := v.NewScanner()
	for {
		it, ok := sc.Next()
		if !ok {
			break
		}
		q.Push(it)
	}
	sc.Close()

	out := aem.NewVector(ma, v.Len())
	w := out.NewWriter()
	for {
		it, ok := q.DeleteMin()
		if !ok {
			break
		}
		w.Append(it)
	}
	w.Close()
	return out
}
