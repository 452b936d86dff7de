package sorting

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/aem"
)

// MergeOptions configures MergeRuns.
type MergeOptions struct {
	// Reduce combines runs of equal Key in the output into a single item
	// whose Aux is the sum of the group's Aux values (semiring addition).
	// It is used by the sorting-based SpMxV algorithm of Section 5 to sum
	// elementary products of the same output row while merging, which is
	// what keeps the hierarchical vector addition at O(ω·h) total cost.
	Reduce bool

	// MaxBuffer, if positive, caps the round buffer below what the memory
	// budget allows. It exists for the EXP-A1 ablation: the §3 algorithm
	// outputs ~M items per round, and shrinking the buffer multiplies the
	// round count (and with it the fixed 2ωm initialization reads per
	// round), which is exactly the design choice the paper's round
	// structure optimizes. Zero means "use all available memory".
	MaxBuffer int
}

// mergeEntry is an item held in the round buffer together with its
// provenance: which run it came from and its global index within that run.
// The provenance is what lets the algorithm advance the external block
// pointers b[i] without per-run counters in internal memory (which would
// not fit when the number of runs ωm exceeds M).
type mergeEntry struct {
	it  aem.Item
	run int32
	idx int64
}

// entrySlots is the internal-memory charge of one mergeEntry, in item
// slots: the item itself plus one slot for the two provenance words. The
// paper's §3.1 reserves "a constant number of additional words of
// auxiliary data with each element" exactly for this.
const entrySlots = 2

// entryLess is the strict total order the merge works in: items compare
// by (Key, Aux) first, with (run, idx) as tiebreakers. The tiebreakers
// matter when inputs contain exact duplicates (equal Key and Aux), as the
// elementary products of SpMxV routinely do: every entry instance is still
// strictly ordered, so the consumption watermark never conflates two
// copies.
func entryLess(a, b mergeEntry) bool {
	if c := aem.Compare(a.it, b.it); c != 0 {
		return c < 0
	}
	if a.run != b.run {
		return a.run < b.run
	}
	return a.idx < b.idx
}

// selectHeap keeps the limit smallest entries offered to it, in entryLess
// order. It is a max-heap: the root is the largest entry kept, so a full
// heap answers "is this entry among the limit smallest seen?" with one
// comparison and takes one in O(log limit) moves by evicting the root.
// The §3 merge's round buffer and SmallSort's selection pass are both
// one; each allocates its storage once.
type selectHeap struct {
	h     []mergeEntry
	limit int
}

func newSelectHeap(limit int) selectHeap {
	return selectHeap{h: make([]mergeEntry, 0, limit), limit: limit}
}

func (s *selectHeap) len() int        { return len(s.h) }
func (s *selectHeap) full() bool      { return len(s.h) == s.limit }
func (s *selectHeap) max() mergeEntry { return s.h[0] }

// offer keeps e if the heap has room or e is below its maximum, which it
// then evicts. It reports whether e was kept.
func (s *selectHeap) offer(e mergeEntry) bool {
	h := s.h
	if len(h) < s.limit {
		h = append(h, e)
		i := len(h) - 1
		for i > 0 && entryLess(h[(i-1)/2], e) {
			h[i] = h[(i-1)/2]
			i = (i - 1) / 2
		}
		h[i] = e
		s.h = h
		return true
	}
	if !entryLess(e, h[0]) {
		return false
	}
	h[0] = e
	siftDown(h, 0)
	return true
}

// drain heap-sorts the entries kept into ascending entryLess order and
// empties the heap. The returned slice aliases the heap's storage: it is
// valid until the next offer.
func (s *selectHeap) drain() []mergeEntry {
	h := s.h
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	s.h = h[:0]
	return h
}

// siftDown restores the max-heap order of h below a root at i that may be
// too small, moving larger children up into the hole it leaves.
func siftDown(h []mergeEntry, i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && entryLess(h[c], h[c+1]) {
			c++
		}
		if !entryLess(e, h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// activeRun is the in-memory state kept for an active run during one
// round's merge loop (Lemma 3.1 bounds how many exist).
type activeRun struct {
	run  int        // run index
	next int        // next block (within the run) to load
	s    mergeEntry // largest entry loaded from the run this round
}

// activeSlots is the internal-memory charge of one activeRun entry.
const activeSlots = 2

// pointerStore abstracts where the per-run next-block pointers b[i] live.
// The paper's contribution is the external store: it works for every ω.
// The in-memory store reproduces the earlier approach of [7] which
// requires the pointers to fit in internal memory (ω ≲ B).
type pointerStore interface {
	// forEach calls pass(m, run, bptr) for every run in index order with
	// its current block pointer, paying whatever I/O the store needs. The
	// pass is a method expression on the merge's state, so no closure is
	// built per call.
	forEach(m *merger, pass func(m *merger, run, bptr int))
	// update applies new block pointers for the given runs, paying
	// whatever I/O the store needs, and tells m.passed each run's old and
	// new pointer. changes is sorted by run index.
	update(m *merger, changes []ptrChange)
	// close releases the store's internal memory.
	close()
}

type ptrChange struct {
	run  int
	bptr int
}

// externalPointers keeps b[i] in ⌈K/B⌉ blocks of external memory,
// following §3.1: each pointer is updated on disk only when it changes,
// i.e. at most once per consumed block of its run, for O(n) pointer writes
// across the whole merge. The pointer-block frame is allocated once and
// reused for every pointer I/O.
type externalPointers struct {
	pv    *aem.Vector
	frame []aem.Item
}

func newExternalPointers(ma *aem.Machine, k int) *externalPointers {
	pv := aem.NewVector(ma, k)
	w := pv.NewWriter()
	for i := 0; i < k; i++ {
		w.Append(aem.Item{Key: 0, Aux: int64(i)})
	}
	w.Close()
	return &externalPointers{pv: pv, frame: make([]aem.Item, 0, ma.Config().B)}
}

func (e *externalPointers) forEach(m *merger, pass func(m *merger, run, bptr int)) {
	ma := e.pv.Machine()
	b := ma.Config().B
	for blk := 0; blk < e.pv.Blocks(); blk++ {
		// Only the pointer-block I/O itself is labeled "pointers"; the
		// callback's data I/O keeps the caller's phase.
		prev := ma.SetPhase("pointers")
		entries, first := e.pv.ReadBlockInto(blk*b, e.frame)
		ma.SetPhase(prev)
		for off, ent := range entries {
			pass(m, first+off, int(ent.Key))
		}
	}
}

func (e *externalPointers) update(m *merger, changes []ptrChange) {
	defer e.pv.Machine().SetPhase(e.pv.Machine().SetPhase("pointers"))
	b := e.pv.Machine().Config().B
	for i := 0; i < len(changes); {
		blk := changes[i].run / b
		entries, first := e.pv.ReadBlockInto(blk*b, e.frame)
		dirty := false
		for ; i < len(changes) && changes[i].run/b == blk; i++ {
			c, ent := changes[i], &entries[changes[i].run-first]
			if int(ent.Key) != c.bptr {
				m.passed(c.run, int(ent.Key), c.bptr)
				ent.Key = int64(c.bptr)
				dirty = true
			}
		}
		if dirty {
			e.pv.Machine().Write(e.pv.BlockAddr(blk*b), entries)
		}
	}
}

// close discards the pointer vector: it is the merge's own.
func (e *externalPointers) close() { e.pv.Discard(0, e.pv.Blocks()) }

// inMemoryPointers keeps b[i] in internal memory, reserving one slot per
// run. Constructing it on a machine where the K pointers do not fit
// panics with a memory overflow — deliberately so: this is the assumption
// (ω < B, hence ωm < M) that the paper's external store removes.
type inMemoryPointers struct {
	ma   *aem.Machine
	bptr []int
}

func newInMemoryPointers(ma *aem.Machine, k int) *inMemoryPointers {
	ma.Reserve(k) // panics if the pointers do not fit — the point of the baseline
	return &inMemoryPointers{ma: ma, bptr: make([]int, k)}
}

func (p *inMemoryPointers) forEach(m *merger, pass func(m *merger, run, bptr int)) {
	for i, b := range p.bptr {
		pass(m, i, b)
	}
}

func (p *inMemoryPointers) update(m *merger, changes []ptrChange) {
	for _, c := range changes {
		m.passed(c.run, p.bptr[c.run], c.bptr)
		p.bptr[c.run] = c.bptr
	}
}

func (p *inMemoryPointers) close() { p.ma.Release(len(p.bptr)) }

// MergeRuns merges the given sorted runs into a single sorted output
// vector using the round-based ωm-way merge of Section 3 with the
// next-block pointers maintained in external memory. For K ≤ ωm runs
// totalling N items it performs O(ω·(n+m)) read and O(n+m) write I/Os
// (Theorem 3.2) for any ω, including ω > B.
//
// Each round keeps the capM ≈ M/2 smallest unconsumed entries in one
// bounded max-heap (selectHeap): a loaded block's entries join only while
// they are below the heap's maximum, so a block costs O(log capM) moves
// per entry kept and one comparison for the rest, and the round's output
// is heap-sorted in place. The heap is the capM-entry round buffer the
// merge's memory budget charges for, and its only one in host memory.
//
// Every run must be ascending in the (Key, Aux) order. The inputs are not
// modified. MergeRuns requires M ≥ 8B.
func MergeRuns(ma *aem.Machine, runs []*aem.Vector, opts MergeOptions) *aem.Vector {
	return mergeRuns(ma, runs, opts, true, false)
}

// MergeAll merges any number of sorted runs by repeated ωm-way MergeRuns
// passes (one multiway level per pass), the hierarchical merging used by
// the sorting-based SpMxV algorithm when the number of runs exceeds the
// merge fanout. With the Reduce option, duplicate keys combine at every
// level, which is what keeps the Section 5 vector additions at O(ω·h)
// total cost: the data volume shrinks geometrically up the merge tree.
// The caller's runs are not modified; the levels above the first merge
// MergeAll's own vectors and discard them as they pass.
func MergeAll(ma *aem.Machine, runs []*aem.Vector, opts MergeOptions) *aem.Vector {
	if len(runs) == 0 {
		return aem.NewVector(ma, 0)
	}
	if len(runs) == 1 && opts.Reduce {
		// A single run still needs its duplicate keys combined; a plain
		// pass through MergeRuns performs the reduction.
		return MergeRuns(ma, runs, opts)
	}
	fanout := ma.Config().MergeFanout()
	if fanout < 2 {
		fanout = 2
	}
	for own := false; len(runs) > 1; own = true {
		next := make([]*aem.Vector, 0, (len(runs)+fanout-1)/fanout)
		for lo := 0; lo < len(runs); lo += fanout {
			hi := lo + fanout
			if hi > len(runs) {
				hi = len(runs)
			}
			next = append(next, mergeRuns(ma, runs[lo:hi], opts, true, own))
		}
		runs = next
	}
	return runs[0]
}

// MergeRunsInMemoryPointers is the merge in the style of the earlier AEM
// mergesort of Blelloch et al. [7]: identical round structure, but the
// per-run pointers are held in internal memory. It panics with a memory
// overflow when the pointers do not fit (K > free memory), which is
// exactly the ω < B assumption the paper removes. It exists as a baseline
// for the EXP-S2 experiment.
func MergeRunsInMemoryPointers(ma *aem.Machine, runs []*aem.Vector, opts MergeOptions) *aem.Vector {
	return mergeRuns(ma, runs, opts, false, false)
}

// mergeRuns is the §3 merge, keeping the pointers b[i] in external memory
// or, for the [7] baseline, in internal memory. With own set the runs
// are the caller's temporaries: each run's blocks are discarded as its
// pointer passes them, so the output's writes reuse their memory. No run
// block is read once its pointer has passed it, so owning changes no I/O.
func mergeRuns(ma *aem.Machine, runs []*aem.Vector, opts MergeOptions, externalPtrs, own bool) *aem.Vector {
	cfg := ma.Config()
	b := cfg.B
	if cfg.M < 8*b {
		panic(fmt.Sprintf("sorting: MergeRuns needs M ≥ 8B, got M=%d B=%d", cfg.M, b))
	}

	defer ma.SetPhase(ma.SetPhase("merge"))

	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	out := aem.NewVector(ma, total)
	if total == 0 {
		return out
	}

	// The pointer store comes first: the [7]-style in-memory table
	// reserves one slot per run and is *meant* to die with a memory
	// overflow when the ωm fanout exceeds internal memory — that is the
	// assumption the paper's external store removes.
	ptrs := pointerStore(nil)
	if externalPtrs {
		ptrs = newExternalPointers(ma, len(runs))
	} else {
		ptrs = newInMemoryPointers(ma, len(runs))
	}
	defer ptrs.close()

	// Round-buffer capacity: solve the remaining memory budget
	//   entrySlots·capM (buffer) + activeSlots·(capM/B+2) (active list)
	//   + 2B (pointer + data frames) + B (writer) ≤ free
	// for capM. The paper takes "M a constant fraction of internal
	// memory" (§3.1); this is that fraction made explicit. The buffer is
	// one capM-entry heap in host memory, allocated once per merge.
	free := cfg.M - ma.MemInUse()
	capM := (free - 3*b - 2*activeSlots) * b / (entrySlots*b + activeSlots)
	if opts.MaxBuffer > 0 && capM > opts.MaxBuffer {
		capM = opts.MaxBuffer
	}
	if capM < b {
		panic(fmt.Sprintf("sorting: M=%d too small for B=%d", cfg.M, b))
	}
	mbufRes := entrySlots * capM
	activeRes := activeSlots * (capM/b + 2)
	frameRes := 2 * b
	ma.Reserve(mbufRes + activeRes + frameRes)
	defer ma.Release(mbufRes + activeRes + frameRes)

	w := out.NewWriter()
	red := newReducer(w, opts.Reduce)

	m := &merger{
		b:    b,
		runs: runs,
		own:  own,
		mu:   mergeEntry{it: minItem, run: -1, idx: -1},
		buf:  newSelectHeap(capM),
		// Lemma 3.1: at most ⌈capM/B⌉ runs stay active.
		active:    make([]activeRun, 0, capM/b+2),
		maxActive: capM/b + 1,
		frame:     make([]aem.Item, 0, b),
	}
	// One round's pointer updates, at most one per run.
	changes := make([]ptrChange, 0, min(len(runs), capM))

	for {
		ptrs.forEach(m, (*merger).passA)
		if m.buf.len() == 0 {
			break // every run fully consumed
		}

		// Pass B offers nothing, so the buffer it compares against is
		// the one pass A left.
		m.active = m.active[:0]
		ptrs.forEach(m, (*merger).passB)
		m.mergeActive()

		// Output the round: the buffer now holds the capM smallest
		// unconsumed entries overall.
		round := m.buf.drain()
		m.mu = round[len(round)-1]
		for _, e := range round {
			red.emit(e.it)
		}

		// Advance the external pointers: for each contributing run the new
		// b[i] is the block of its first unconsumed item. Group updates by
		// run via an in-place re-sort of the drained buffer (free internal
		// computation, no extra memory). The (run, idx) keys are unique,
		// so the order is the same for any sort algorithm.
		slices.SortFunc(round, func(x, y mergeEntry) int {
			if c := cmp.Compare(x.run, y.run); c != 0 {
				return c
			}
			return cmp.Compare(x.idx, y.idx)
		})
		changes = changesFromBuffer(changes[:0], round, b)
		ptrs.update(m, changes)
	}

	n := red.close()
	if !opts.Reduce && n != total {
		panic(fmt.Sprintf("sorting: merge produced %d of %d items", n, total))
	}
	if opts.Reduce {
		out = out.Shrink(n)
	}
	return out
}

// merger is one merge's working state: the runs, the watermark mu (every
// entry instance ≤ mu in entryLess order has been output), the round
// buffer, the active runs and one data-block frame. Its passes are
// methods, handed to the pointer store as method expressions, so a merge
// allocates this state once and nothing per round.
type merger struct {
	b         int
	runs      []*aem.Vector
	own       bool // discard each run's blocks as its pointer passes them
	mu        mergeEntry
	buf       selectHeap // the round buffer
	active    []activeRun
	maxActive int
	frame     []aem.Item // reused data-block frame
}

func (m *merger) runBlocks(r int) int { return (m.runs[r].Len() + m.b - 1) / m.b }

// passed is told that run r's pointer moved from block from to block to.
// No later pass reads a block below its run's pointer, so a merge that
// owns its runs discards blocks [from, to).
func (m *merger) passed(r, from, to int) {
	if m.own {
		m.runs[r].Discard(from, to)
	}
}

// loadBlock reads block bi of run r and offers its entries > mu to the
// round buffer, returning the block's last entry and whether the block
// existed. A block ascends, so once the full buffer turns one entry away
// it would turn away the rest. Entries turned away or evicted stay
// unconsumed on disk and are re-read in a later round: the re-read the
// paper charges one block per run per round for.
func (m *merger) loadBlock(r, bi int) (last mergeEntry, ok bool) {
	if bi >= m.runBlocks(r) {
		return mergeEntry{}, false
	}
	items, first := m.runs[r].ReadBlockInto(bi*m.b, m.frame)
	for off, it := range items {
		e := mergeEntry{it: it, run: int32(r), idx: int64(first + off)}
		if entryLess(m.mu, e) && !m.buf.offer(e) {
			break
		}
	}
	return mergeEntry{it: items[len(items)-1], run: int32(r), idx: int64(first + len(items) - 1)}, true
}

// passA is §3.1 "Initializing M": read up to two blocks from every run
// starting at b[i]; candidates (> mu) accumulate in the round buffer,
// which retains the capM smallest.
func (m *merger) passA(run, bptr int) {
	if _, ok := m.loadBlock(run, bptr); ok {
		m.loadBlock(run, bptr+1)
	}
}

// passB is §3.1 "Identifying active arrays": re-read the second
// initialization block of each run to find the largest loaded element; a
// run is active iff more blocks follow and that element is among the capM
// smallest loaded so far.
func (m *merger) passB(run, bptr int) {
	if bptr+2 >= m.runBlocks(run) {
		return // no blocks beyond the initialization reads
	}
	items, first := m.runs[run].ReadBlockInto((bptr+1)*m.b, m.frame)
	last := mergeEntry{it: items[len(items)-1], run: int32(run), idx: int64(first + len(items) - 1)}
	if m.buf.full() && entryLess(m.buf.max(), last) {
		return // inactive: everything unread is above the buffer
	}
	m.active = append(m.active, activeRun{run: run, next: bptr + 2, s: last})
	if len(m.active) > m.maxActive {
		panic(fmt.Sprintf("sorting: Lemma 3.1 violated: %d active runs > %d", len(m.active), m.maxActive))
	}
}

// mergeActive is §3.1 "Merging from active arrays": repeatedly load the
// next block of the active run whose largest loaded element is smallest,
// until every active run's frontier exceeds the buffer.
func (m *merger) mergeActive() {
	active := m.active
	for len(active) > 0 {
		j := 0
		for i := 1; i < len(active); i++ {
			if entryLess(active[i].s, active[j].s) {
				j = i
			}
		}
		if m.buf.full() && entryLess(m.buf.max(), active[j].s) {
			break // the smallest frontier is above the buffer: round over
		}
		last, _ := m.loadBlock(active[j].run, active[j].next)
		active[j].next++
		active[j].s = last
		if active[j].next >= m.runBlocks(active[j].run) ||
			(m.buf.full() && entryLess(m.buf.max(), last)) {
			active[j] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	m.active = active
}

// changesFromBuffer appends to changes, from a round buffer sorted by
// (run, idx), the new block pointer for each contributing run: the block
// containing the item after the run's largest consumed index.
func changesFromBuffer(changes []ptrChange, mbuf []mergeEntry, b int) []ptrChange {
	for i := 0; i < len(mbuf); {
		run := mbuf[i].run
		maxIdx := mbuf[i].idx
		for ; i < len(mbuf) && mbuf[i].run == run; i++ {
			if mbuf[i].idx > maxIdx {
				maxIdx = mbuf[i].idx
			}
		}
		changes = append(changes, ptrChange{run: int(run), bptr: int(maxIdx+1) / b})
	}
	return changes
}

// reducer streams items to a writer, optionally combining consecutive
// equal-Key items by summing their Aux values. Combining is valid because
// the merge emits items in ascending Key order, so equal keys are
// adjacent.
type reducer struct {
	w       *aem.Writer
	reduce  bool
	pending aem.Item
	have    bool
	count   int
}

func newReducer(w *aem.Writer, reduce bool) *reducer {
	return &reducer{w: w, reduce: reduce}
}

func (r *reducer) emit(it aem.Item) {
	if !r.reduce {
		r.w.Append(it)
		r.count++
		return
	}
	if r.have && r.pending.Key == it.Key {
		r.pending.Aux += it.Aux
		return
	}
	if r.have {
		r.w.Append(r.pending)
		r.count++
	}
	r.pending = it
	r.have = true
}

func (r *reducer) close() int {
	if r.reduce {
		if r.have {
			r.w.Append(r.pending)
			r.count++
		}
		r.w.CloseShort()
		return r.count
	}
	r.w.Close()
	return r.count
}
