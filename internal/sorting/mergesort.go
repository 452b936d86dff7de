package sorting

import (
	"fmt"
	"slices"

	"repro/internal/aem"
)

// MergeSort sorts v into a fresh vector with the AEM mergesort of
// Section 3: the input is divided into d = ωm subarrays, each is sorted
// recursively (with the SmallSort base case once subarrays fit in ωM
// items), and the sorted subarrays are merged with MergeRuns. Total cost:
// O(ω·n·log_{ωm} n) reads and O(n·log_{ωm} n) writes, for any ω.
// Subarrays are item ranges of v, not views, and every base case runs in
// one SmallSort working set allocated per call. The sorted subarrays are
// the sort's own: the merge discards each one's blocks as its pointer
// passes them, so the merge output reuses their memory (Machine.Discard).
//
// The input vector is left untouched. Requires M ≥ 8B.
func MergeSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	return mergeSortWith(ma, v, true)
}

// MergeSortInMemoryPointers is MergeSort built on the in-memory-pointer
// merge of [7]; it panics by design when the ωm merge fanout does not fit
// in internal memory (ω ≳ B).
func MergeSortInMemoryPointers(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	return mergeSortWith(ma, v, false)
}

func mergeSortWith(ma *aem.Machine, v *aem.Vector, externalPtrs bool) *aem.Vector {
	return mergeSortRange(ma, v, 0, v.Len(), NewSmallSorter(ma.Config()), externalPtrs)
}

// mergeSortRange sorts items [lo, hi) of v into a fresh vector, running
// every base case in base and merging with external or in-memory
// pointers. lo is block-aligned and hi is too unless it is v.Len().
func mergeSortRange(ma *aem.Machine, v *aem.Vector, lo, hi int, base *SmallSorter, externalPtrs bool) *aem.Vector {
	cfg := ma.Config()
	if hi-lo <= cfg.Omega*cfg.M {
		out := aem.NewVector(ma, hi-lo)
		base.sort(ma, v, lo, hi, out)
		return out
	}

	// Split into at most d = ωm block-aligned subarrays. Because
	// N > ωM = ω·m·B, there are more than ωm blocks, so every subarray
	// gets at least one block.
	d := cfg.MergeFanout()
	blocks := cfg.BlocksOf(hi - lo)
	per := (blocks + d - 1) / d // blocks per subarray, ≥ 1

	sorted := make([]*aem.Vector, 0, (blocks+per-1)/per)
	for blk := 0; blk < blocks; blk += per {
		sorted = append(sorted, mergeSortRange(ma, v, lo+blk*cfg.B, min(lo+(blk+per)*cfg.B, hi), base, externalPtrs))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	return mergeRuns(ma, sorted, MergeOptions{}, externalPtrs, true)
}

// EMMergeSort sorts v with the classic symmetric-EM multiway mergesort,
// oblivious to ω: in-memory sorted base runs of ~M items, then repeated
// (m−2)-way merging holding one block per run in internal memory. It
// performs Θ(n·log_m n) reads and equally many writes, so its AEM cost is
// (1+ω)·n·log_m n — the baseline the Section 3 algorithm improves to
// ω·n·log_{ωm} n. One chunk buffer serves every base run and one set of
// run cursors every merge. Requires M ≥ 4B.
func EMMergeSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	cfg := ma.Config()
	if cfg.M < 4*cfg.B {
		panic(fmt.Sprintf("sorting: EMMergeSort needs M ≥ 4B, got M=%d B=%d", cfg.M, cfg.B))
	}
	if v.Len() == 0 {
		return aem.NewVector(ma, 0)
	}

	// Base runs: load ~M items (one block of slack left for the output
	// frame), sort in memory, write out. One chunk buffer serves them all.
	var runs []*aem.Vector
	blocks := cfg.BlocksOf(v.Len())
	m := cfg.BlocksInMemory()
	chunk := cfg.M/cfg.B - 1 // floor, minus the writer's frame
	if chunk < 1 {
		chunk = 1
	}
	buf := make([]aem.Item, 0, min(chunk*cfg.B, v.Len()))
	for lo := 0; lo < blocks; lo += chunk {
		runs = append(runs, emSortChunk(ma, v, lo*cfg.B, min((lo+chunk)*cfg.B, v.Len()), buf))
	}

	// Merge levels: fanout f leaves one output frame spare. One set of
	// run cursors, with their block frames, serves every merge.
	fanout := m - 2
	if fanout < 2 {
		fanout = 2
	}
	cursors := newEMCursors(min(fanout, len(runs)), cfg.B)
	for len(runs) > 1 {
		var next []*aem.Vector
		for lo := 0; lo < len(runs); lo += fanout {
			next = append(next, emMerge(ma, runs[lo:min(lo+fanout, len(runs))], cursors))
		}
		runs = next
	}
	return runs[0]
}

// emSortChunk reads items [lo, hi) of v into buf, a buffer of capacity
// ≥ hi−lo, sorts them in memory and writes them out to a fresh vector: one
// read and one write per block.
func emSortChunk(ma *aem.Machine, v *aem.Vector, lo, hi int, buf []aem.Item) *aem.Vector {
	cfg := ma.Config()
	n := hi - lo
	ma.Reserve(n)
	// Each block is read straight into the chunk buffer's spare capacity:
	// no per-block allocation.
	buf = buf[:0]
	for i := lo; i < hi; i += cfg.B {
		items, _ := v.ReadBlockInto(i, buf[len(buf):len(buf):cap(buf)])
		buf = buf[:len(buf)+len(items)]
	}
	slices.SortFunc(buf, aem.Compare)
	out := aem.NewVector(ma, n)
	w := out.NewWriter()
	for _, it := range buf {
		w.Append(it)
	}
	w.Close()
	ma.Release(n)
	return out
}

// emCursor is one input run's read position in emMerge: a block frame,
// the unread rest of the block in it, and the index of the run's next
// unread block.
type emCursor struct {
	frame, rest []aem.Item
	next        int
	head        aem.Item // the run's smallest unmerged item
	alive       bool     // head is valid
}

// newEMCursors returns k cursors whose block frames, B items each, share
// one allocation.
func newEMCursors(k, b int) []emCursor {
	frames := make([]aem.Item, k*b)
	cursors := make([]emCursor, k)
	for i := range cursors {
		cursors[i].frame = frames[i*b : i*b : (i+1)*b]
	}
	return cursors
}

// advance moves c's head to the next item of run, reading the run's next
// block (one read I/O) when the current one is used up. Every run is the
// sort's own, so the used-up block is discarded.
func (c *emCursor) advance(run *aem.Vector) {
	if len(c.rest) == 0 {
		if c.next > 0 {
			used := int(run.BlockAddr(c.next-1) - run.Base())
			run.Discard(used, used+1)
		}
		if c.next >= run.Len() {
			c.alive = false
			return
		}
		c.rest, _ = run.ReadBlockInto(c.next, c.frame)
		c.next += len(c.rest)
	}
	c.head, c.rest, c.alive = c.rest[0], c.rest[1:], true
}

// emMerge is the textbook EM multiway merge: one block frame per run plus
// an output frame, all resident in internal memory. cursors holds at
// least len(runs) cursors; their state is reset here.
func emMerge(ma *aem.Machine, runs []*aem.Vector, cursors []emCursor) *aem.Vector {
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	out := aem.NewVector(ma, total)
	w := out.NewWriter()

	// One block frame per run, charged as a Scanner's.
	ma.Reserve(len(runs) * ma.Config().B)
	cursors = cursors[:len(runs)]
	for i := range cursors {
		cursors[i].rest, cursors[i].next = nil, 0
		cursors[i].advance(runs[i])
	}
	for {
		j := -1
		for i := range cursors {
			if cursors[i].alive && (j < 0 || aem.Less(cursors[i].head, cursors[j].head)) {
				j = i
			}
		}
		if j < 0 {
			break
		}
		w.Append(cursors[j].head)
		cursors[j].advance(runs[j])
	}
	ma.Release(len(runs) * ma.Config().B)
	w.Close()
	return out
}
