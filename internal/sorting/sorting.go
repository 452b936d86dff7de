// Package sorting implements the AEM sorting algorithms studied by the
// paper:
//
//   - SmallSort — the base-case sort of Blelloch et al. [7, Lemma 4.2]:
//     N′ ≤ ωM items in O(ω·n′) read and O(n′) write I/Os via ω
//     selection passes;
//   - MergeRuns — the ωm-way merge of Section 3, with the next-block
//     pointers b[i] maintained in external memory so that the algorithm
//     works for every ω (in particular ω > B, where the pointers do not
//     fit in internal memory);
//   - MergeSort — the full Section 3 mergesort,
//     O(ω·n·log_{ωm} n) reads and O(n·log_{ωm} n) writes;
//   - EMMergeSort — the classic symmetric-EM m-way mergesort run
//     unchanged on the AEM machine, the baseline whose cost
//     (1+ω)·n·log_m n the paper's algorithm improves on;
//   - MergeRunsInMemoryPointers — the merge in the style of the earlier
//     AEM mergesort of [7], which keeps one pointer per run in internal
//     memory and therefore requires ω·m ≲ M (equivalently ω ≲ B). It
//     exists to demonstrate the assumption the paper removes: on machines
//     with ω > B it fails by design with a memory-overflow panic.
//
// SmallSort's selection passes and each MergeRuns round select with the
// same structure: a bounded max-heap that keeps the k smallest entries
// offered, k = M/2 for SmallSort and the round buffer's capM for the
// merge. A MergeSort allocates its host working memory once — one
// SmallSorter (heap, scan frame, write frame) for every base case,
// and one round buffer, block frame and writer per merge — so what it
// allocates per call beyond that is its output vectors and their storage.
//
// All algorithms run on the metered aem.Machine, reserve every word of
// internal memory they use, and are verified by the test suite both for
// correctness (output sorted, multiset preserved) and for their paper
// cost bounds (measured I/O counts within constant factors of the stated
// formulas, with the constants pinned by regression tests).
package sorting

import (
	"fmt"

	"repro/internal/aem"
)

// maxItem is a sentinel greater than every real item in the (Key, Aux)
// total order.
var maxItem = aem.Item{Key: 1<<63 - 1, Aux: 1<<63 - 1}

// minItem is a sentinel smaller than every real item.
var minItem = aem.Item{Key: -(1<<63 - 1), Aux: -(1<<63 - 1)}

// SmallSort sorts v into a fresh vector using the multi-pass selection
// algorithm of Blelloch et al. [7, Lemma 4.2]. Each pass scans the whole
// input and retains the M/2 smallest items above the previous pass's
// watermark, then writes them out; ⌈N′/(M/2)⌉ passes suffice. For
// N′ ≤ ωM this is O(ω·n′) reads and O(n′) writes, total cost O(ω·n′).
// The selection is the §3 merge's bounded max-heap: an item joins only
// if it is below the largest item kept, which it then evicts.
//
// The input vector is left untouched. SmallSort requires M ≥ 4B (half the
// memory for the selection buffer, one block frame for scanning, one for
// writing).
func SmallSort(ma *aem.Machine, v *aem.Vector) *aem.Vector {
	out := aem.NewVector(ma, v.Len())
	NewSmallSorter(ma.Config()).SortInto(ma, v, out)
	return out
}

// SmallSorter is SmallSort's host working memory: the selection heap and
// one block frame each for reading the input and writing the output. A
// caller that sorts often (a MergeSort's base cases, a buffer tree's leaf
// sorts) keeps one and runs every sort in it.
type SmallSorter struct {
	sel            selectHeap
	rframe, wframe []aem.Item
}

// NewSmallSorter returns working memory for SmallSorts on machines of
// shape cfg.
func NewSmallSorter(cfg aem.Config) *SmallSorter {
	frames := make([]aem.Item, 2*cfg.B)
	return &SmallSorter{
		sel:    newSelectHeap(cfg.M / 2),
		rframe: frames[:0:cfg.B],
		wframe: frames[cfg.B:cfg.B],
	}
}

// SortInto is SmallSort writing into out, a vector of v.Len() items that
// the caller allocated and that does not overlap v — scratch blocks it
// reuses across sorts, say. Its I/O is SmallSort's.
func (s *SmallSorter) SortInto(ma *aem.Machine, v, out *aem.Vector) {
	if out.Len() != v.Len() {
		panic(fmt.Sprintf("sorting: SortInto of %d items into a vector of %d", v.Len(), out.Len()))
	}
	s.sort(ma, v, 0, v.Len(), out)
}

// sort sorts items [lo, hi) of v into out, a vector of hi−lo items; lo
// is block-aligned and hi is too unless it is v.Len().
func (s *SmallSorter) sort(ma *aem.Machine, v *aem.Vector, lo, hi int, out *aem.Vector) {
	cfg := ma.Config()
	if cfg.M < 4*cfg.B {
		panic(fmt.Sprintf("sorting: SmallSort needs M ≥ 4B, got M=%d B=%d", cfg.M, cfg.B))
	}
	defer ma.SetPhase(ma.SetPhase("base"))

	n := hi - lo
	if n == 0 {
		return
	}

	// The selection buffer, the scan frame and the write frame.
	res := cfg.M/2 + 2*cfg.B
	ma.Reserve(res)
	defer ma.Release(res)

	// watermark is the largest item emitted so far and dupSkip the number
	// of its emitted copies, so inputs with duplicate (Key, Aux) items
	// sort correctly too: each pass skips exactly the copies already
	// written.
	// For all-distinct inputs the schedule is unchanged.
	watermark := minItem
	dupSkip := 0
	wf, flushed := s.wframe, 0 // pending output block, items written before it
	for flushed+len(wf) < n {
		eqSeen := 0
		for i := lo; i < hi; i += cfg.B {
			items, _ := v.ReadBlockInto(i, s.rframe)
			for _, it := range items {
				if aem.Less(it, watermark) {
					continue // already emitted in an earlier pass
				}
				if it == watermark {
					eqSeen++
					if eqSeen <= dupSkip {
						continue // this copy was already emitted
					}
				}
				s.sel.offer(mergeEntry{it: it})
			}
		}
		sel := s.sel.drain()
		if len(sel) == 0 {
			panic("sorting: SmallSort made no progress; input mutated during sort?")
		}
		for _, e := range sel {
			wf = append(wf, e.it)
			if len(wf) == cfg.B {
				ma.Write(out.BlockAddr(flushed), wf)
				flushed += len(wf)
				wf = wf[:0]
			}
		}
		newMark := sel[len(sel)-1].it
		emittedAtMark := 0
		for i := len(sel) - 1; i >= 0 && sel[i].it == newMark; i-- {
			emittedAtMark++
		}
		if newMark == watermark {
			dupSkip += emittedAtMark
		} else {
			dupSkip = emittedAtMark
		}
		watermark = newMark
	}
	if len(wf) > 0 {
		ma.Write(out.BlockAddr(flushed), wf)
	}
}

// IsSorted reports whether items is ascending in the (Key, Aux) total
// order.
func IsSorted(items []aem.Item) bool {
	for i := 1; i < len(items); i++ {
		if aem.Less(items[i], items[i-1]) {
			return false
		}
	}
	return true
}

// SameMultiset reports whether a and b contain the same items with the
// same multiplicities. Used by tests and the harness to verify that sorts
// and merges neither lose nor invent data.
func SameMultiset(a, b []aem.Item) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[aem.Item]int, len(a))
	for _, it := range a {
		counts[it]++
	}
	for _, it := range b {
		counts[it]--
		if counts[it] < 0 {
			return false
		}
	}
	return true
}
